//! Two-level memoisation of simulation runs, and the one job executor.
//!
//! Several experiments need the same runs (every figure needs per-mix
//! baselines; Fig 6 reuses Fig 5's runs). Jobs are keyed by a structured
//! `u128` hash of the full configuration ([`crate::key::job_key`]); lookups
//! go memory → disk ([`crate::sweep::store::ShardedStore`]) → simulate.
//! [`RunCache::run_batch`] is the only place a job is looked up, executed
//! and admitted: it deduplicates a batch, serves tier hits, and fans the
//! misses out over a `std::thread` worker pool. `h2 sweep` runs every
//! batch through it, and [`RunCache::run`] is a one-job batch.
//!
//! The disk tier (default `results/.runcache/`) survives process restarts:
//! re-running an experiment after a crash or `^C` replays completed
//! simulations from disk and only executes the remainder. Control it with
//! `H2_RUNCACHE`: unset → default directory, a path → that directory,
//! `off`/`0` → memory-only.

use crate::key::job_key;
use crate::sweep::store::ShardedStore;
use h2_system::{run_scenario, run_sim_parts, Participants, PolicyKind, RunReport, SystemConfig};
use h2_trace::{Mix, TenantScenario};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// One simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// System configuration.
    pub cfg: SystemConfig,
    /// Workload mix (a placeholder for scenario jobs — see `scenario`).
    pub mix: Mix,
    /// Policy to run.
    pub kind: PolicyKind,
    /// Which sides run.
    pub parts: Participants,
    /// When set, the job runs this multi-tenant scenario instead of the
    /// mix; the scenario JSON is part of the cache key.
    pub scenario: Option<TenantScenario>,
}

impl Job {
    /// Convenience constructor for a Both-sides run.
    pub fn new(cfg: &SystemConfig, mix: &Mix, kind: PolicyKind) -> Self {
        Self {
            cfg: cfg.clone(),
            mix: mix.clone(),
            kind,
            parts: Participants::Both,
            scenario: None,
        }
    }

    /// A multi-tenant scenario job. The mix slot is filled with a fixed
    /// placeholder (C1) so report plumbing that expects a mix keeps
    /// working; the key distinguishes scenario jobs by their JSON.
    pub fn scenario(cfg: &SystemConfig, sc: &TenantScenario, kind: PolicyKind) -> Self {
        Self {
            cfg: cfg.clone(),
            mix: Mix::by_name("C1").expect("placeholder mix"),
            kind,
            parts: Participants::Both,
            scenario: Some(sc.clone()),
        }
    }

    /// Canonical cache key (stable across processes).
    pub fn key(&self) -> u128 {
        job_key(&self.cfg, &self.mix, self.kind, self.parts, self.scenario.as_ref())
    }
}

/// How one job of a [`RunCache::run_batch`] call was satisfied, as
/// reported to its `on_done` callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Provenance {
    /// Simulated in this batch, taking `wall_s` seconds on its worker.
    Executed {
        /// Wall-clock seconds the simulation took.
        wall_s: f64,
    },
    /// Replayed from the persistent tier.
    DiskHit,
}

/// Which tier a [`RunCache`] lookup hit.
#[derive(PartialEq)]
enum Tier {
    Memory,
    Disk,
}

/// Execute one job (scenario or mix), with the cache-level trace-sample
/// override applied (it never changes the key). Returns the report and
/// the wall-clock seconds it took.
fn execute(job: &Job, trace_sample: Option<u64>, verbose: bool) -> (RunReport, f64) {
    if verbose {
        eprintln!("[h2] running {} / {:?} / {:?}", job.mix.name, job.kind, job.parts);
    }
    let mut cfg = job.cfg.clone();
    if trace_sample.is_some() {
        cfg.trace_sample = trace_sample;
    }
    let t0 = Instant::now();
    let report = match &job.scenario {
        Some(sc) => run_scenario(&cfg, sc, job.kind),
        None => run_sim_parts(&cfg, &job.mix, job.kind, job.parts),
    };
    (report, t0.elapsed().as_secs_f64())
}

/// The default persistent-cache directory: `results/.runcache` under the
/// nearest ancestor that already has a `results/` dir or is a repo root —
/// so a process started in a crate directory (cargo's test and bench
/// runners use the package dir as CWD) shares one cache with the `h2` CLI
/// run from the workspace root.
pub(crate) fn default_cache_dir() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut at = cwd.as_path();
    loop {
        if at.join("results").is_dir() || at.join(".git").is_dir() {
            return at.join("results/.runcache");
        }
        match at.parent() {
            Some(p) => at = p,
            None => return cwd.join("results/.runcache"),
        }
    }
}

/// Resolve the persistent-cache directory the way [`RunCache::persistent`]
/// does: `H2_RUNCACHE` set to `off`/`0` disables the tier (`None`), any
/// other value overrides the directory, unset falls back to the default
/// workspace-root `results/.runcache`. The `h2 sweep` / `h2 cache`
/// subcommands use this so they always target the same store the
/// experiment harness populates.
pub fn resolve_cache_dir() -> Option<PathBuf> {
    match std::env::var("H2_RUNCACHE") {
        Ok(v) if v == "off" || v == "0" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => Some(default_cache_dir()),
    }
}

/// Filesystem-safe dump name for a run: `<mix>_<policy>_<key>.<ext>`.
fn dump_name(report: &RunReport, key: u128, ext: &str) -> String {
    let slug = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect()
    };
    format!("{}_{}_{:032x}.{ext}", slug(&report.mix), slug(&report.policy), key)
}

/// Memoising simulation runner with an optional persistent tier.
#[derive(Default)]
pub struct RunCache {
    map: HashMap<u128, RunReport>,
    disk: Option<ShardedStore>,
    /// Runs actually executed (missed both tiers).
    pub executed: usize,
    /// In-memory cache hits.
    pub hits: usize,
    /// Runs replayed from the persistent tier.
    pub disk_hits: usize,
    /// Duplicate jobs collapsed within `run_batch` calls.
    pub deduped: usize,
    /// Total simulator events across executed runs.
    pub sim_events: u64,
    /// Total wall-clock seconds spent inside executed simulations (summed
    /// across workers, so it can exceed elapsed time).
    pub sim_wall_s: f64,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// When set, every run entering the cache dumps its telemetry timeline
    /// as `<mix>_<policy>_<key>.json` into this directory.
    telemetry_dir: Option<PathBuf>,
    /// When set, every traced run entering the cache dumps its sampled
    /// spans as `<mix>_<policy>_<key>.trace.json` (Chrome Trace Event
    /// format) into this directory.
    trace_dir: Option<PathBuf>,
    /// When set, jobs execute with request tracing at this sample rate,
    /// and cached entries *without* spans count as misses (upgrade-on-miss:
    /// the run is re-executed traced and overwrites the untraced entry).
    /// Tracing never changes job keys — see `crate::key`.
    trace_sample: Option<u64>,
    /// Worker-pool size cap for `run_batch` (`h2 sweep --jobs N`). `None`
    /// uses the CPU count.
    jobs: Option<usize>,
}

impl RunCache {
    /// Memory-only cache (tests, throwaway runs).
    pub fn new() -> Self {
        Self {
            verbose: std::env::var("H2_VERBOSE").is_ok(),
            ..Self::default()
        }
    }

    /// Cache backed by the persistent tier. Honours `H2_RUNCACHE`:
    /// `off`/`0` disables the disk tier, any other value overrides the
    /// directory (default `results/.runcache` at the workspace root).
    /// Falls back to memory-only if the directory cannot be created.
    pub fn persistent() -> Self {
        let mut c = Self::new();
        let Some(dir) = resolve_cache_dir() else { return c };
        match ShardedStore::open(&dir) {
            Ok(t) => c.disk = Some(t),
            Err(e) => eprintln!("[h2] run cache disabled ({}: {e})", dir.display()),
        }
        c
    }

    /// Cache backed by an explicit directory (tests).
    pub fn with_disk_dir(dir: &Path) -> std::io::Result<Self> {
        let mut c = Self::new();
        c.disk = Some(ShardedStore::open(dir)?);
        Ok(c)
    }

    /// The sharded store behind the persistent tier, if any. The
    /// crash-consistency suite uses this to inject commit faults and read
    /// quarantine counters on the exact handle the cache writes through.
    pub fn disk_store(&self) -> Option<&ShardedStore> {
        self.disk.as_ref()
    }

    /// Cap the `run_batch` worker pool at `n` threads (`n = 1` forces
    /// sequential execution).
    pub fn set_jobs(&mut self, n: usize) {
        self.jobs = Some(n.max(1));
    }

    /// Worker threads a `run_batch` call with enough misses uses: the
    /// [`set_jobs`](Self::set_jobs) cap, else the CPU count.
    pub(crate) fn workers(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    }

    /// Dump every run's telemetry timeline into `dir` (created if needed)
    /// as it enters the cache — including runs replayed from disk.
    pub fn set_telemetry_dir(&mut self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        self.telemetry_dir = Some(dir.to_path_buf());
        Ok(())
    }

    /// Dump every traced run's spans into `dir` (created if needed) as
    /// Chrome Trace Event JSON — including runs replayed from disk.
    /// `sample` is the rate applied to runs that miss the cache.
    pub fn set_trace_dir(&mut self, dir: &Path, sample: u64) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        self.trace_dir = Some(dir.to_path_buf());
        self.trace_sample = Some(sample);
        Ok(())
    }

    /// Write one run's telemetry JSON (no-op when no dir is set or the run
    /// was executed with telemetry off).
    fn dump_telemetry(&self, key: u128, report: &RunReport) {
        let (Some(dir), Some(json)) = (&self.telemetry_dir, report.telemetry_json_string())
        else {
            return;
        };
        let path = dir.join(dump_name(report, key, "json"));
        if let Err(e) = fs::write(&path, json) {
            eprintln!("[h2] telemetry write failed ({}): {e}", path.display());
        }
    }

    /// Write one run's Perfetto trace (no-op when no dir is set or the run
    /// carries no spans).
    fn dump_trace(&self, key: u128, report: &RunReport) {
        let (Some(dir), Some(json)) = (&self.trace_dir, report.chrome_trace_json_string())
        else {
            return;
        };
        let path = dir.join(dump_name(report, key, "trace.json"));
        if let Err(e) = fs::write(&path, json) {
            eprintln!("[h2] trace write failed ({}): {e}", path.display());
        }
    }

    fn dump_all(&self, key: u128, report: &RunReport) {
        self.dump_telemetry(key, report);
        self.dump_trace(key, report);
    }

    /// Upgrade-on-miss rule: a cached report satisfies the request unless
    /// tracing is wanted and the entry was executed without it.
    fn satisfies_trace(&self, r: &RunReport) -> bool {
        self.trace_sample.is_none() || r.trace.is_some()
    }

    /// Look a key up in both tiers, promoting disk hits into memory.
    fn fetch(&mut self, key: u128) -> Option<Tier> {
        if self.map.get(&key).is_some_and(|r| self.satisfies_trace(r)) {
            self.hits += 1;
            return Some(Tier::Memory);
        }
        let r = self.disk.as_ref()?.load(key).filter(|r| self.satisfies_trace(r))?;
        self.disk_hits += 1;
        self.dump_all(key, &r);
        self.map.insert(key, r);
        Some(Tier::Disk)
    }

    /// Record a finished run in both tiers.
    fn admit(&mut self, key: u128, report: RunReport) {
        self.executed += 1;
        self.sim_events += report.events_processed;
        self.sim_wall_s += report.wall_s;
        if self.verbose {
            eprintln!(
                "[h2]   done in {:.1}s ({} events, {:.2} Mev/s)",
                report.wall_s,
                report.events_processed,
                report.events_per_sec / 1e6
            );
        }
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(key, &report) {
                eprintln!("[h2] run cache write failed: {e}");
            }
        }
        self.dump_all(key, &report);
        self.map.insert(key, report);
    }

    /// Run (or fetch) a single job: a one-job [`run_batch`](Self::run_batch).
    pub fn run(&mut self, job: &Job) -> RunReport {
        let mut reports = self.run_batch(std::slice::from_ref(job), |_, _, _| {});
        reports.pop().expect("one job, one report")
    }

    /// Run a batch of jobs and return their reports in job order.
    ///
    /// Identical jobs are collapsed so each distinct key is simulated at
    /// most once per batch; tier hits are served first, then the misses
    /// run on a pool of threads (the [`set_jobs`](Self::set_jobs) cap, else
    /// the CPU count) that pull the next job index from a shared counter. `on_done(i, provenance,
    /// report)` fires on the calling thread once per disk hit and once per
    /// executed job (`i` indexes `jobs`, at its first occurrence), always
    /// *after* the report is admitted to both tiers, so completion implies
    /// durability. Memory hits and duplicates fire no callback.
    pub fn run_batch(
        &mut self,
        jobs: &[Job],
        mut on_done: impl FnMut(usize, Provenance, &RunReport),
    ) -> Vec<RunReport> {
        let keys: Vec<u128> = jobs.iter().map(Job::key).collect();
        let mut pending = HashSet::new();
        let mut misses: Vec<usize> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if pending.contains(&key) {
                self.deduped += 1;
            } else if let Some(tier) = self.fetch(key) {
                if tier == Tier::Disk {
                    on_done(i, Provenance::DiskHit, &self.map[&key]);
                }
            } else {
                pending.insert(key);
                misses.push(i);
            }
        }

        let (trace_sample, verbose) = (self.trace_sample, self.verbose);
        let workers = match misses.len() {
            0 | 1 => 1,
            n => self.workers().min(n),
        };
        if workers == 1 {
            for &i in &misses {
                let (report, wall_s) = execute(&jobs[i], trace_sample, verbose);
                self.admit(keys[i], report);
                on_done(i, Provenance::Executed { wall_s }, &self.map[&keys[i]]);
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            let misses = &misses;
            std::thread::scope(|s| {
                for _ in 0..workers {
                    let (tx, next) = (tx.clone(), &next);
                    s.spawn(move || {
                        while let Some(&i) = misses.get(next.fetch_add(1, Ordering::Relaxed)) {
                            if tx.send((i, execute(&jobs[i], trace_sample, verbose))).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, (report, wall_s)) in rx {
                    self.admit(keys[i], report);
                    on_done(i, Provenance::Executed { wall_s }, &self.map[&keys[i]]);
                }
            });
        }
        keys.iter().map(|k| self.map[k].clone()).collect()
    }

    /// The report cached in memory under `key`, without counting a hit.
    pub(crate) fn get(&self, key: u128) -> Option<&RunReport> {
        self.map.get(&key)
    }

    /// One-line summary of cache activity for CLI output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} executed, {} memory hits, {} disk hits, {} deduped",
            self.executed, self.hits, self.disk_hits, self.deduped
        );
        if self.sim_wall_s > 0.0 {
            s.push_str(&format!(
                "; {:.2}M events at {:.2} Mev/s aggregate",
                self.sim_events as f64 / 1e6,
                self.sim_events as f64 / self.sim_wall_s / 1e6
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(kind: PolicyKind) -> Job {
        Job::new(&SystemConfig::tiny(), &Mix::by_name("C1").unwrap(), kind)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("h2-cache-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn caches_identical_jobs() {
        let mut c = RunCache::new();
        let j = tiny_job(PolicyKind::NoPart);
        let a = c.run(&j);
        let executed_after_first = c.executed;
        let b = c.run(&j);
        assert_eq!(c.executed, executed_after_first, "second call cached");
        assert_eq!(c.hits, 1);
        assert_eq!(a.cpu_instr, b.cpu_instr);
    }

    #[test]
    fn distinct_policies_distinct_keys() {
        let a = tiny_job(PolicyKind::NoPart).key();
        let b = tiny_job(PolicyKind::HydrogenFull).key();
        assert_ne!(a, b);
    }

    #[test]
    fn batch_returns_in_order() {
        let mut c = RunCache::new();
        let jobs = vec![tiny_job(PolicyKind::NoPart), tiny_job(PolicyKind::WayPart)];
        let rs = c.run_batch(&jobs, |_, _, _| {});
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].policy, "Baseline");
        assert_eq!(rs[1].policy, "WayPart");
    }

    #[test]
    fn batch_dedups_identical_jobs() {
        let mut c = RunCache::new();
        let j = tiny_job(PolicyKind::NoPart);
        let rs = c.run_batch(&[j.clone(), j.clone(), j.clone(), tiny_job(PolicyKind::WayPart)], |_, _, _| {});
        assert_eq!(rs.len(), 4);
        assert_eq!(c.executed, 2, "duplicates collapsed before dispatch");
        assert_eq!(c.deduped, 2);
        assert_eq!(rs[0].cpu_instr, rs[1].cpu_instr);
        assert_eq!(rs[0].cpu_instr, rs[2].cpu_instr);
    }

    #[test]
    fn jobs_one_forces_sequential_batches() {
        let mut c = RunCache::new();
        c.set_jobs(1);
        let jobs = vec![tiny_job(PolicyKind::NoPart), tiny_job(PolicyKind::WayPart)];
        let rs = c.run_batch(&jobs, |_, _, _| {});
        assert_eq!(rs.len(), 2);
        assert_eq!(c.executed, 2);
        assert_eq!(rs[0].policy, "Baseline");
        assert_eq!(rs[1].policy, "WayPart");
    }

    fn seeded_jobs(n: u64) -> Vec<Job> {
        (0..n)
            .map(|seed| {
                let mut cfg = SystemConfig::tiny();
                cfg.seed = seed;
                Job::new(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::NoPart)
            })
            .collect()
    }

    #[test]
    fn batch_order_and_callbacks_are_independent_of_workers() {
        let batch = seeded_jobs(6);
        let mut seq_cache = RunCache::new();
        seq_cache.set_jobs(1);
        let seq = seq_cache.run_batch(&batch, |_, _, _| {});
        for workers in [1, 2, 4] {
            let mut c = RunCache::new();
            c.set_jobs(workers);
            let mut seen = vec![0; batch.len()];
            let par = c.run_batch(&batch, |i, source, r| {
                assert!(matches!(source, Provenance::Executed { wall_s } if wall_s >= 0.0));
                assert_eq!(r.cpu_instr, seq[i].cpu_instr, "callback carries job {i}'s report");
                seen[i] += 1;
            });
            assert_eq!(seen, vec![1; batch.len()], "on_done fires once per job");
            assert_eq!(c.executed, 6);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.cpu_instr, b.cpu_instr, "workers={workers}");
                assert_eq!(a.epoch_trace, b.epoch_trace, "workers={workers}");
            }
        }
    }

    #[test]
    fn executed_jobs_are_durable_before_on_done() {
        let dir = tmp_dir("durable");
        let batch = seeded_jobs(3);
        let mut c = RunCache::with_disk_dir(&dir).unwrap();
        c.set_jobs(2);
        // A second handle on the same store: "anyone else" reading it.
        let reader = ShardedStore::open(&dir).unwrap();
        c.run_batch(&batch, |i, source, _| {
            assert!(matches!(source, Provenance::Executed { .. }));
            assert!(reader.load(batch[i].key()).is_some(), "job {i} published before on_done");
        });
        assert_eq!(c.executed, 3);
        let mut warm = RunCache::with_disk_dir(&dir).unwrap();
        warm.set_jobs(2);
        let mut disk = 0;
        let rs = warm.run_batch(&batch, |_, source, _| {
            assert_eq!(source, Provenance::DiskHit);
            disk += 1;
        });
        assert_eq!((disk, warm.executed, warm.disk_hits, rs.len()), (3, 0, 3, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_jobs_clamps_zero_to_one() {
        let mut c = RunCache::new();
        c.set_jobs(0);
        assert_eq!(c.jobs, Some(1));
    }

    #[test]
    fn participants_in_key() {
        let mut j = tiny_job(PolicyKind::NoPart);
        let k1 = j.key();
        j.parts = Participants::CpuOnly;
        assert_ne!(k1, j.key());
    }

    #[test]
    fn persistent_tier_survives_restart() {
        let dir = tmp_dir("restart");
        let j = tiny_job(PolicyKind::NoPart);
        let first = {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            let r = c.run(&j);
            assert_eq!(c.executed, 1);
            r
        };
        // "New process": fresh in-memory map, same directory.
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        let again = c2.run(&j);
        assert_eq!(c2.executed, 0, "replayed from disk, not re-simulated");
        assert_eq!(c2.disk_hits, 1);
        assert_eq!(again.cpu_instr, first.cpu_instr);
        assert_eq!(again.epoch_trace, first.epoch_trace);

        // A batch over the same job also comes from disk.
        let mut c3 = RunCache::with_disk_dir(&dir).unwrap();
        let rs = c3.run_batch(&[j.clone(), j.clone()], |_, _, _| {});
        assert_eq!(c3.executed, 0);
        assert_eq!(c3.disk_hits, 1);
        // The duplicate lands after the disk promotion, so it counts as a
        // memory hit rather than a dedup.
        assert_eq!(c3.deduped, 0);
        assert_eq!(c3.hits, 1);
        assert_eq!(rs[0].cpu_instr, first.cpu_instr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_replay_upgrades_untraced_entries() {
        let dir = tmp_dir("trace-upgrade");
        let trace_dir = tmp_dir("trace-out");
        let j = tiny_job(PolicyKind::NoPart);
        {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            let r = c.run(&j);
            assert_eq!(c.executed, 1);
            assert!(r.trace.is_none());
        }
        // Traced replay: the untraced disk entry is a miss, so the run is
        // re-executed with spans and dumped as a Perfetto trace.
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        c2.set_trace_dir(&trace_dir, 4).unwrap();
        let r = c2.run(&j);
        assert_eq!(c2.executed, 1, "untraced entry upgraded");
        assert!(r.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
        assert_eq!(std::fs::read_dir(&trace_dir).unwrap().count(), 1);
        // The traced entry now serves both traced requests (replaying the
        // trace dump from disk)...
        let _ = std::fs::remove_dir_all(&trace_dir);
        let mut c3 = RunCache::with_disk_dir(&dir).unwrap();
        c3.set_trace_dir(&trace_dir, 4).unwrap();
        c3.run(&j);
        assert_eq!(c3.executed, 0);
        assert_eq!(c3.disk_hits, 1);
        assert_eq!(std::fs::read_dir(&trace_dir).unwrap().count(), 1);
        // ...and plain untraced requests.
        let mut c4 = RunCache::with_disk_dir(&dir).unwrap();
        let r = c4.run(&j);
        assert_eq!(c4.executed, 0);
        assert_eq!(c4.disk_hits, 1);
        assert!(r.trace.is_some(), "cached spans ride along harmlessly");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn batch_upgrades_untraced_entries_too() {
        let dir = tmp_dir("trace-batch");
        let j = tiny_job(PolicyKind::NoPart);
        {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            c.run_batch(std::slice::from_ref(&j), |_, _, _| {});
            assert_eq!(c.executed, 1);
        }
        let trace_dir = tmp_dir("trace-batch-out");
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        c2.set_trace_dir(&trace_dir, 4).unwrap();
        let rs = c2.run_batch(&[j.clone(), j.clone()], |_, _, _| {});
        assert_eq!(c2.executed, 1, "batch re-executes the untraced entry");
        assert!(rs.iter().all(|r| r.trace.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn version_bump_invalidates_persisted_runs() {
        let dir = tmp_dir("inval");
        let j = tiny_job(PolicyKind::NoPart);
        {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            c.run(&j);
        }
        std::fs::write(dir.join("VERSION"), "schema0+v0.0.0").unwrap();
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        c2.run(&j);
        assert_eq!(c2.executed, 1, "stale cache wiped; run re-executed");
        assert_eq!(c2.disk_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
