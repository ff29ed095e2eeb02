//! `h2 sweep` — the experiment campaign engine.
//!
//! Takes a first-class JSON sweep spec ([`spec::SweepSpec`]): parameter
//! grids, seeded random search, or a hill-climb over a named report
//! metric. Expands it into jobs and runs each batch through the one job
//! executor, [`RunCache::run_batch`] (deduplication by u128 cache key,
//! the sharded crash-safe run store [`store::ShardedStore`], a worker
//! pool), streams JSONL progress as jobs finish, and ends with a summary
//! table (stdout + `results/sweeps/<name>.csv`).
//!
//! The summary table contains only deterministic fields (parameters, mix,
//! policy, key, metrics) in expansion order, so a warm re-run — any worker
//! count, any completion order, any cache state — renders byte-identically.
//! Wall-clock and hit/miss provenance live only in the JSONL progress
//! stream and the *timing* table (`sweep_<name>_timing.csv`, completion
//! order), both of which are allowed to differ between runs.

pub mod spec;
pub mod store;

use crate::cache::{Provenance, RunCache};
use crate::table::Table;
use crate::take_flag;
use h2_system::RunReport;
use spec::{Search, SweepPoint, SweepSpec};
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Everything one sweep run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The summary table (deterministic; see module docs).
    pub table: Table,
    /// Per-job wall-clock and cache provenance, in completion order
    /// (non-deterministic by design; never compare bytes across runs).
    pub timing: Table,
    /// Points visited, in expansion order.
    pub points: usize,
    /// Total jobs implied by the spec (points × mixes × policies).
    pub jobs: usize,
    /// Distinct job keys among them.
    pub unique: usize,
    /// Duplicate jobs collapsed before dispatch (`jobs - unique`).
    pub deduped: usize,
    /// Jobs simulated.
    pub executed: usize,
    /// Jobs replayed from the persistent store.
    pub disk_hits: usize,
}

impl SweepOutcome {
    /// The one-line stderr summary (`grep`-able: "0 executed" on a fully
    /// warm re-run).
    pub fn summary_line(&self) -> String {
        format!(
            "{} points, {} jobs ({} unique, {} deduped): {} executed, {} disk hits",
            self.points, self.jobs, self.unique, self.deduped, self.executed, self.disk_hits
        )
    }
}

/// The JSONL progress stream and the timing rows, fed one finished job at
/// a time.
struct Progress<'a> {
    sink: &'a mut dyn Write,
    /// Rows for the timing table, appended in completion order.
    timing_rows: Vec<Vec<String>>,
    /// Worker-side wall seconds summed over executed jobs.
    exec_wall_s: f64,
}

impl Progress<'_> {
    /// JSONL progress events are best-effort: a full disk must not kill a
    /// half-finished campaign whose results are safely in the store.
    fn emit(&mut self, line: &str) {
        let _ = writeln!(self.sink, "{line}");
    }

    fn job_done(&mut self, key: u128, point: &SweepPoint, source: Provenance, report: &RunReport) {
        let (source, wall_s) = match source {
            Provenance::Executed { wall_s } => ("executed", wall_s),
            Provenance::DiskHit => ("disk", 0.0),
        };
        let mut params = h2_sim_core::Json::obj();
        for (n, v) in &point.params {
            params = params.field(n, *v);
        }
        let event = h2_sim_core::Json::obj()
            .field("event", "job")
            .field("key", format!("{key:032x}").as_str())
            .field("mix", report.mix.as_str())
            .field("policy", report.policy.as_str())
            .field("params", params)
            .field("source", source)
            .field("weighted_ipc", report.weighted_ipc())
            .field("wall_s", wall_s)
            .field("events", report.events_processed)
            .field("events_per_sec", report.events_per_sec);
        self.emit(&event.to_string_compact());
        self.exec_wall_s += wall_s;
        self.timing_rows.push(vec![
            format!("{key:032x}"),
            report.mix.clone(),
            report.policy.clone(),
            source.to_string(),
            format!("{wall_s:.6}"),
            report.events_processed.to_string(),
            format!("{:.0}", report.events_per_sec),
        ]);
    }
}

/// Shared state threaded through expansion: the run cache every batch
/// goes through, the job count, and the progress sink.
struct Engine<'a> {
    spec: &'a SweepSpec,
    cache: &'a mut RunCache,
    metric: String,
    jobs: usize,
    progress: Progress<'a>,
}

impl Engine<'_> {
    /// Run every job of `points` as one [`RunCache::run_batch`] and return
    /// the per-point mean of the target metric (the hill-climb objective;
    /// ignored for grid/random).
    fn run_points(&mut self, points: &[SweepPoint]) -> Result<Vec<f64>, String> {
        let mut batch = Vec::new();
        let mut batch_point: Vec<usize> = Vec::new(); // batch idx → point idx
        for (pi, point) in points.iter().enumerate() {
            let jobs = self.spec.jobs_for_point(point)?;
            batch_point.extend(std::iter::repeat_n(pi, jobs.len()));
            batch.extend(jobs);
        }
        self.jobs += batch.len();
        let progress = &mut self.progress;
        let reports = self.cache.run_batch(&batch, |i, source, report| {
            progress.job_done(batch[i].key(), &points[batch_point[i]], source, report);
        });

        // Per-point objective: mean of the metric over its mix×policy jobs.
        let mut sums = vec![(0.0, 0usize); points.len()];
        for (r, &pi) in reports.iter().zip(&batch_point) {
            sums[pi].0 += r
                .metric(&self.metric)
                .ok_or_else(|| format!("unknown metric '{}'", self.metric))?;
            sums[pi].1 += 1;
        }
        Ok(sums.iter().map(|&(sum, n)| sum / n.max(1) as f64).collect())
    }
}

/// Run a sweep: expand, execute, stream progress, summarise.
///
/// Every job goes through `cache` (its persistent tier, if any, and its
/// [`RunCache::set_jobs`] worker cap); `progress` receives one JSON object
/// per line (a `spec` header, a `job` event per executed or disk-replayed
/// job, a `summary` trailer).
pub fn run_sweep(
    spec: &SweepSpec,
    cache: &mut RunCache,
    progress: &mut dyn Write,
) -> Result<SweepOutcome, String> {
    spec.validate()?;
    let metric = match &spec.search {
        Search::HillClimb { metric, .. } => metric.clone(),
        _ => "weighted_ipc".to_string(),
    };
    let (executed0, disk_hits0) = (cache.executed, cache.disk_hits);
    let mut engine = Engine {
        spec,
        cache,
        metric: metric.clone(),
        jobs: 0,
        progress: Progress { sink: progress, timing_rows: Vec::new(), exec_wall_s: 0.0 },
    };
    let t0 = std::time::Instant::now();
    let header = h2_sim_core::Json::obj()
        .field("event", "spec")
        .field("name", spec.name.as_str())
        .field("kind", spec.kind())
        .field("mixes", spec.mixes.len() as u64)
        .field("policies", spec.policies.len() as u64);
    engine.progress.emit(&header.to_string_compact());

    // Hill-climb drives execution through the evaluator; grid/random
    // expand statically and then run as one batch.
    let points = if matches!(spec.search, Search::HillClimb { .. }) {
        spec.expand(&mut |ps| engine.run_points(ps))?
    } else {
        let points = spec.expand(&mut |_| Err("static searches never evaluate".into()))?;
        engine.run_points(&points)?;
        points
    };

    // Deterministic summary table, in expansion order.
    let axes: Vec<&str> = spec.search.params().iter().map(|a| a.name.as_str()).collect();
    let mut header: Vec<&str> = axes.clone();
    header.extend(["mix", "policy", "key", "weighted_ipc"]);
    if metric != "weighted_ipc" {
        header.push(metric.as_str());
    }
    let mut table = Table::new(
        &format!("sweep_{}", spec.name),
        &format!("Sweep '{}' ({})", spec.name, spec.kind()),
        &header,
    );
    let mut unique: HashSet<u128> = HashSet::new();
    for point in &points {
        for job in spec.jobs_for_point(point)? {
            let key = job.key();
            unique.insert(key);
            let r = engine.cache.get(key).expect("every swept job is cached in memory");
            let mut row: Vec<String> =
                point.params.iter().map(|(_, v)| v.to_string()).collect();
            row.push(r.mix.clone());
            row.push(r.policy.clone());
            row.push(format!("{key:032x}"));
            row.push(r.weighted_ipc().to_string());
            if metric != "weighted_ipc" {
                row.push(
                    r.metric(&metric)
                        .ok_or_else(|| format!("unknown metric '{metric}'"))?
                        .to_string(),
                );
            }
            table.row(row);
        }
    }

    // Per-job provenance table: completion order, never deterministic.
    let mut timing = Table::new(
        &format!("sweep_{}_timing", spec.name),
        &format!("Sweep '{}' per-job timing and provenance", spec.name),
        &["key", "mix", "policy", "source", "wall_s", "events", "events_per_sec"],
    );
    for row in std::mem::take(&mut engine.progress.timing_rows) {
        timing.row(row);
    }

    let outcome = SweepOutcome {
        table,
        timing,
        points: points.len(),
        jobs: engine.jobs,
        unique: unique.len(),
        deduped: engine.jobs - unique.len(),
        executed: engine.cache.executed - executed0,
        disk_hits: engine.cache.disk_hits - disk_hits0,
    };
    let trailer = h2_sim_core::Json::obj()
        .field("event", "summary")
        .field("points", outcome.points as u64)
        .field("jobs", outcome.jobs as u64)
        .field("unique", outcome.unique as u64)
        .field("deduped", outcome.deduped as u64)
        .field("executed", outcome.executed as u64)
        .field("disk_hits", outcome.disk_hits as u64)
        .field("wall_s", t0.elapsed().as_secs_f64())
        .field("exec_wall_s", engine.progress.exec_wall_s);
    engine.progress.emit(&trailer.to_string_compact());
    Ok(outcome)
}

/// Parse a byte budget: plain bytes or a `K`/`M`/`G` suffix (powers of
/// 1024).
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map_err(|_| format!("bad byte count '{s}' (use N, NK, NM or NG)"))
        .map(|n| n.saturating_mul(mult))
}

const SWEEP_USAGE: &str = "usage: h2 sweep <spec.json> [--out FILE] [--jobs N]";

/// Parsed `h2 sweep` arguments: the spec path, `--out` and `--jobs`.
fn parse_sweep_args(args: &[String]) -> Result<(String, Option<PathBuf>, Option<usize>), String> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?.map(PathBuf::from);
    let jobs = match take_flag(&mut args, "--jobs")? {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(0) => return Err("--jobs must be > 0 (zero workers run nothing)".into()),
            Ok(n) => Some(n),
            Err(_) => return Err(format!("--jobs needs an unsigned integer, got '{v}'")),
        },
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown argument '{flag}' ({SWEEP_USAGE})"));
    }
    match args.as_slice() {
        [spec_path] => Ok((spec_path.clone(), out, jobs)),
        _ => Err(SWEEP_USAGE.into()),
    }
}

/// `h2 sweep <spec.json> [--out FILE] [--jobs N]` — run a sweep campaign.
///
/// Progress streams as JSONL to `--out` (default
/// `results/sweeps/<name>.jsonl`); the summary table prints to stdout and
/// lands in `results/sweeps/sweep_<name>.csv`, with per-job wall-clock and
/// cache provenance beside it in `results/sweeps/sweep_<name>_timing.csv`.
/// `--jobs N` caps the worker pool (default: the CPU count).
pub fn cmd_sweep(args: &[String]) -> i32 {
    let (spec_path, out, jobs) = match parse_sweep_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {spec_path}: {e}");
            return 2;
        }
    };
    let spec = match SweepSpec::parse(&text).and_then(|s| s.validate().map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return 2;
        }
    };

    let mut cache = RunCache::persistent();
    if let Some(n) = jobs {
        cache.set_jobs(n);
    }

    let sweeps_dir = Path::new("results/sweeps");
    let out = out.unwrap_or_else(|| sweeps_dir.join(format!("{}.jsonl", spec.name)));
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut progress: Box<dyn Write> = match std::fs::File::create(&out) {
        Ok(f) => Box::new(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("cannot create {}: {e}", out.display());
            return 2;
        }
    };

    let t0 = std::time::Instant::now();
    let outcome = match run_sweep(&spec, &mut cache, &mut progress) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep '{}' failed: {e}", spec.name);
            return 1;
        }
    };
    if let Err(e) = progress.flush() {
        eprintln!("[h2 sweep] progress flush failed: {e}");
    }
    println!("{}", outcome.table.render());
    match outcome.table.write_csv(sweeps_dir) {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    match outcome.timing.write_csv(sweeps_dir) {
        Ok(p) => println!("timing: {}", p.display()),
        Err(e) => eprintln!("timing csv write failed: {e}"),
    }
    println!("progress: {}", out.display());
    eprintln!(
        "[h2 sweep] {} in {:.1}s ({} workers)",
        outcome.summary_line(),
        t0.elapsed().as_secs_f64(),
        cache.workers()
    );
    0
}

/// `h2 cache stats|gc` — inspect and size-bound the persistent run store.
pub fn cmd_cache(args: &[String]) -> i32 {
    let mut args: Vec<String> = args.to_vec();
    let (dir, max_bytes) = match (take_flag(&mut args, "--dir"), take_flag(&mut args, "--max-bytes")) {
        (Ok(dir), Ok(max_bytes)) => (dir, max_bytes),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = dir.map(PathBuf::from).or_else(crate::cache::resolve_cache_dir);
    let Some(dir) = dir else {
        eprintln!("run cache is disabled (H2_RUNCACHE=off); pass --dir to target one");
        return 2;
    };
    let usage = || {
        eprintln!("usage: h2 cache stats [--dir D] | h2 cache gc --max-bytes N[K|M|G] [--dir D]");
        2
    };
    match args.first().map(|s| s.as_str()) {
        Some("stats") if args.len() == 1 => {
            let store = match store::ShardedStore::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open {}: {e}", dir.display());
                    return 1;
                }
            };
            let s = store.stats();
            println!("dir:         {}", dir.display());
            println!("entries:     {}", s.entries);
            println!("bytes:       {}", s.bytes);
            println!("quarantined: {}", s.quarantined);
            println!("tmp files:   {}", s.tmp_files);
            0
        }
        Some("gc") if args.len() == 1 => {
            let Some(max_bytes) = max_bytes else {
                eprintln!("h2 cache gc needs --max-bytes N[K|M|G]");
                return 2;
            };
            let budget = match parse_bytes(&max_bytes) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            let store = match store::ShardedStore::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open {}: {e}", dir.display());
                    return 1;
                }
            };
            match store.gc(budget, store::STALE_TMP) {
                Ok(r) => {
                    println!(
                        "evicted {} of {} entries ({} -> {} bytes); removed {} quarantined, {} stale tmp",
                        r.evicted, r.examined, r.bytes_before, r.bytes_after,
                        r.bad_removed, r.tmp_removed
                    );
                    0
                }
                Err(e) => {
                    eprintln!("gc failed: {e}");
                    1
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_spec(name: &str) -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{
              "name": "{name}",
              "scale": "tiny",
              "mixes": ["C1"],
              "policies": ["NoPart", "WayPart"],
              "search": {{"kind": "grid", "params": {{"seed": [1, 2, 3]}}}}
            }}"#,
        ))
        .unwrap()
    }

    fn memory_cache(workers: usize) -> RunCache {
        let mut cache = RunCache::new();
        cache.set_jobs(workers);
        cache
    }

    /// A fresh cache over the store at `dir`, as a new process opens it.
    fn disk_cache(dir: &Path, workers: usize) -> RunCache {
        let mut cache = RunCache::with_disk_dir(dir).unwrap();
        cache.set_jobs(workers);
        cache
    }

    #[test]
    fn grid_sweep_runs_and_summarises() {
        let spec = grid_spec("unit");
        let mut jsonl = Vec::new();
        let out = run_sweep(&spec, &mut memory_cache(2), &mut jsonl).unwrap();
        assert_eq!(out.points, 3);
        assert_eq!(out.jobs, 6);
        assert_eq!(out.unique, 6);
        assert_eq!(out.executed, 6);
        assert_eq!(out.table.rows.len(), 6);
        let text = String::from_utf8(jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "spec + 6 jobs + summary");
        assert!(lines[0].contains("\"event\":\"spec\""));
        assert!(lines.last().unwrap().contains("\"executed\":6"));
        for line in &lines {
            h2_sim_core::Json::parse(line).expect("every progress line is valid JSON");
        }
    }

    #[test]
    fn timing_table_carries_wall_clock_and_provenance() {
        let spec = grid_spec("timing");
        let mut jsonl = Vec::new();
        let out = run_sweep(&spec, &mut memory_cache(2), &mut jsonl).unwrap();
        assert_eq!(out.timing.rows.len(), 6, "one timing row per unique job");
        assert_eq!(
            out.timing.header,
            ["key", "mix", "policy", "source", "wall_s", "events", "events_per_sec"]
        );
        for row in &out.timing.rows {
            assert_eq!(row[3], "executed", "no cache tier in this run");
            assert!(row[4].parse::<f64>().unwrap() >= 0.0);
            assert!(row[5].parse::<u64>().unwrap() > 0, "events: {row:?}");
        }
        // Job events and the trailer carry the same provenance fields.
        let text = String::from_utf8(jsonl).unwrap();
        let job = text.lines().nth(1).unwrap();
        assert!(job.contains("\"events\":"), "job event: {job}");
        assert!(job.contains("\"events_per_sec\":"), "job event: {job}");
        let trailer = text.lines().last().unwrap();
        assert!(trailer.contains("\"wall_s\":"), "trailer: {trailer}");
        assert!(trailer.contains("\"exec_wall_s\":"), "trailer: {trailer}");
    }

    #[test]
    fn warm_rerun_is_fully_cached_and_byte_identical() {
        let dir = std::env::temp_dir().join(format!("h2-sweep-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = grid_spec("warm");
        let cold = run_sweep(&spec, &mut disk_cache(&dir, 2), &mut Vec::new()).unwrap();
        assert_eq!(cold.executed, 6);
        for workers in [1, 3] {
            let warm = run_sweep(&spec, &mut disk_cache(&dir, workers), &mut Vec::new()).unwrap();
            assert_eq!(warm.executed, 0, "workers={workers}");
            assert_eq!(warm.disk_hits, 6);
            assert!(
                warm.timing.rows.iter().all(|r| r[3] == "disk"),
                "warm timing rows carry disk provenance"
            );
            assert_eq!(warm.table.render(), cold.table.render(), "byte-identical summary");
            assert_eq!(warm.table.to_csv(), cold.table.to_csv());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hillclimb_sweep_executes_through_the_evaluator() {
        let mut spec = grid_spec("climb");
        spec.search = spec::Search::HillClimb {
            metric: "measured_cycles".into(),
            goal: spec::Goal::Max,
            seed: 3,
            max_steps: 4,
            params: vec![spec::Axis { name: "seed".into(), values: vec![1, 2, 3, 4] }],
        };
        let mut jsonl = Vec::new();
        let out = run_sweep(&spec, &mut memory_cache(2), &mut jsonl).unwrap();
        assert!(out.points >= 2, "start plus at least one neighbour batch");
        assert_eq!(out.executed, out.unique);
        // measured_cycles is a fixed window: every point scores the same,
        // so the climb stops after its first neighbour batch.
        let text = String::from_utf8(jsonl).unwrap();
        assert!(text.lines().last().unwrap().contains("\"event\":\"summary\""));
        // The metric column is present alongside weighted_ipc.
        assert!(out.table.header.iter().any(|h| h == "measured_cycles"));
    }

    #[test]
    fn scenario_sweeps_run_the_scenario_not_the_placeholder_mix() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "sc",
              "scale": "tiny",
              "policies": ["NoPart"],
              "base": {"warmup_cycles": 50000, "measure_cycles": 100000},
              "scenario": {
                "name": "pair",
                "seed": 3,
                "tenants": [
                  {"name": "svc", "priority": 0, "cores": 1, "ctxs": 0,
                   "cpu": ["gcc"], "gpu": [],
                   "arrival": {"kind": "steady"}, "start": 0,
                   "stop": null, "phase_cycles": null},
                  {"name": "ml", "priority": 1, "cores": 0, "ctxs": 1,
                   "cpu": [], "gpu": ["backprop"],
                   "arrival": {"kind": "bursty", "on": 2000, "off": 1000},
                   "start": 0, "stop": null, "phase_cycles": null}
                ]
              },
              "search": {"kind": "grid", "params": {"scenario_seed": [1, 2]}}
            }"#,
        )
        .unwrap();
        let mut cache = memory_cache(2);
        let out = run_sweep(&spec, &mut cache, &mut Vec::new()).unwrap();
        assert_eq!(out.executed, 2);
        let points = spec.expand(&mut |_| unreachable!()).unwrap();
        let mut swept = Vec::new();
        for point in &points {
            let [job] = spec.jobs_for_point(point).unwrap().try_into().unwrap();
            let r = cache.get(job.key()).unwrap().clone();
            assert!(!r.tenants.is_empty(), "a scenario run reports per-tenant SLOs");
            // The same job run on its own gives the same report.
            let alone = RunCache::new().run(&job);
            assert_eq!(r.weighted_ipc(), alone.weighted_ipc());
            assert_eq!(r.events_processed, alone.events_processed);
            assert_eq!(r.tenants, alone.tenants);
            swept.push(r);
        }
        assert_ne!(swept[0].weighted_ipc(), swept[1].weighted_ipc(), "seeds differ");
        assert_ne!(swept[0].events_processed, swept[1].events_processed);
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("2K").unwrap(), 2048);
        assert_eq!(parse_bytes("3m").unwrap(), 3 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("x").is_err());
        assert!(parse_bytes("12Q").is_err());
    }
}
