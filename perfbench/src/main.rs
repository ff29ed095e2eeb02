//! The benchmark of record for the Hydrogen reproduction.
//!
//! Three workloads, each a job users actually run, driven through the
//! public functions of the simulator crates:
//!
//! - `deepq`: one quick-profile simulation of mix C5 under `NoPart`
//!   (`run_sim`). Deep DRAM queues: the `mem` layer does most of the work.
//! - `tenants`: the committed three-tenant scenario on the tiny machine
//!   under `HydrogenFull` (`run_scenario`), telemetry on and every 64th
//!   demand read span-traced. Shallow queues: time goes to the event queue,
//!   the HMC, the policy and the observation layers.
//! - `fig10`: the whole Fig 10 experiment at `Profile::Quick` through
//!   `run_experiment` on a cold run store, then again from the warm store.
//!   The only workload with the `harness` layer on its critical path.
//!
//! Passes run in a closed loop (each starts when the previous one ends)
//! until the next one would overrun `--seconds`. With `--trace 0` every
//! pass is untraced and the end-to-end metrics are reported. With
//! `--trace 1` untraced and profiled passes alternate, and the per-layer
//! metrics come from the profiled ones (`h2_sim_core::prof`, armed from
//! here, plus `bench.*` spans this file opens around each public call).
//!
//! Every pass's simulated output is checked: a digest of the model's
//! counters must be the same on every pass (untraced or traced, simulated
//! or replayed from the store) and, where `expected.json` records one for
//! the seed, equal to it; Fig 10's tables must be byte-identical to the
//! committed `results/fig10*.csv`.
//!
//! The last line of standard output is one JSON object (see `run.py`,
//! which builds this binary, runs it and adds host provenance).

mod host;
mod layers;
mod spans;

use h2_harness::cache::Job;
use h2_harness::{run_experiment, Profile, RunCache, Table};
use h2_sim_core::{prof, Json};
use h2_system::{
    plan_from_workloads, run_scenario, run_sim, scenario_config, scenario_plan, PolicyKind,
    RunReport, SystemConfig,
};
use h2_trace::{Mix, RefSource, TenantScenario};
use host::{median, quantile, timed, Timed};
use layers::{LayerProfile, LAYERS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed whose outputs `expected.json` pins (the simulator's own
/// default experiment seed).
const DEFAULT_SEED: u64 = 42;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Store replays after each untraced `deepq`/`tenants` pass: the same job
/// answered from the warm store.
const REPLAYS: usize = 5;
/// Warm replays of the whole experiment after each `fig10` cold pass (a
/// run holds one or two cold passes, so each needs more replays).
const FIG10_REPLAYS: usize = 15;
/// References pulled per repetition for `trace.pull.ns_per_ref`.
const PULL_REFS: usize = 1 << 21;
/// Committed scenario the `tenants` workload runs.
const SCENARIO: &str = "examples/scenarios/inference_hpc_analytics.json";
/// Measured window of the `tenants` workload, in cycles.
const TENANTS_MEASURE_CYCLES: u64 = 4_000_000;
/// Fig 10's committed tables.
const FIG10_CSVS: [&str; 2] = ["fig10a_weights", "fig10b_cores"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Checkout root: where `results/`, `examples/` and `perfbench/` live.
    root: PathBuf,
    /// Empty directory for run stores and CSVs; the caller removes it.
    scratch: PathBuf,
    /// Print the first pass's digest and exit (regenerates `expected.json`).
    digest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        root: PathBuf::from("."),
        scratch: PathBuf::new(),
        digest_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            a.digest_only = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?.max(1),
            "--trace" => a.trace = num(&v)? != 0,
            "--root" => a.root = PathBuf::from(v),
            "--scratch" => a.scratch = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.scratch.as_os_str().is_empty() {
        return Err("--scratch <dir> is required".into());
    }
    Ok(a)
}

// ---------------------------------------------------------------------------
// Result collection
// ---------------------------------------------------------------------------

struct Metric {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    /// Simulations whose output was checked.
    attempted: u64,
    /// Simulations whose output check failed.
    failed: u64,
    /// Failed checks, one line each.
    problems: Vec<String>,
    /// Workload facts for the result file.
    detail: Vec<(String, Json)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            samples,
        });
    }

    fn value(&mut self, name: &str, unit: &'static str, v: f64) {
        self.metric(name, unit, vec![v]);
    }

    /// Record one checked simulation (or `n` of them sharing one check).
    fn check(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.problems.push(what());
        }
    }

    fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    fn to_json(&self, a: &Args) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let finite = m.samples.iter().all(|x| x.is_finite());
            let mut o = Json::obj()
                .field("unit", m.unit)
                .field("samples", m.samples.len());
            if finite && !m.samples.is_empty() {
                o = o
                    .field("value", median(&m.samples))
                    .field("p25", quantile(&m.samples, 0.25))
                    .field("p75", quantile(&m.samples, 0.75));
            }
            let mut xs = Json::arr();
            for &x in &m.samples {
                xs.push(x);
            }
            metrics = metrics.field(&m.name, o.field("all", xs));
        }
        let mut problems = Json::arr();
        for p in &self.problems {
            problems.push(p.as_str());
        }
        let mut detail = Json::obj();
        for (k, v) in &self.detail {
            detail = detail.field(k, v.clone());
        }
        Json::obj()
            .field("workload", a.workload.as_str())
            .field("seed", a.seed)
            .field("trace", a.trace)
            .field("seconds", a.seconds)
            .field("correct", self.problems.is_empty())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("problems", problems)
            .field("metrics", metrics)
            .field("detail", detail)
    }

    fn render_text(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            if m.samples.is_empty() {
                continue;
            }
            s += &format!(
                "  {:<34} {:>14.6} {:<6} median of {:>3}  [p25 {:.6}, p75 {:.6}]\n",
                m.name,
                median(&m.samples),
                m.unit,
                m.samples.len(),
                quantile(&m.samples, 0.25),
                quantile(&m.samples, 0.75),
            );
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        s += &format!(
            "  {:<34} {:>14.6} {:<6} {} of {} simulations failed their output check\n",
            "fail_frac", frac, "ratio", self.failed, self.attempted
        );
        for p in &self.problems {
            s += &format!("  CHECK FAILED: {p}\n");
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Digest of a run's simulated outputs: event count, measured window,
/// retired instructions, HMC and both DRAM tiers' counters, per-tenant
/// latency percentiles and the span count. Host timings are excluded.
fn digest(r: &RunReport) -> String {
    let mut s = format!(
        "events={} measured={} cpu_instr={} gpu_instr={}\nhmc={:?}\nfast={:?}\nslow={:?}\n",
        r.events_processed, r.measured_cycles, r.cpu_instr, r.gpu_instr, r.hmc, r.fast, r.slow
    );
    for t in &r.tenants {
        s += &format!(
            "tenant={} cpu_p50={} cpu_p99={} gpu_p50={} gpu_p99={}\n",
            t.name,
            t.cpu_lat.quantile(0.5),
            t.cpu_lat.quantile(0.99),
            t.gpu_lat.quantile(0.5),
            t.gpu_lat.quantile(0.99)
        );
    }
    s += &format!("spans={}\n", r.trace.as_ref().map_or(0, |t| t.spans.len()));
    format!("{:016x}", host::fnv1a64(&s))
}

/// The digest `expected.json` pins for this workload and seed, if any.
fn expected_digest(root: &Path, workload: &str, seed: u64) -> Result<Option<String>, String> {
    let path = root.join("perfbench/expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(j.get("digests")
        .and_then(|d| d.get(workload))
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Json::as_str)
        .map(str::to_string))
}

// ---------------------------------------------------------------------------
// Simulation workloads: deepq and tenants
// ---------------------------------------------------------------------------

enum Input {
    Mix(Mix),
    Scenario(TenantScenario),
}

struct SimWorkload {
    cfg: SystemConfig,
    input: Input,
    kind: PolicyKind,
}

impl SimWorkload {
    /// Build the workload's inputs from its name and seed.
    fn build(name: &str, seed: u64, root: &Path) -> Result<Self, String> {
        match name {
            "deepq" => {
                let mut cfg = Profile::Quick.config();
                cfg.seed = seed;
                let mix = Mix::by_name("C5").ok_or("mix C5 missing")?;
                Ok(Self {
                    cfg,
                    input: Input::Mix(mix),
                    kind: PolicyKind::NoPart,
                })
            }
            "tenants" => {
                let path = root.join(SCENARIO);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let sc = Json::parse(&text).and_then(|j| TenantScenario::from_json(&j))?;
                let mut cfg = SystemConfig::tiny();
                cfg.seed = seed;
                cfg.measure_cycles = TENANTS_MEASURE_CYCLES;
                cfg.telemetry = true;
                cfg.trace_sample = Some(64);
                Ok(Self {
                    cfg,
                    input: Input::Scenario(sc),
                    kind: PolicyKind::HydrogenFull,
                })
            }
            other => Err(format!("unknown workload {other}")),
        }
    }

    fn job(&self) -> Job {
        match &self.input {
            Input::Mix(m) => Job::new(&self.cfg, m, self.kind),
            Input::Scenario(sc) => Job::scenario(&self.cfg, sc, self.kind),
        }
    }

    fn simulate_with(&self, cfg: &SystemConfig) -> RunReport {
        match &self.input {
            Input::Mix(m) => {
                let _s = spans::span("bench.run_sim");
                run_sim(cfg, m, self.kind)
            }
            Input::Scenario(sc) => {
                let _s = spans::span("bench.run_scenario");
                run_scenario(cfg, sc, self.kind)
            }
        }
    }

    fn simulate(&self) -> RunReport {
        self.simulate_with(&self.cfg)
    }

    /// The same machine with a one-cycle window: machine construction only.
    fn simulate_zero_length(&self) -> RunReport {
        let mut cfg = self.cfg.clone();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 1;
        self.simulate_with(&cfg)
    }

    /// Fresh copies of the reference streams the simulation pulls from.
    fn sources(&self) -> Vec<RefSource> {
        let plan = match &self.input {
            Input::Mix(m) => plan_from_workloads(&self.cfg, &m.cpu_specs(), Some(&m.gpu_spec())),
            Input::Scenario(sc) => scenario_plan(&scenario_config(&self.cfg, sc), sc).0,
        };
        plan.cpu.into_iter().chain(plan.gpu).collect()
    }
}

fn open_store(dir: &Path) -> Result<RunCache, String> {
    let _s = spans::span("bench.store_open");
    RunCache::with_disk_dir(dir).map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Set-up, timed `SETUP_REPS` times: `once` builds inputs, simulates a
/// zero-length window and opens a cold store in the directory it is given.
/// Returns the last repetition's result and store directory.
fn measure_setup<T>(
    a: &Args,
    out: &mut Outcome,
    mut once: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, PathBuf), String> {
    let mut samples = Vec::new();
    for k in 0..SETUP_REPS {
        let dir = a.scratch.join(format!("setup-{k}"));
        let (r, t) = timed(|| once(&dir));
        samples.push(t.wall_s);
        let r = r?;
        if k + 1 == SETUP_REPS {
            out.metric("setup_s", "s", samples);
            return Ok((r, dir));
        }
        drop(r);
        remove_dir(&dir);
    }
    unreachable!("SETUP_REPS > 0")
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("[perfbench] could not remove {}: {e}", dir.display());
        }
    }
}

/// True when the closed loop should stop: at least `min_passes` done and
/// the next pass (sized by the median so far) would overrun the budget.
fn loop_done(start: Instant, budget: Duration, pass_s: &[f64], min_passes: usize) -> bool {
    pass_s.len() >= min_passes
        && start.elapsed().as_secs_f64() + median(pass_s) > budget.as_secs_f64()
}

/// Pull `PULL_REFS` references round-robin through fresh sources; returns
/// nanoseconds per reference (median of five repetitions).
fn pull_ns_per_ref(make: impl Fn() -> Vec<RefSource>) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let mut srcs = make();
            let n = srcs.len();
            let t0 = Instant::now();
            let mut acc = 0u64;
            for i in 0..PULL_REFS {
                let p = srcs[i % n].next_pull();
                acc = acc.wrapping_add(p.r.addr ^ p.idle as u64);
            }
            std::hint::black_box(acc);
            t0.elapsed().as_nanos() as f64 / PULL_REFS as f64
        })
        .collect();
    median(&reps)
}

/// Profiled passes: the simulator's merged self-profile, the benchmark's
/// own spans, and the passes' wall times.
#[derive(Default)]
struct Traced {
    profile: LayerProfile,
    spans: BTreeMap<&'static str, (u64, u64)>,
    /// Nanoseconds the benchmark's top-level spans covered.
    span_ns: u64,
    walls: Vec<f64>,
}

impl Traced {
    /// Run `f` with the profiler armed and fold its report in.
    fn pass<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        prof::reset();
        spans::take();
        prof::arm();
        let (r, t) = timed(f);
        prof::disarm();
        self.profile.add(&prof::take_report());
        let s = spans::take();
        for (name, (ns, n)) in s.by_name {
            let e = self.spans.entry(name).or_default();
            e.0 += ns;
            e.1 += n;
        }
        self.span_ns += s.covered_ns;
        self.walls.push(t.wall_s);
        (r, t)
    }

    fn n(&self) -> f64 {
        self.walls.len().max(1) as f64
    }

    fn self_ms(&self, scope: &str) -> f64 {
        self.profile.self_ns(scope) as f64 / 1e6 / self.n()
    }

    fn calls(&self, scope: &str) -> f64 {
        self.profile.calls(scope) as f64 / self.n()
    }

    fn ns_per_call(&self, scope: &str) -> f64 {
        self.profile.self_ns(scope) as f64 / self.profile.calls(scope).max(1) as f64
    }

    /// Per-layer metrics every workload reports, plus the tiling check.
    fn report(&self, out: &mut Outcome, untraced_wall: f64) {
        let wall_ns: f64 = self.walls.iter().sum::<f64>() * 1e9;
        for s in [
            "queue.pop",
            "dispatch.mem_done",
            "dispatch.hmc_start",
            "dispatch.hmc_sram",
        ] {
            out.value(&format!("{s}.self_ms"), "ms", self.self_ms(s));
        }
        out.value("queue.pop.ns_per_call", "ns", self.ns_per_call("queue.pop"));
        out.value(
            "dispatch.epoch.self_ms",
            "ms",
            self.self_ms("dispatch.epoch"),
        );
        out.value("mem.schedule.self_ms", "ms", self.self_ms("mem.schedule"));
        out.value("mem.schedule.calls", "count", self.calls("mem.schedule"));
        out.value(
            "mem.schedule.ns_per_call",
            "ns",
            self.ns_per_call("mem.schedule"),
        );
        for s in ["hmc.access", "hmc.handle", "hmc.meta", "hmc.remap"] {
            out.value(&format!("{s}.self_ms"), "ms", self.self_ms(s));
        }
        out.value("cache.walk.self_ms", "ms", self.self_ms("cache.walk"));
        out.value("cache.walk.calls", "count", self.calls("cache.walk"));
        out.value(
            "cache.remap_probe.self_ms",
            "ms",
            self.self_ms("cache.remap_probe"),
        );
        out.value("hmc.policy.self_ms", "ms", self.self_ms("hmc.policy"));
        out.value("hmc.policy.calls", "count", self.calls("hmc.policy"));

        // Tiling: each layer's self time, plus the time inside the
        // benchmark's spans that no program scope (or an unmapped one)
        // covers, plus the time outside every span, is the traced wall.
        let per_layer = self.profile.layer_self_ns();
        let layered: u64 = per_layer.iter().sum();
        for (name, ns) in LAYERS.iter().zip(per_layer) {
            out.value(
                &format!("layer.{name}.self_frac"),
                "ratio",
                ns as f64 / wall_ns,
            );
        }
        out.value(
            "prof.unattributed_frac",
            "ratio",
            1.0 - layered as f64 / wall_ns,
        );
        out.value(
            "trace.overhead_frac",
            "ratio",
            median(&self.walls) / untraced_wall - 1.0,
        );

        // What can break the tiling is coverage: the benchmark's spans must
        // enclose the pass, and the program's scopes must nest inside them.
        let spans = self.span_ns as f64;
        let covered = self.profile.covered_ns as f64;
        if spans < 0.98 * wall_ns || covered > 1.01 * spans {
            out.problem(format!(
                "profile does not tile the traced wall time: benchmark spans cover {:.3} ms, \
                 program scopes {:.3} ms, of {:.3} ms",
                spans / 1e6,
                covered / 1e6,
                wall_ns / 1e6
            ));
        }
        let mut bench = Json::obj();
        for (name, (ns, n)) in &self.spans {
            let per_pass = Json::obj().field("self_ms", *ns as f64 / 1e6 / self.n());
            bench = bench.field(name, per_pass.field("count", *n as f64 / self.n()));
        }
        out.detail.push(("bench_spans".into(), bench));
        let mut names = Json::arr();
        for n in self.profile.unmapped() {
            names.push(n);
        }
        out.detail.push(("unmapped_scopes".into(), names));
    }
}

/// Model counts over a set of runs (one run, or every job of an experiment).
fn model_counts(out: &mut Outcome, runs: &[RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&RunReport) -> u64| runs.iter().map(f).max().unwrap_or(0) as f64;
    out.value("mem.fast.max_queue", "count", max(&|r| r.fast.max_queue));
    out.value("mem.slow.max_queue", "count", max(&|r| r.slow.max_queue));
    out.value(
        "mem.enqueued",
        "count",
        sum(&|r| r.fast.enqueued + r.slow.enqueued),
    );
    let hits = sum(&|r| r.fast.row_hits + r.slow.row_hits);
    let acts = sum(&|r| r.fast.activations + r.slow.activations);
    out.value("mem.row_hit_ratio", "ratio", hits / (hits + acts).max(1.0));
    // `HmcStats` arrays are indexed [cpu, gpu].
    for (i, name) in ["cpu", "gpu"].into_iter().enumerate() {
        let h = sum(&|r| r.hmc.fast_hits[i]);
        let m = sum(&|r| r.hmc.fast_misses[i]);
        out.value(
            &format!("hmc.fast_hit_ratio.{name}"),
            "ratio",
            h / (h + m).max(1.0),
        );
    }
    out.value(
        "hmc.migrations",
        "count",
        sum(&|r| r.hmc.migrations[0] + r.hmc.migrations[1]),
    );
    out.value(
        "hmc.migrations_denied",
        "count",
        sum(&|r| r.hmc.migrations_denied[0] + r.hmc.migrations_denied[1]),
    );
    let remap: f64 = runs.iter().map(|r| r.remap_hit_rate).sum::<f64>() / runs.len().max(1) as f64;
    out.value("hmc.remap_hit_rate", "ratio", remap);
}

fn store_bytes(cache: &RunCache) -> f64 {
    cache.disk_store().map_or(0, |s| s.stats().bytes) as f64
}

/// Untraced passes and store replays of one run.
#[derive(Default)]
struct Untraced {
    passes: Vec<Timed>,
    replays: Vec<Timed>,
    /// Pass wall minus the simulator's own `RunReport::wall_s`, in ms.
    overhead_ms: Vec<f64>,
}

impl Untraced {
    fn walls(&self) -> Vec<f64> {
        self.passes.iter().map(|t| t.wall_s).collect()
    }

    fn replay_walls(&self) -> Vec<f64> {
        self.replays.iter().map(|t| t.wall_s).collect()
    }

    /// The end-to-end metrics of a `--trace 0` run.
    fn end_to_end(&self, out: &mut Outcome) {
        out.metric("wall_s", "s", self.walls());
        out.metric("cpu_s", "s", self.passes.iter().map(|t| t.cpu_s).collect());
        out.metric("replay_s", "s", self.replay_walls());
        out.value("peak_rss_mb", "MiB", host::peak_rss_mb());
    }
}

/// What a workload's `harness` layer did in one pass.
struct HarnessFacts {
    /// `RunCache::run` lookups.
    jobs: usize,
    /// Simulations the cache executed.
    executed: usize,
    /// Store entries one replay loads.
    disk_hits: usize,
    /// `RunReport::wall_s` of each simulation.
    job_walls: Vec<f64>,
    store_bytes: f64,
}

/// The per-layer metrics of a `--trace 1` run, besides the profile's own.
fn per_layer(
    out: &mut Outcome,
    untraced: &Untraced,
    events: f64,
    reports: &[RunReport],
    h: HarnessFacts,
    sources: impl Fn() -> Vec<RefSource>,
) {
    let wall = median(&untraced.walls());
    out.value("events", "count", events);
    out.value("events_per_s", "1/s", events / wall);
    model_counts(out, reports);
    out.value("trace.pull.ns_per_ref", "ns", pull_ns_per_ref(sources));
    let cores: Vec<f64> = untraced.passes.iter().map(|t| t.cpu_s / t.wall_s).collect();
    let replay_ms = median(&untraced.replay_walls()) * 1e3;
    out.value("harness.jobs", "count", h.jobs as f64);
    out.value("harness.executed", "count", h.executed as f64);
    out.value("harness.disk_hits", "count", h.disk_hits as f64);
    let job_wall = if h.job_walls.is_empty() {
        0.0
    } else {
        median(&h.job_walls)
    };
    out.value("harness.job_wall_s.p50", "s", job_wall);
    out.value("harness.overhead_ms", "ms", median(&untraced.overhead_ms));
    out.value("harness.cores_used", "ratio", median(&cores));
    out.value(
        "harness.store.load_ms_per_entry",
        "ms",
        replay_ms / h.disk_hits.max(1) as f64,
    );
    out.value("harness.store.bytes", "bytes", h.store_bytes);
}

/// Answer `job` from the store in `dir` through a fresh cache, the way a
/// rerun in a new process does.
fn replay_job(dir: &Path, job: &Job) -> Result<(RunReport, RunCache), String> {
    let mut cache = open_store(dir)?;
    let r = {
        let _s = spans::span("bench.runcache_run");
        cache.run(job)
    };
    Ok((r, cache))
}

fn run_sim_workload(a: &Args, out: &mut Outcome) -> Result<(), String> {
    let ((w, cold), store_dir) = measure_setup(a, out, |dir| {
        let w = SimWorkload::build(&a.workload, a.seed, &a.root)?;
        w.simulate_zero_length();
        Ok((w, open_store(dir)?))
    })?;
    if a.digest_only {
        println!("{}", digest(&w.simulate()));
        return Ok(());
    }
    let expected = expected_digest(&a.root, &a.workload, a.seed)?;
    let job = w.job();

    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut untraced = Untraced::default();
    let mut job_walls = Vec::new();
    let mut traced = Traced::default();
    let mut first: Option<(String, RunReport)> = None;
    let min_passes = if a.trace { 2 } else { 1 };
    while !loop_done(start, budget, &pass_s, min_passes) {
        let p0 = Instant::now();
        let profiled = a.trace && pass_s.len() % 2 == 1;
        let (report, t) = if profiled {
            traced.pass(|| w.simulate())
        } else {
            timed(|| w.simulate())
        };
        let d = digest(&report);
        let (first_d, _) = first.get_or_insert_with(|| (d.clone(), report.clone()));
        // The pinned digest when the seed has one, else the first pass's.
        let (want, source) = match &expected {
            Some(e) => (e, "expected.json"),
            None => (&*first_d, "the first pass"),
        };
        let mode = if profiled { "profiled" } else { "untraced" };
        out.check(1, d == *want, || {
            format!(
                "{mode} pass {} digest {d} != {want} from {source} (seed {})",
                pass_s.len(),
                a.seed
            )
        });
        if pass_s.is_empty() {
            cold.disk_store()
                .expect("store attached")
                .store(job.key(), &report)
                .map_err(|e| format!("store write: {e}"))?;
        }
        if !profiled {
            untraced.passes.push(t);
            untraced.overhead_ms.push((t.wall_s - report.wall_s) * 1e3);
            job_walls.push(report.wall_s);
            for _ in 0..REPLAYS {
                let (r, t) = timed(|| replay_job(&store_dir, &job));
                let (r2, cache) = r?;
                untraced.replays.push(t);
                let ok = cache.disk_hits == 1 && cache.executed == 0 && digest(&r2) == d;
                if !ok {
                    out.problem(format!(
                        "store replay: {} disk hits, {} executed, digest {} (want {d})",
                        cache.disk_hits,
                        cache.executed,
                        digest(&r2)
                    ));
                }
            }
        }
        pass_s.push(p0.elapsed().as_secs_f64());
    }
    let (want, report) = first.expect("at least one pass");
    out.detail
        .push(("digest".into(), Json::from(want.as_str())));
    out.detail.push(("passes".into(), Json::from(pass_s.len())));

    if !a.trace {
        untraced.end_to_end(out);
        return Ok(());
    }
    traced.report(out, median(&untraced.walls()));
    let facts = HarnessFacts {
        jobs: 1,
        executed: 0,
        disk_hits: 1,
        job_walls,
        store_bytes: store_bytes(&cold),
    };
    let events = report.events_processed as f64;
    per_layer(
        out,
        &untraced,
        events,
        std::slice::from_ref(&report),
        facts,
        || w.sources(),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The fig10 experiment workload
// ---------------------------------------------------------------------------

/// Run Fig 10 through `cache`, write its tables as CSVs into `csv_dir`
/// and compare them byte for byte with the committed `results/` copies.
/// Returns the tables that differ.
fn fig10_pass(root: &Path, cache: &mut RunCache, csv_dir: &Path) -> Result<Vec<String>, String> {
    let tables: Vec<Table> = {
        let _s = spans::span("bench.run_experiment");
        run_experiment("fig10", &Profile::Quick, cache).ok_or("fig10 is not an experiment id")?
    };
    let _s = spans::span("bench.table");
    let mut differ = Vec::new();
    for id in FIG10_CSVS {
        let t = tables
            .iter()
            .find(|t| t.id == id)
            .ok_or_else(|| format!("no table {id}"))?;
        let path = t
            .write_csv(csv_dir)
            .map_err(|e| format!("write {id}.csv: {e}"))?;
        let got = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let want_path = root.join("results").join(format!("{id}.csv"));
        let want =
            std::fs::read(&want_path).map_err(|e| format!("{}: {e}", want_path.display()))?;
        if got != want {
            differ.push(id.to_string());
        }
    }
    Ok(differ)
}

/// Every report in a run store (entries are `<shard>/<key>.h2r`).
fn store_reports(cache: &RunCache) -> Vec<RunReport> {
    let Some(store) = cache.disk_store() else {
        return Vec::new();
    };
    let mut keys = Vec::new();
    for shard in std::fs::read_dir(store.dir())
        .into_iter()
        .flatten()
        .flatten()
    {
        for e in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "h2r") {
                if let Some(k) = p.file_stem().and_then(|s| s.to_str()) {
                    keys.extend(u128::from_str_radix(k, 16).ok());
                }
            }
        }
    }
    keys.sort_unstable();
    keys.into_iter().filter_map(|k| store.load(k)).collect()
}

fn run_fig10(a: &Args, out: &mut Outcome) -> Result<(), String> {
    let (_, _) = measure_setup(a, out, |dir| {
        let cfg = Profile::Quick.config();
        let c6 = Mix::by_name("C6").ok_or("mix C6 missing")?;
        let mut zero = cfg.clone();
        zero.warmup_cycles = 0;
        zero.measure_cycles = 1;
        {
            let _s = spans::span("bench.run_sim");
            run_sim(&zero, &c6, PolicyKind::HydrogenFull);
        }
        let mut cache = open_store(dir)?;
        cache.set_jobs(2);
        Ok(cache)
    })?;
    if a.digest_only {
        return Err("fig10 is checked against results/, not a digest".into());
    }

    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut untraced = Untraced::default();
    let mut events = Vec::new();
    let mut traced = Traced::default();
    let mut facts: Option<(HarnessFacts, Vec<RunReport>)> = None;
    let min_passes = if a.trace { 2 } else { 1 };
    while !loop_done(start, budget, &pass_s, min_passes) {
        let p0 = Instant::now();
        let n = pass_s.len();
        let profiled = a.trace && n % 2 == 1;
        let store_dir = a.scratch.join(format!("fig10-store-{n}"));
        let cold_pass = || -> Result<_, String> {
            let mut cache = open_store(&store_dir)?;
            cache.set_jobs(2);
            let differ = fig10_pass(
                &a.root,
                &mut cache,
                &a.scratch.join(format!("csv-cold-{n}")),
            )?;
            Ok((cache, differ))
        };
        let (r, t) = if profiled {
            traced.pass(cold_pass)
        } else {
            timed(cold_pass)
        };
        let (cold, differ) = r?;
        let sims = cold.executed as u64;
        out.check(sims, differ.is_empty() && sims > 0, || {
            format!(
                "cold pass {n}: {} executed, tables differing from results/: {differ:?}",
                sims
            )
        });
        if !profiled {
            untraced.passes.push(t);
            untraced
                .overhead_ms
                .push((t.wall_s - cold.sim_wall_s) * 1e3);
            events.push(cold.sim_events as f64);
        }

        // Warm passes: fresh caches over the store the cold pass filled.
        let mut warm_hits = 0;
        for k in 0..FIG10_REPLAYS {
            let csv_dir = a.scratch.join(format!("csv-warm-{n}-{k}"));
            let (r, t) = timed(|| -> Result<_, String> {
                let mut warm = open_store(&store_dir)?;
                warm.set_jobs(2);
                let differ = fig10_pass(&a.root, &mut warm, &csv_dir)?;
                Ok((warm, differ))
            });
            let (warm, differ) = r?;
            untraced.replays.push(t);
            remove_dir(&csv_dir);
            warm_hits = warm.disk_hits;
            let ok = differ.is_empty() && warm.executed == 0 && warm.disk_hits == cold.executed;
            if !ok {
                out.problem(format!(
                    "warm pass {n}.{k}: {} executed, {} disk hits (want {}), tables differing: {differ:?}",
                    warm.executed, warm.disk_hits, cold.executed
                ));
            }
        }
        if facts.is_none() {
            let reports = if a.trace {
                store_reports(&cold)
            } else {
                Vec::new()
            };
            let h = HarnessFacts {
                jobs: cold.executed + cold.hits + cold.disk_hits,
                executed: cold.executed,
                disk_hits: warm_hits,
                job_walls: reports.iter().map(|r| r.wall_s).collect(),
                store_bytes: store_bytes(&cold),
            };
            facts = Some((h, reports));
        }
        drop(cold);
        remove_dir(&store_dir);
        remove_dir(&a.scratch.join(format!("csv-cold-{n}")));
        pass_s.push(p0.elapsed().as_secs_f64());
    }
    out.detail.push(("passes".into(), Json::from(pass_s.len())));

    if !a.trace {
        untraced.end_to_end(out);
        return Ok(());
    }
    let (h, reports) = facts.expect("at least one pass");
    traced.report(out, median(&untraced.walls()));
    let cfg = Profile::Quick.config();
    let c6 = Mix::by_name("C6").ok_or("mix C6 missing")?;
    per_layer(out, &untraced, median(&events), &reports, h, || {
        let plan = plan_from_workloads(&cfg, &c6.cpu_specs(), Some(&c6.gpu_spec()));
        plan.cpu.into_iter().chain(plan.gpu).collect()
    });
    Ok(())
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let r = match a.workload.as_str() {
        "deepq" | "tenants" => run_sim_workload(&a, &mut out),
        "fig10" => run_fig10(&a, &mut out),
        other => Err(format!(
            "unknown workload '{other}' (deepq, tenants, fig10)"
        )),
    };
    if let Err(e) = r {
        eprintln!("[perfbench] {}: {e}", a.workload);
        std::process::exit(1);
    }
    if a.digest_only {
        return;
    }
    print!("{}", out.render_text());
    println!("{}", out.to_json(&a).to_string_compact());
}
