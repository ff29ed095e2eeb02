//! `h2 bench` — the hot-path performance gate.
//!
//! Times the fully-observed simulator configuration (telemetry on, request
//! tracing at the default 1/64 sample) end to end through the event loop
//! and writes the results as `BENCH_hotpath.json` at the repo root. This is
//! the configuration the zero-allocation work targets: interned metric
//! handles, the transaction and span slabs, pooled trace buffers, and the
//! calendar-queue idle fast-forward all sit on this path.
//!
//! ```text
//! h2 bench                      # measure, write BENCH_hotpath.json
//! h2 bench --gate               # also compare against the committed
//!                               # baseline; exit 1 on regression
//! h2 bench --baseline           # re-baseline: overwrite the committed file
//! h2 bench --iters 40           # more samples (default 20)
//! h2 bench --profile-out prof/  # write the profile JSON document
//! h2 bench --profile-snapshot   # re-record the committed profile share
//! ```
//!
//! The committed baseline lives at `tests/bench/hotpath_baseline.json`
//! (relative to the repo root). A gate needs data to compare against: a
//! missing or unreadable baseline fails `--gate` with the file path in the
//! message, as does a baseline without numbers for the measured section.
//!
//! Allocation accounting needs the counting global allocator, which is
//! compiled in only with `--features alloc-count` (off by default so
//! ordinary builds pay nothing; its overhead on a zero-allocation hot
//! path is one relaxed atomic per — rare — allocation, so CI builds the
//! gate with it on). Without the feature, `allocs_per_event` is reported
//! as `null` and not gated. When it *is* measured, the gate holds the loop
//! to the zero-allocation bar.
//!
//! With `--profile`, the bench also gets one run with the self-profiler
//! armed (after the timed iterations, so recorded numbers are
//! undistorted). The armed run feeds two further outputs: `--profile-out
//! <dir>` writes the full attribution tree as `profile_scalar.json`, and
//! the `hmc.access` self-time share is checked against the committed
//! snapshot at `tests/bench/profile_snapshot.json` — growing more than 10%
//! relative fails the command, and so does a snapshot that is missing,
//! unreadable, or has no entry for this bench. `--profile-snapshot`
//! rewrites that snapshot from the current run (the profile analogue of
//! `--baseline`).

use crate::alloc_count;
use h2_sim_core::{prof, Json};
use h2_system::{run_sim, PolicyKind, SystemConfig};
use h2_trace::Mix;
use std::path::{Path, PathBuf};

/// Machine-readable results file, written at the repo root.
pub const RESULTS_FILE: &str = "BENCH_hotpath.json";

/// Committed baseline path, relative to the repo root.
pub const BASELINE_FILE: &str = "tests/bench/hotpath_baseline.json";

/// The stable bench identifier recorded in the results document. The
/// workload matches the `full_system_tiny_c1_150k_traced` microbench.
pub const BENCH_NAME: &str = "full_system_tiny_c1_150k_traced";

/// The measured section's key in the results, baseline, and snapshot
/// documents — named after the event loop's `run.scalar` profile root.
pub const SECTION: &str = "scalar";

/// A regression worse than this fraction of the baseline fails `--gate`.
pub const GATE_TOLERANCE: f64 = 0.10;

/// The loop must stay at (effectively) zero steady-state allocations per
/// event when the counting allocator is compiled in. The budget is not
/// exactly zero because the differential measurement cannot cancel
/// *output-proportional* growth: the telemetry timeline appends one epoch
/// record per telemetry epoch and the tracer retains one span per sampled
/// request, so their amortized `Vec` doublings scale with the measure
/// window, not with warm-up. That residual is ~0.017 allocations/event on
/// the traced bench; the per-event simulation path itself (transaction
/// slabs, pending-command SoA, trace scratch buffers) allocates nothing in
/// steady state.
pub const ALLOC_GATE: f64 = 0.02;

/// Committed profile-share snapshot, relative to the repo root. Records
/// the `hmc.access` exclusive-time share on the bench; `--profile` runs
/// fail when the live share grows more than [`PROFILE_SHARE_TOLERANCE`]
/// relative against it.
pub const PROFILE_SNAPSHOT_FILE: &str = "tests/bench/profile_snapshot.json";

/// The profiled phase whose self-time share the profile gate tracks.
pub const PROFILE_GATE_LABEL: &str = "hmc.access";

/// Relative growth of the gated phase's self-time share that fails a
/// profiled run: `share > snapshot * (1 + tolerance)`.
pub const PROFILE_SHARE_TOLERANCE: f64 = 0.10;

/// Parsed `h2 bench` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Compare against the committed baseline, exit non-zero on regression.
    pub gate: bool,
    /// Overwrite the committed baseline with this run's numbers.
    pub baseline: bool,
    /// Timed iterations (p50/p99 resolution improves with more).
    pub iters: u64,
    /// After timing, run once with the self-profiler armed and print the
    /// host-time attribution tree (the timed iterations stay unprofiled so
    /// the recorded numbers are undistorted).
    pub profile: bool,
    /// Directory for the `profile_scalar.json` document from the armed run
    /// (implies `profile`).
    pub profile_out: Option<String>,
    /// Rewrite the committed profile-share snapshot from this run's armed
    /// profile (implies `profile`; the profile analogue of `baseline`).
    pub profile_snapshot: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            gate: false,
            baseline: false,
            iters: 20,
            profile: false,
            profile_out: None,
            profile_snapshot: false,
        }
    }
}

impl BenchArgs {
    /// Parse the arguments after `h2 bench`. Errors are complete messages
    /// ready for stderr.
    pub fn parse(args: &[String]) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--gate" => out.gate = true,
                "--baseline" => out.baseline = true,
                "--iters" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--iters needs an argument".to_string())?;
                    out.iters = v
                        .parse()
                        .map_err(|_| format!("--iters needs an unsigned integer, got '{v}'"))?;
                    if out.iters == 0 {
                        return Err("--iters must be > 0 (zero samples measure nothing)".into());
                    }
                }
                "--profile" => out.profile = true,
                "--profile-out" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--profile-out needs a directory argument".to_string())?;
                    out.profile_out = Some(v.clone());
                    out.profile = true;
                }
                "--profile-snapshot" => {
                    out.profile_snapshot = true;
                    out.profile = true;
                }
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (usage: h2 bench [--gate] [--baseline] [--iters N] [--profile] [--profile-out DIR] [--profile-snapshot])"
                    ))
                }
            }
        }
        if out.gate && out.baseline {
            return Err(
                "--gate and --baseline are mutually exclusive (a gate compares, a baseline overwrites)"
                    .into(),
            );
        }
        if out.gate && out.profile_snapshot {
            return Err(
                "--gate and --profile-snapshot are mutually exclusive (a gate compares, a snapshot overwrites)"
                    .into(),
            );
        }
        Ok(out)
    }
}

/// The benchmark configuration: the tiny system, fully observed. Matches
/// the `full_system_tiny_c1_150k_traced` microbench.
fn bench_cfg(measure_cycles: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = measure_cycles;
    cfg.telemetry = true;
    cfg.trace_sample = Some(64);
    cfg
}

/// One timed measurement of the traced full-system run.
struct Measured {
    ns: Vec<u64>,
    events_per_iter: u64,
}

fn measure(iters: u64) -> Measured {
    let cfg = bench_cfg(100_000);
    let mix = Mix::by_name("C1").unwrap();
    // Warm the page cache, branch predictors, and the lazy workload tables.
    let warm = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    let events_per_iter = warm.events_processed;
    let mut ns = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = std::time::Instant::now();
        let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        let dt = t.elapsed().as_nanos() as u64;
        assert_eq!(
            r.events_processed, events_per_iter,
            "the benchmark run is deterministic"
        );
        ns.push(dt);
    }
    ns.sort_unstable();
    Measured { ns, events_per_iter }
}

/// Steady-state allocations per event, measured differentially: two runs
/// that differ only in measure-window length, so constructor and warm-up
/// allocations cancel and only the per-event steady state remains.
/// `None` when the counting allocator is not compiled in.
fn allocs_per_event() -> Option<f64> {
    if !alloc_count::enabled() {
        return None;
    }
    let mix = Mix::by_name("C1").unwrap();
    let short = bench_cfg(100_000);
    let long = bench_cfg(300_000);
    let a0 = alloc_count::allocs();
    let r_short = run_sim(&short, &mix, PolicyKind::HydrogenFull);
    let a1 = alloc_count::allocs();
    let r_long = run_sim(&long, &mix, PolicyKind::HydrogenFull);
    let a2 = alloc_count::allocs();
    let d_allocs = (a2 - a1).saturating_sub(a1 - a0);
    let d_events = r_long.events_processed.saturating_sub(r_short.events_processed);
    Some(d_allocs as f64 / d_events.max(1) as f64)
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// Whether `len` sorted samples can honestly carry a `p` label. The
/// median needs at least two samples; a tail percentile additionally
/// needs its rank to land above the median's — otherwise the "tail" is
/// the median re-printed under a different name (two iterations used to
/// report `ns_p99 == ns_p50` this way). Unsupported labels are omitted
/// from both the console line and the results document rather than
/// emitted with misleading values.
fn percentile_supported(len: usize, p: f64) -> bool {
    if len < 2 {
        return false;
    }
    let rank = |q: f64| ((len - 1) as f64 * q).round() as usize;
    p <= 0.5 || rank(p) > rank(0.5)
}

/// The measured section.
struct Section {
    m: Measured,
    allocs: Option<f64>,
}

impl Section {
    fn events_per_sec(&self) -> f64 {
        self.m.events_per_iter as f64 * 1e9 / self.m.ns[0].max(1) as f64
    }

    fn json(&self) -> Json {
        let allocs_field = match self.allocs {
            Some(a) => Json::F64(a),
            None => Json::Null,
        };
        let mut j = Json::obj().field("ns_best", self.m.ns[0]);
        if percentile_supported(self.m.ns.len(), 0.50) {
            j = j.field("ns_p50", percentile(&self.m.ns, 0.50));
        }
        if percentile_supported(self.m.ns.len(), 0.99) {
            j = j.field("ns_p99", percentile(&self.m.ns, 0.99));
        }
        j.field("events_per_sec", self.events_per_sec())
            .field("allocs_per_event", allocs_field)
    }
}

fn results_json(iters: u64, s: &Section) -> Json {
    Json::obj()
        .field("schema", 2u64)
        .field("bench", BENCH_NAME)
        .field("iters", iters)
        .field("events_per_iter", s.m.events_per_iter)
        .field("kernels", Json::obj().field(SECTION, s.json()))
}

/// The nearest ancestor directory holding `.git` (the repo root); falls
/// back to the CWD so runs outside a checkout still land somewhere.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut at = cwd.as_path();
    loop {
        if at.join(".git").is_dir() {
            return at.to_path_buf();
        }
        match at.parent() {
            Some(p) => at = p,
            None => return cwd,
        }
    }
}

fn f64_of(j: &Json) -> Option<f64> {
    match j {
        Json::F64(v) => Some(*v),
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// A numeric field of the measured section in a results document.
fn section_f64(doc: &Json, field: &str) -> Option<f64> {
    doc.get("kernels")
        .and_then(|k| k.get(SECTION))
        .and_then(|k| k.get(field))
        .and_then(f64_of)
}

/// Read and parse a committed JSON document. Every failure names the file.
fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("unreadable JSON {}: {e}", path.display()))
}

/// Gate verdict against a baseline document. `Ok(line)` passes,
/// `Err(message)` is a regression or a baseline with nothing to compare.
pub fn gate_verdict(current: &Json, baseline: &Json) -> Result<String, String> {
    let cur = section_f64(current, "events_per_sec")
        .ok_or_else(|| format!("current results carry no {SECTION} events_per_sec"))?;
    let base = section_f64(baseline, "events_per_sec")
        .ok_or_else(|| format!("baseline has no {SECTION} events_per_sec to compare against"))?;
    let ratio = cur / base.max(1e-9);
    let line = format!(
        "{SECTION}: {:.2} Mev/s vs baseline {:.2} Mev/s ({:+.1}%)",
        cur / 1e6,
        base / 1e6,
        (ratio - 1.0) * 100.0
    );
    if ratio < 1.0 - GATE_TOLERANCE {
        return Err(format!(
            "hot-path regression: {line}, worse than the {:.0}% tolerance",
            GATE_TOLERANCE * 100.0
        ));
    }
    if let Some(a) = section_f64(current, "allocs_per_event") {
        if a > ALLOC_GATE {
            return Err(format!(
                "hot-path regression: the event loop allocates {a:.4}/event (budget {ALLOC_GATE})"
            ));
        }
    }
    Ok(line)
}

/// `--gate` against the baseline file at `path`: a missing or unreadable
/// baseline fails like a regression, never skips.
pub fn gate_against_file(current: &Json, path: &Path) -> Result<String, String> {
    let baseline = read_json(path)?;
    gate_verdict(current, &baseline).map_err(|e| format!("{e} (baseline {})", path.display()))
}

/// Exclusive-time share of every node labelled `label` in a profile tree,
/// as a fraction of the profiled total. Summed across occurrences (the
/// loop enters `hmc.access` from several dispatch scopes) so the share is
/// position-independent.
pub fn profile_share(report: &prof::ProfReport, label: &str) -> f64 {
    fn walk(n: &prof::ProfNode, label: &str, acc: &mut u64) {
        if n.name == label {
            *acc += n.excl_ns;
        }
        for c in &n.children {
            walk(c, label, acc);
        }
    }
    let mut acc = 0u64;
    for r in &report.roots {
        walk(r, label, &mut acc);
    }
    acc as f64 / report.total_ns().max(1) as f64
}

/// Compare the live profile share against the committed snapshot.
/// `Ok(line)` on a pass; `Err(message)` when the share grew beyond the
/// tolerance or the snapshot has no entry for this bench's loop.
pub fn share_verdict(bench: &str, share: f64, snapshot: &Json) -> Result<String, String> {
    let snap_bench = snapshot.get("bench").and_then(Json::as_str);
    if snap_bench != Some(bench) {
        return Err(format!(
            "profile snapshot records bench {snap_bench:?}, not {bench:?}"
        ));
    }
    let base = snapshot
        .get("shares")
        .and_then(|s| s.get(SECTION))
        .and_then(f64_of)
        .ok_or_else(|| format!("profile snapshot has no {SECTION} share"))?;
    let label = snapshot
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or(PROFILE_GATE_LABEL)
        .to_string();
    let rel = share / base.max(1e-12) - 1.0;
    let line = format!(
        "{SECTION}: {label} self-time {:.2}% vs snapshot {:.2}% ({rel:+.1}% rel)",
        share * 100.0,
        base * 100.0,
        rel = rel * 100.0
    );
    if share > base * (1.0 + PROFILE_SHARE_TOLERANCE) {
        return Err(format!(
            "profile regression: {line}, beyond the {:.0}% relative tolerance",
            PROFILE_SHARE_TOLERANCE * 100.0
        ));
    }
    Ok(line)
}

/// The `--profile` share gate against the snapshot file at `path`: a
/// missing, unreadable, or non-matching snapshot fails, never skips.
pub fn share_against_file(share: f64, path: &Path) -> Result<String, String> {
    let snapshot = read_json(path)?;
    share_verdict(BENCH_NAME, share, &snapshot)
        .map_err(|e| format!("{e} (snapshot {})", path.display()))
}

/// The committed profile-share snapshot document.
fn snapshot_json(share: f64) -> Json {
    Json::obj()
        .field("schema", 1u64)
        .field("kind", "h2-profile-snapshot")
        .field("bench", BENCH_NAME)
        .field("label", PROFILE_GATE_LABEL)
        .field("shares", Json::obj().field(SECTION, Json::F64(share)))
}

/// Write `doc` to `path`, creating the parent directory.
fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run `h2 bench` end to end; returns the process exit code.
pub fn cmd_bench(args: &[String]) -> i32 {
    let parsed = match BenchArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match run_bench(&parsed, &repo_root()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("[h2 bench] {e}");
            2
        }
    }
}

/// Measure, write the results, and apply the requested gates. `Err` is an
/// I/O failure (exit 2); a failed gate prints its reason and returns 1.
fn run_bench(parsed: &BenchArgs, root: &Path) -> Result<i32, String> {
    eprintln!(
        "[h2 bench] timing the traced full-system run ({} iters, telemetry on, trace 1/64)...",
        parsed.iters
    );
    let s = Section { m: measure(parsed.iters), allocs: allocs_per_event() };
    let mut line = format!("{BENCH_NAME}  best {} ns/iter", s.m.ns[0]);
    if percentile_supported(s.m.ns.len(), 0.50) {
        line.push_str(&format!("  p50 {} ns", percentile(&s.m.ns, 0.50)));
    }
    if percentile_supported(s.m.ns.len(), 0.99) {
        line.push_str(&format!("  p99 {} ns", percentile(&s.m.ns, 0.99)));
    } else {
        line.push_str(&format!("  (p99 needs more than {} iters)", s.m.ns.len()));
    }
    println!("{line}  ({:.2} Mev/s)", s.events_per_sec() / 1e6);
    match s.allocs {
        Some(a) => println!("  steady-state allocations: {a:.4} per event"),
        None => println!("  steady-state allocations: not measured (build with --features alloc-count)"),
    }

    let mut failed = false;
    if parsed.profile {
        // One extra run with the profiler armed, after the timed
        // iterations — armed probes cost real time, so they never touch
        // the recorded numbers.
        prof::set_alloc_probe(alloc_count::allocs);
        prof::reset();
        prof::arm();
        let _ = run_sim(&bench_cfg(100_000), &Mix::by_name("C1").unwrap(), PolicyKind::HydrogenFull);
        prof::disarm();
        let report = prof::take_report();
        println!("\nhost-time profile (one armed run, not the timed iterations):");
        print!("{}", report.render_text());
        println!();
        if let Some(dir) = &parsed.profile_out {
            let path = root.join(dir).join(format!("profile_{SECTION}.json"));
            write_json(&path, &report.to_json())?;
            println!("profile: {}", path.display());
        }
        let share = profile_share(&report, PROFILE_GATE_LABEL);
        let snap_path = root.join(PROFILE_SNAPSHOT_FILE);
        if parsed.profile_snapshot {
            write_json(&snap_path, &snapshot_json(share))?;
            println!("profile snapshot: {}", snap_path.display());
        } else {
            match share_against_file(share, &snap_path) {
                Ok(ok_line) => println!("profile gate OK: {ok_line}"),
                Err(msg) => {
                    eprintln!("[h2 bench] {msg}");
                    failed = true;
                }
            }
        }
    }

    let doc = results_json(parsed.iters, &s);
    let out = root.join(RESULTS_FILE);
    write_json(&out, &doc)?;
    println!("results: {}", out.display());

    let baseline_path = root.join(BASELINE_FILE);
    if parsed.baseline {
        write_json(&baseline_path, &doc)?;
        println!("baseline: {}", baseline_path.display());
    }
    if parsed.gate {
        match gate_against_file(&doc, &baseline_path) {
            Ok(line) => println!("gate OK: {line}"),
            Err(msg) => {
                eprintln!("[h2 bench] {msg}");
                failed = true;
            }
        }
    }
    Ok(i32::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn doc(eps: f64, allocs: Option<f64>) -> Json {
        let allocs_field = match allocs {
            Some(a) => Json::F64(a),
            None => Json::Null,
        };
        let section = Json::obj()
            .field("events_per_sec", eps)
            .field("allocs_per_event", allocs_field);
        Json::obj().field("schema", 2u64).field("kernels", Json::obj().field(SECTION, section))
    }

    /// A per-test scratch file path under the system temp directory.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("h2-hotbench-{}-{name}", std::process::id()))
    }

    #[test]
    fn defaults_and_flags() {
        assert_eq!(parse(&[]).unwrap(), BenchArgs::default());
        let a = parse(&["--gate", "--iters", "40"]).unwrap();
        assert!(a.gate);
        assert_eq!(a.iters, 40);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert_eq!(
            parse(&["--iters", "0"]).unwrap_err(),
            "--iters must be > 0 (zero samples measure nothing)"
        );
        assert_eq!(
            parse(&["--iters", "lots"]).unwrap_err(),
            "--iters needs an unsigned integer, got 'lots'"
        );
        assert_eq!(parse(&["--iters"]).unwrap_err(), "--iters needs an argument");
        assert!(parse(&["--fast"]).unwrap_err().starts_with("unknown argument '--fast'"));
        assert_eq!(
            parse(&["--gate", "--baseline"]).unwrap_err(),
            "--gate and --baseline are mutually exclusive (a gate compares, a baseline overwrites)"
        );
    }

    #[test]
    fn gate_compares_against_the_baseline() {
        let base = doc(100e6, None);
        assert!(gate_verdict(&doc(95e6, None), &base).is_ok());
        let msg = gate_verdict(&doc(85e6, None), &base).unwrap_err();
        assert!(msg.contains("regression"), "{msg}");
    }

    #[test]
    fn gate_fails_on_a_baseline_without_numbers() {
        let empty = Json::obj().field("schema", 2u64);
        let msg = gate_verdict(&doc(95e6, None), &empty).unwrap_err();
        assert!(msg.contains("baseline has no"), "{msg}");
    }

    #[test]
    fn gate_enforces_zero_allocation() {
        let base = doc(100e6, None);
        assert!(gate_verdict(&doc(100e6, Some(0.0)), &base).is_ok());
        let msg = gate_verdict(&doc(100e6, Some(0.5)), &base).unwrap_err();
        assert!(msg.contains("allocates"), "{msg}");
    }

    #[test]
    fn gate_fails_when_the_baseline_file_is_missing_or_unreadable() {
        let missing = scratch("no-such-baseline.json");
        let msg = gate_against_file(&doc(95e6, None), &missing).unwrap_err();
        assert!(msg.contains(&missing.display().to_string()), "{msg}");

        let garbage = scratch("garbage-baseline.json");
        std::fs::write(&garbage, "{ not json").unwrap();
        let msg = gate_against_file(&doc(95e6, None), &garbage).unwrap_err();
        assert!(msg.contains(&garbage.display().to_string()), "{msg}");

        let empty = scratch("empty-baseline.json");
        std::fs::write(&empty, "{}").unwrap();
        let msg = gate_against_file(&doc(95e6, None), &empty).unwrap_err();
        assert!(msg.contains(&empty.display().to_string()), "{msg}");

        let good = scratch("good-baseline.json");
        std::fs::write(&good, doc(100e6, None).to_string_pretty()).unwrap();
        assert!(gate_against_file(&doc(95e6, None), &good).is_ok());
        for p in [garbage, empty, good] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let ns = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&ns, 0.0), 10);
        assert_eq!(percentile(&ns, 0.5), 60);
        assert_eq!(percentile(&ns, 0.99), 100);
        assert_eq!(percentile(&ns, 1.0), 100);
    }

    #[test]
    fn percentile_labels_follow_iteration_support() {
        // One sample supports no percentile label at all.
        assert!(!percentile_supported(1, 0.50));
        assert!(!percentile_supported(1, 0.99));
        // Two samples give a median, but their p99 rank *is* the median
        // rank — the `iters: 2` artifact that reported ns_p99 == ns_p50.
        assert!(percentile_supported(2, 0.50));
        assert!(!percentile_supported(2, 0.99));
        // From three samples up, the p99 rank separates from the median.
        assert!(percentile_supported(3, 0.99));
        assert!(percentile_supported(5, 0.99));
        assert!(percentile_supported(20, 0.99));
    }

    #[test]
    fn results_json_shape() {
        let s = Section {
            m: Measured { ns: vec![100, 200, 300], events_per_iter: 1000 },
            allocs: Some(0.25),
        };
        let j = results_json(3, &s);
        let text = j.to_string_compact();
        assert!(text.contains(r#""schema":2"#), "{text}");
        assert!(text.contains(r#""scalar":{"ns_best":100"#), "{text}");
        assert!(text.contains(r#""allocs_per_event":0.25"#), "{text}");
        assert_eq!(section_f64(&j, "events_per_sec"), Some(1000.0 * 1e9 / 100.0));
        assert_eq!(section_f64(&j, "allocs_per_event"), Some(0.25));
        let unmeasured = Section { allocs: None, ..s };
        let text = unmeasured.json().to_string_compact();
        assert!(text.contains(r#""allocs_per_event":null"#), "{text}");
    }

    #[test]
    fn results_json_refuses_unsupported_percentile_labels() {
        let two = Section {
            m: Measured { ns: vec![100, 200], events_per_iter: 1000 },
            allocs: None,
        };
        let s = two.json().to_string_compact();
        assert!(s.contains(r#""ns_p50":"#), "{s}");
        assert!(!s.contains("ns_p99"), "2 iters cannot support a p99 label: {s}");
        let one = Section {
            m: Measured { ns: vec![100], events_per_iter: 1000 },
            allocs: None,
        };
        let s = one.json().to_string_compact();
        assert!(!s.contains("ns_p50") && !s.contains("ns_p99"), "{s}");
        assert!(s.contains(r#""ns_best":100"#), "{s}");
    }

    #[test]
    fn profile_flags_parse_and_conflict() {
        let a = parse(&["--profile-out", "profiles"]).unwrap();
        assert_eq!(a.profile_out.as_deref(), Some("profiles"));
        assert!(a.profile, "--profile-out implies --profile");
        let a = parse(&["--profile-snapshot"]).unwrap();
        assert!(a.profile_snapshot && a.profile);
        assert_eq!(
            parse(&["--profile-out"]).unwrap_err(),
            "--profile-out needs a directory argument"
        );
        assert!(parse(&["--gate", "--profile-snapshot"])
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    fn leaf(name: &str, excl: u64) -> prof::ProfNode {
        prof::ProfNode {
            name: name.into(),
            count: 1,
            incl_ns: excl,
            excl_ns: excl,
            allocs: 0,
            children: Vec::new(),
        }
    }

    #[test]
    fn profile_share_sums_label_occurrences_across_the_tree() {
        let root = prof::ProfNode {
            name: "run.scalar".into(),
            count: 1,
            incl_ns: 1000,
            excl_ns: 100,
            allocs: 0,
            children: vec![
                leaf("hmc.access", 300),
                prof::ProfNode {
                    name: "dispatch.mem_done".into(),
                    count: 1,
                    incl_ns: 600,
                    excl_ns: 500,
                    allocs: 0,
                    children: vec![leaf("hmc.access", 100)],
                },
            ],
        };
        let report = prof::ProfReport { threads: 1, roots: vec![root], counters: Vec::new() };
        let share = profile_share(&report, "hmc.access");
        assert!((share - 0.4).abs() < 1e-12, "{share}");
        assert_eq!(profile_share(&report, "absent.phase"), 0.0);
    }

    #[test]
    fn share_verdict_gates_relative_growth() {
        let snap = snapshot_json(0.08);
        // Within tolerance (and shrinking) passes with a report line.
        assert!(share_verdict(BENCH_NAME, 0.06, &snap).is_ok());
        assert!(share_verdict(BENCH_NAME, 0.085, &snap).is_ok());
        // >10% relative growth fails.
        let msg = share_verdict(BENCH_NAME, 0.09, &snap).unwrap_err();
        assert!(msg.contains("profile regression"), "{msg}");
    }

    #[test]
    fn share_verdict_fails_when_the_snapshot_lacks_the_loop() {
        let msg = share_verdict("other_bench", 0.01, &snapshot_json(0.08)).unwrap_err();
        assert!(msg.contains("other_bench"), "{msg}");
        let no_share = Json::obj()
            .field("bench", BENCH_NAME)
            .field("shares", Json::obj().field("batched", 0.07));
        let msg = share_verdict(BENCH_NAME, 0.01, &no_share).unwrap_err();
        assert!(msg.contains("no scalar share"), "{msg}");
    }

    #[test]
    fn share_gate_fails_when_the_snapshot_file_is_missing_or_unreadable() {
        let missing = scratch("no-such-snapshot.json");
        let msg = share_against_file(0.01, &missing).unwrap_err();
        assert!(msg.contains(&missing.display().to_string()), "{msg}");

        let garbage = scratch("garbage-snapshot.json");
        std::fs::write(&garbage, "[1, 2").unwrap();
        let msg = share_against_file(0.01, &garbage).unwrap_err();
        assert!(msg.contains(&garbage.display().to_string()), "{msg}");

        let other = scratch("other-bench-snapshot.json");
        std::fs::write(&other, Json::obj().field("bench", "renamed").to_string_pretty()).unwrap();
        let msg = share_against_file(0.01, &other).unwrap_err();
        assert!(msg.contains(&other.display().to_string()), "{msg}");

        let good = scratch("good-snapshot.json");
        std::fs::write(&good, snapshot_json(0.08).to_string_pretty()).unwrap();
        assert!(share_against_file(0.01, &good).is_ok());
        for p in [garbage, other, good] {
            let _ = std::fs::remove_file(p);
        }
    }
}
