//! `h2` — the experiment CLI.
//!
//! ```text
//! h2 list                           # show available experiments
//! h2 run fig5 [fig6 ...]            # run selected experiments
//! h2 run --telemetry <dir> fig9     # also dump per-run telemetry JSON
//! h2 run --trace <dir> fig9         # also dump Perfetto request traces
//! h2 run --profile <dir> fig9       # also dump a host-time self-profile
//! h2 run --scenario spec.json       # multi-tenant scenario run (DESIGN.md §18)
//! h2 run --mix C1 --capture t.h2trace  # capture a mix run's demand stream
//! h2 run --replay t.h2trace         # bit-identical replay from the capture
//! h2 all                            # run everything (Tables I-II, Figs 2, 5-11)
//! h2 fuzz --seeds 500               # deterministic simulation fuzzer (h2-check)
//! h2 fuzz --replay repro.json       # replay a committed reproducer
//! h2 bench [--gate|--baseline]      # hot-path bench / regression gate
//! h2 sweep spec.json [--jobs 4]     # sweep campaign on 4 workers (DESIGN.md §16)
//! h2 cache stats                    # inspect the persistent run store
//! h2 cache gc --max-bytes 512M      # LRU-evict the store down to a budget
//! ```
//!
//! Scale with `H2_PROFILE=quick|default|full`; `H2_VERBOSE=1` for progress.
//! CSVs are written to `results/`. Completed simulations persist in
//! `results/.runcache/` and are replayed on re-runs; set `H2_RUNCACHE=off`
//! to disable, or point it at an alternate directory.
//!
//! `--telemetry`, `--trace`, `--trace-sample` and `--profile <dir>` belong
//! to `h2 run` / `h2 all` and may appear before or after the subcommand;
//! any other subcommand rejects them (exit 2). `--jobs N` belongs to
//! `h2 sweep` alone: experiments run their jobs one at a time.
//!
//! `--telemetry <dir>` writes one machine-readable epoch-resolved timeline
//! per simulation run (`<mix>_<policy>_<key>.json`, schema documented in
//! `h2_system::telemetry`) — including runs replayed from the cache.
//!
//! `--trace <dir>` enables request-level causal tracing and writes one
//! Chrome Trace Event file per run (`<mix>_<policy>_<key>.trace.json`),
//! loadable at <https://ui.perfetto.dev>. `--trace-sample N` sets the
//! sampling rate (every `N`-th demand read; default 64). Cached runs that
//! were executed without tracing are transparently re-executed with it.
//!
//! `--profile <dir>` arms the host-side self-profiler (`h2_sim_core::prof`)
//! for the whole invocation and writes `profile.txt` / `profile.json` /
//! `profile.folded` into the directory (see DESIGN.md §17). The profile
//! covers *executed* simulations only — cache replays spend no simulator
//! time, so a fully warm run produces a near-empty profile.

use h2_harness::{
    run_experiment, take_flag, validate_run_ids, Profile, RunCache, ALL_EXPERIMENTS,
};
use std::path::{Path, PathBuf};

// With the `alloc-count` feature, every allocation in the process goes
// through the counting wrapper so `h2 bench` can report steady-state
// allocations per simulated event.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static GLOBAL: h2_harness::alloc_count::CountingAlloc =
    h2_harness::alloc_count::CountingAlloc;

/// Default request-trace sampling rate: every 64th demand read.
const DEFAULT_TRACE_SAMPLE: u64 = 64;

/// Value-taking output flags of `h2 run` / `h2 all`.
const RUN_FLAGS: [&str; 4] = ["--telemetry", "--trace", "--trace-sample", "--profile"];

const USAGE: &str = "usage: h2 list | h2 [--telemetry <dir>] [--trace <dir> [--trace-sample N]] [--profile <dir>] run <experiment>.. | h2 [run flags] run (--scenario <spec.json> | --mix <name> | --replay <in.h2trace>) [--capture <out.h2trace>] [--policy P] [--scale tiny|scaled|paper] [--seed N] | h2 all | h2 fuzz [--seeds N] [--time-budget SECS] [--replay FILE] | h2 bench [--gate|--baseline] [--iters N] [--profile] [--profile-out DIR] [--profile-snapshot] | h2 sweep <spec.json> [--out FILE] [--jobs N] | h2 cache stats|gc [--max-bytes N[K|M|G]] [--dir D]";

/// Output options of `h2 run` / `h2 all`, parsed from [`RUN_FLAGS`].
struct RunOpts {
    telemetry: Option<PathBuf>,
    trace: Option<(PathBuf, u64)>,
    profile: Option<PathBuf>,
}

impl RunOpts {
    fn take(args: &mut Vec<String>) -> Result<Self, String> {
        let telemetry = take_flag(args, "--telemetry")?.map(PathBuf::from);
        let trace_dir = take_flag(args, "--trace")?.map(PathBuf::from);
        let profile = take_flag(args, "--profile")?.map(PathBuf::from);
        let trace_sample = match take_flag(args, "--trace-sample")? {
            Some(v) => Some(v.parse::<u64>().map_err(|_| {
                format!("--trace-sample needs an unsigned integer, got '{v}'")
            })?),
            None => None,
        };
        if trace_sample.is_some() && trace_dir.is_none() {
            return Err("--trace-sample requires --trace <dir>".into());
        }
        let trace = trace_dir.map(|d| (d, trace_sample.unwrap_or(DEFAULT_TRACE_SAMPLE)));
        Ok(Self { telemetry, trace, profile })
    }
}

/// Print `msg` and exit with status 2 (bad invocation).
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile = Profile::from_env();

    // The subcommand is the first token that is not a run flag or its value.
    let mut at = 0;
    while args.get(at).is_some_and(|a| RUN_FLAGS.contains(&a.as_str())) {
        at += 2;
    }
    let cmd = if at < args.len() { args.remove(at) } else { String::new() };

    match cmd.as_str() {
        "list" => {
            println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
            println!("profile: {profile:?} (H2_PROFILE=quick|default|full)");
        }
        "run" | "all" => {
            let opts = RunOpts::take(&mut args).unwrap_or_else(|e| fail(&e));
            // Trace mode: `h2 run --scenario/--capture/--replay` (DESIGN.md §18).
            if cmd == "run" && h2_harness::trace_cli::is_trace_mode(&args) {
                std::process::exit(h2_harness::trace_cli::cmd_run_trace(
                    &args,
                    opts.telemetry.as_deref(),
                    opts.trace.as_ref().map(|(dir, n)| (dir.as_path(), *n)),
                    opts.profile.as_deref(),
                ));
            }
            if let Some(extra) = args.iter().find(|a| cmd == "all" || a.starts_with("--")) {
                fail(&format!("unknown argument '{extra}' ({USAGE})"));
            }
            let ids: Vec<&str> = match cmd.as_str() {
                "all" => ALL_EXPERIMENTS.to_vec(),
                _ => args.iter().map(String::as_str).collect(),
            };
            if let Err(e) = validate_run_ids(&ids) {
                fail(&e);
            }
            run_ids(&ids, &profile, &opts);
        }
        "fuzz" => std::process::exit(h2_harness::fuzz_cli::cmd_fuzz(&args)),
        "bench" => std::process::exit(h2_harness::hotbench::cmd_bench(&args)),
        "sweep" => std::process::exit(h2_harness::sweep::cmd_sweep(&args)),
        "cache" => std::process::exit(h2_harness::sweep::cmd_cache(&args)),
        _ => fail(&format!("{USAGE}\nexperiments: {}", ALL_EXPERIMENTS.join(" "))),
    }
}

fn run_ids(ids: &[&str], profile: &Profile, opts: &RunOpts) {
    let ran = h2_harness::profout::with_profile(opts.profile.as_deref(), || {
        let mut cache = RunCache::persistent();
        if let Some(dir) = &opts.telemetry {
            if let Err(e) = cache.set_telemetry_dir(dir) {
                fail(&format!("cannot create telemetry dir {}: {e}", dir.display()));
            }
        }
        if let Some((dir, sample)) = &opts.trace {
            if let Err(e) = cache.set_trace_dir(dir, *sample) {
                fail(&format!("cannot create trace dir {}: {e}", dir.display()));
            }
        }
        let t0 = std::time::Instant::now();
        let results_dir = Path::new("results");
        for id in ids {
            match run_experiment(id, profile, &mut cache) {
                Some(tables) => {
                    for t in tables {
                        println!("{}", t.render());
                        match t.write_csv(results_dir) {
                            Ok(p) => println!("csv: {}\n", p.display()),
                            Err(e) => eprintln!("csv write failed: {e}"),
                        }
                    }
                }
                None => fail(&format!("unknown experiment '{id}' (see `h2 list`)")),
            }
        }
        eprintln!(
            "[h2] {} experiments in {:.0}s: {}",
            ids.len(),
            t0.elapsed().as_secs_f64(),
            cache.summary()
        );
    });
    if let Err(e) = ran {
        fail(&e);
    }
}
