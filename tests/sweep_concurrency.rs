//! Sweep/store concurrency suite (tier 2).
//!
//! The sharded run store is shared mutable state: sweep workers in one
//! process and multiple `h2` processes may all read, publish, and
//! garbage-collect the same directory at once. These tests hammer one
//! store from many threads and from spawned child processes and assert
//! the safety contract: no torn entries ever become visible, no results
//! are lost, and sweep output is identical to a sequential run.

use h2_harness::cache::{Job, RunCache};
use h2_harness::sweep::store::ShardedStore;
use h2_harness::sweep::{run_sweep, spec::SweepSpec};
use h2_system::{PolicyKind, RunReport, SystemConfig};
use h2_trace::Mix;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2-sweep-conc-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One cheap real report to publish under many keys.
fn sample_report() -> RunReport {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = 100_000;
    let mut cache = RunCache::new();
    cache.run(&Job::new(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::NoPart))
}

/// A fresh run cache over the store at `dir` with a `workers`-thread pool,
/// as a new `h2 sweep --jobs workers` process would open it.
fn disk_cache(dir: &Path, workers: usize) -> RunCache {
    let mut cache = RunCache::with_disk_dir(dir).unwrap();
    cache.set_jobs(workers);
    cache
}

/// Files with extension `ext` anywhere in the store (shard dirs included).
fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == ext) {
                found.push(p);
            }
        }
    }
    found
}

const SPEC_JSON: &str = r#"{
  "name": "conc",
  "scale": "tiny",
  "mixes": ["C1"],
  "policies": ["NoPart", "WayPart"],
  "base": {"warmup_cycles": 50000, "measure_cycles": 100000},
  "search": {"kind": "grid", "params": {"seed": [1, 2]}}
}"#;

#[test]
fn threads_hammering_one_store_lose_nothing() {
    // 8 threads × (store + load) over 32 keys, all racing, including
    // same-key collisions. Every key must end up loadable and intact,
    // with no temp files or quarantined entries left behind.
    let dir = scratch("hammer");
    let store = Arc::new(ShardedStore::open(&dir).unwrap());
    let report = sample_report();
    let keys: Vec<u128> = (0..32u128).map(|i| (i << 120) | (i + 1)).collect();
    std::thread::scope(|s| {
        for t in 0..8 {
            let store = Arc::clone(&store);
            let report = report.clone();
            let keys = keys.clone();
            s.spawn(move || {
                for round in 0..6 {
                    for (i, &key) in keys.iter().enumerate() {
                        if (i + t + round) % 3 == 0 {
                            store.store(key, &report).unwrap();
                        } else if let Some(r) = store.load(key) {
                            // Torn reads would decode garbage or quarantine.
                            assert_eq!(r.cpu_instr, report.cpu_instr);
                        }
                    }
                }
            });
        }
    });
    // Make every key visible, then verify all 32 survive intact.
    for &key in &keys {
        store.store(key, &report).unwrap();
    }
    assert_eq!(store.entries(), keys.len());
    for &key in &keys {
        let r = store.load(key).expect("entry lost");
        assert_eq!(r.cpu_instr, report.cpu_instr);
    }
    assert_eq!(store.quarantined(), 0, "no torn entry was ever served");
    assert!(files_with_ext(&dir, "tmp").is_empty(), "no abandoned temps");
    assert!(files_with_ext(&dir, "bad").is_empty(), "no quarantined files");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_racing_writers_never_breaks_readers() {
    // One thread runs gc in a loop (tight byte budget, zero tmp TTL)
    // while others publish and read. Loads must only ever see intact
    // entries or misses — never a decode failure (quarantine) — and the
    // store must stay structurally clean afterwards.
    let dir = scratch("gc-race");
    let store = Arc::new(ShardedStore::open(&dir).unwrap());
    let report = sample_report();
    std::thread::scope(|s| {
        for t in 0..4u128 {
            let store = Arc::clone(&store);
            let report = report.clone();
            s.spawn(move || {
                for i in 0..40u128 {
                    let key = (t * 40 + i) << 96 | 0xbeef;
                    store.store(key, &report).unwrap();
                    if let Some(r) = store.load(key) {
                        assert_eq!(r.cpu_instr, report.cpu_instr);
                    }
                }
            });
        }
        let gc_store = Arc::clone(&store);
        s.spawn(move || {
            for _ in 0..10 {
                let r = gc_store.gc(4096, std::time::Duration::ZERO).unwrap();
                assert_eq!(r.bad_removed, 0, "gc found quarantined entries");
            }
        });
    });
    assert_eq!(store.quarantined(), 0, "a load hit a torn entry during gc");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_results_identical_sequential_vs_concurrent() {
    // The same spec, run sequentially cold, concurrently cold (fresh
    // store), and concurrently warm (shared store), must render the same
    // summary bytes — worker count, completion order, and cache warmth
    // are invisible in the output.
    let spec = SweepSpec::parse(SPEC_JSON).unwrap();
    let dir_seq = scratch("seq");
    let dir_par = scratch("par");

    let seq = run_sweep(&spec, &mut disk_cache(&dir_seq, 1), &mut Vec::new()).unwrap();
    assert_eq!(seq.executed, 4);
    let par_cold = run_sweep(&spec, &mut disk_cache(&dir_par, 4), &mut Vec::new()).unwrap();
    assert_eq!(par_cold.executed, 4);
    let par_warm = run_sweep(&spec, &mut disk_cache(&dir_par, 4), &mut Vec::new()).unwrap();
    assert_eq!(par_warm.executed, 0, "warm rerun fully cached");
    assert_eq!(par_warm.disk_hits, 4);

    assert_eq!(seq.table.render(), par_cold.table.render());
    assert_eq!(seq.table.render(), par_warm.table.render());
    assert_eq!(seq.table.to_csv(), par_warm.table.to_csv());
    let _ = fs::remove_dir_all(&dir_seq);
    let _ = fs::remove_dir_all(&dir_par);
}

/// The `h2` binary next to this test executable, if it has been built.
/// Tier-1 (`cargo test -q` from the root) does not guarantee binaries of
/// dependency packages, so the child-process test degrades to a skip; the
/// harness-package CLI suite (`crates/harness/tests/sweep_cli.rs`) always
/// has the binary via `CARGO_BIN_EXE_h2` and repeats this scenario.
fn h2_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let debug_dir = exe.parent()?.parent()?;
    let candidate = debug_dir.join(format!("h2{}", std::env::consts::EXE_SUFFIX));
    candidate.is_file().then_some(candidate)
}

#[test]
fn two_h2_processes_share_one_store_safely() {
    let Some(h2) = h2_binary() else {
        eprintln!("skipping: h2 binary not built (run `cargo build` first)");
        return;
    };
    let work = scratch("procs");
    let cache_dir = work.join("cache");
    fs::create_dir_all(&work).unwrap();
    let spec_path = work.join("spec.json");
    fs::write(&spec_path, SPEC_JSON).unwrap();

    // Two child processes race the same cold store on the same spec.
    let children: Vec<std::process::Child> = (0..2)
        .map(|i| {
            std::process::Command::new(&h2)
                .arg("sweep")
                .arg(&spec_path)
                .arg("--out")
                .arg(work.join(format!("progress-{i}.jsonl")))
                .arg("--jobs")
                .arg("2")
                .current_dir(&work)
                .env("H2_RUNCACHE", &cache_dir)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn h2")
        })
        .collect();
    let outputs: Vec<std::process::Output> =
        children.into_iter().map(|c| c.wait_with_output().unwrap()).collect();
    for (i, out) in outputs.iter().enumerate() {
        assert!(
            out.status.success(),
            "child {i} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Both children printed the same deterministic summary table (the
    // text before their differing output paths).
    let table_of = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        stdout.split("csv:").next().unwrap().to_string()
    };
    assert_eq!(table_of(&outputs[0]), table_of(&outputs[1]));
    assert!(!table_of(&outputs[0]).trim().is_empty());

    // The shared store holds exactly the 4 unique jobs, intact.
    let store = ShardedStore::open(&cache_dir).unwrap();
    assert_eq!(store.entries(), 4);
    assert!(files_with_ext(&cache_dir, "tmp").is_empty());
    assert!(files_with_ext(&cache_dir, "bad").is_empty());

    // An in-process warm sweep over the same store executes nothing and
    // reproduces the children's table.
    let spec = SweepSpec::parse(SPEC_JSON).unwrap();
    let warm = run_sweep(&spec, &mut disk_cache(&cache_dir, 2), &mut Vec::new()).unwrap();
    assert_eq!(warm.executed, 0, "every child result was reused");
    assert_eq!(warm.disk_hits, 4);
    assert_eq!(format!("{}\n", warm.table.render()), table_of(&outputs[0]));
    let _ = fs::remove_dir_all(&work);
}
