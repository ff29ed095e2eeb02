//! End-to-end `h2 run` CLI tests for trace mode (`--scenario`, `--mix`,
//! `--replay`) and the top-level usage text.
//!
//! Like `sweep_cli.rs`, these run the real binary (`CARGO_BIN_EXE_h2`).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const H2: &str = env!("CARGO_BIN_EXE_h2");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2-run-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn h2(work: &Path, args: &[&str]) -> Output {
    Command::new(H2)
        .args(args)
        .current_dir(work)
        .env("H2_RUNCACHE", "off")
        .output()
        .expect("spawn h2")
}

fn h2_ok(work: &Path, args: &[&str]) -> Output {
    let out = h2(work, args);
    assert!(
        out.status.success(),
        "h2 {args:?} failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The single Perfetto file a trace-mode run wrote into `dir`.
fn trace_doc(dir: &Path) -> String {
    let files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("no trace dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    assert!(files[0].to_string_lossy().ends_with(".trace.json"), "{files:?}");
    let doc = fs::read_to_string(&files[0]).unwrap();
    assert!(doc.contains("\"traceEvents\""), "not a Chrome trace: {}", files[0].display());
    doc
}

#[test]
fn top_level_usage_lists_the_trace_mode_flags() {
    let work = scratch("usage");
    let out = h2(&work, &[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in ["--scenario", "--mix", "--replay", "--capture", "--policy", "--scale", "--seed"] {
        assert!(err.contains(flag), "usage lacks {flag}:\n{err}");
    }
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn trace_mode_honours_trace_and_trace_sample() {
    let work = scratch("trace");
    // --mix: the flag may precede the subcommand.
    h2_ok(&work, &["--trace", "tr", "run", "--mix", "C1", "--capture", "c.h2trace"]);
    let every_64th = trace_doc(&work.join("tr"));
    // --replay, with the flag after the subcommand and a denser sample.
    h2_ok(&work, &["run", "--replay", "c.h2trace", "--trace", "tr8", "--trace-sample", "8"]);
    let every_8th = trace_doc(&work.join("tr8"));
    assert!(
        every_8th.len() > every_64th.len(),
        "--trace-sample 8 must trace more requests than the default 64"
    );
    // --scenario.
    let spec = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/inference_hpc_analytics.json");
    h2_ok(&work, &["--trace", "trs", "run", "--scenario", spec.to_str().unwrap()]);
    trace_doc(&work.join("trs"));
    let _ = fs::remove_dir_all(&work);
}
