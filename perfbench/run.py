#!/usr/bin/env python3
"""Run the benchmark of record: build it from source, run one workload (or
all three), check its outputs and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deepq|tenants|fig10|all \
        [--seed N] [--seconds S] [--trace 0|1]

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. The last line of standard output is one JSON object
with exactly the keys `correct`, `attempted`, `failed` and `metrics`. A
full result file with every sample and the host's provenance is written to
`.perfbench/results/`; run stores and CSVs live in a temporary directory
under `.perfbench/` that is removed before exit.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deepq", "tenants", "fig10")
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 42


def fail(msg, code=2):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=3000)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    return target / "release" / "h2-perfbench"


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(seed):
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "git_rev": rev,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "rustc": capture(["rustc", "--version"]),
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def bench_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, workload, args, scratch_root):
    """Run one workload; returns the binary's full JSON result."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--scratch", str(scratch)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: benchmark exited {r.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def contract_line(result, wanted):
    """The summary line: exactly correct/attempted/failed/metrics,
    with every BENCHMARK.json metric of this mode present."""
    metrics, correct = {}, bool(result["correct"])
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or "value" not in got or got["unit"] != m["unit"]:
            print(f"  MISSING METRIC: {m['name']} ({m['unit']})")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("crates", "results", "examples", "BENCHMARK.json"):
        if not (ROOT / need).exists():
            fail(f"{ROOT / need} is missing: run from a full checkout")
    wanted = bench_metrics(args.trace)
    binary = build()
    out_dir = ROOT / ".perfbench"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    print(f"perfbench: seed {args.seed}, {args.seconds} s per workload, trace {args.trace}; "
          f"host {prov['cpu_model']} x{prov['nproc']}, {prov['rustc']}, "
          f"rev {prov['git_rev'] or 'n/a'} (src {prov['source_sha256'][:12]})")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for w in workloads:
        print(f"== {w} ==")
        result = run_workload(binary, w, args, out_dir)
        line = contract_line(result, wanted)
        lines[w] = line
        path = out_dir / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"provenance": prov, "summary": line, "result": result},
                                   indent=1) + "\n")
        print(f"  result file: {path.relative_to(ROOT)}")

    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
        return
    print(json.dumps({
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
