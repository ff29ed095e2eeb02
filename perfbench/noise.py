#!/usr/bin/env python3
"""Noise record: run each workload on several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) next to the metric's bound.

    python3 perfbench/noise.py [--runs 10] [--first-seed 1] [--workload W ...]
        [--json record.json] [--markdown perfbench/NOISE.md]
    python3 perfbench/noise.py --from-json record.json --markdown perfbench/NOISE.md

Quartiles are Python's `statistics.quantiles(values, n=4)`. Every run is a
full `perfbench/run.py` invocation with `run_seconds` from BENCHMARK.json.
Metrics the runs print but BENCHMARK.json does not gate are recorded too.
Exits 1 when a gated metric other than `setup_s` spreads by a third of its
bound or more.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    """One run; returns its summary line and its full result file."""
    cmd = [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    line = json.loads(r.stdout.strip().splitlines()[-1])
    result = ROOT / ".perfbench/results" / f"{workload}-seed{seed}-trace0.json"
    return line, json.loads(result.read_text())


def collect(spec, workloads, seeds):
    """Every end-to-end metric the runs print, gated by BENCHMARK.json or not."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in workloads:
        values, units, correct = {}, {}, True
        for seed in seeds:
            line, full = run_once(w, seed, spec["run_seconds"])
            record["provenance"] = full["provenance"]
            correct &= line["correct"] and line["failed"] == 0
            for name, m in full["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), file=sys.stderr, flush=True)
        rows = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            rows[name] = {"unit": units[name], "bound": bounds.get(name), "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": xs}
        record["workloads"][w] = {"all_correct": correct, "metrics": rows}
    return record


def markdown(record):
    prov = record["provenance"]
    seeds = record["seeds"]
    out = [f"Host: {prov['cpu_model']} x{prov['nproc']}, {prov['rustc']}, "
           f"rev {prov['git_rev'] or 'n/a'}, sources {prov['source_sha256'][:12]}, "
           f"last run {prov['utc']}.",
           f"{len(seeds)} runs per workload (seeds {seeds[0]}..{seeds[-1]}), "
           f"{record['run_seconds']} s each, `--trace 0`, one run at a time.", ""]
    for w, rec in record["workloads"].items():
        out += [f"### {w} (all outputs correct: {rec['all_correct']})", "",
                "| metric | unit | median | q1 | q3 | spread | bound | spread < bound/3 |",
                "|---|---|---|---|---|---|---|---|"]
        for name, r in rec["metrics"].items():
            bound = r["bound"]
            if bound is None:
                bound, third = "not gated", "—"
            else:
                third = "yes" if r["spread"] < bound / 3 else "NO"
            out.append(f"| {name} | {r['unit']} | {r['median']:.6g} | {r['q1']:.6g} | "
                       f"{r['q3']:.6g} | {r['spread']:.4f} | {bound} | {third} |")
        out += ["", "Per-run values, seed order:", ""]
        out += [f"- `{name}`: " + ", ".join(f"{x:.6g}" for x in r["values"])
                for name, r in rec["metrics"].items()]
        out.append("")
    return "\n".join(out)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all in BENCHMARK.json)")
    ap.add_argument("--json", help="write the record (every value) here")
    ap.add_argument("--from-json", help="render a record written by --json instead of running")
    ap.add_argument("--markdown", help="write the record as markdown tables here")
    args = ap.parse_args()

    if args.from_json:
        record = json.loads(Path(args.from_json).read_text())
    else:
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        record = collect(spec, workloads, seeds)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    text = markdown(record)
    print(text)
    if args.markdown:
        Path(args.markdown).write_text(text)
    steady = all(r["spread"] < r["bound"] / 3
                 for rec in record["workloads"].values()
                 for name, r in rec["metrics"].items()
                 if name != "setup_s" and r["bound"] is not None)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
