#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload it runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace T` once per seed, then prints, per metric, the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread:
(q3 - q1) / median. Run it from the repository root:

    python3 perfbench/spread.py --workloads soak,sched --seeds 1-10 --seconds 25

With --json FILE it also writes every run's result line and the summary.
With --baseline FILE it stores the summary (median and quartiles of every
metric) under FILE's "baseline" key, per workload and metric kind
(end_to_end for --trace 0, per_layer for --trace 1):

    python3 perfbench/spread.py --seeds 1-10 --trace 1 --baseline perfbench/baseline.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last), took


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="soak,sched,scale,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write all results and medians to this file")
    ap.add_argument("--baseline", help="store the medians and quartiles in this baseline file")
    ap.add_argument("extra", nargs="*", help="extra arguments passed to the benchmark")
    args = ap.parse_args()

    report = {}
    for w in args.workloads.split(","):
        runs = []
        for s in seeds_of(args.seeds):
            res, took = run_once(w, s, args.seconds, args.trace, args.extra)
            runs.append({"seed": s, "took_s": round(took, 2), "result": res})
            print(f"{w} seed {s}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} took {took:.1f} s", flush=True)
        summary = {}
        for name in sorted(runs[0]["result"]["metrics"]):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {w:6s} {name:30s} median {med:14.6f} {unit:9s} q1 {q1:14.6f} q3 {q3:14.6f} "
                  f"spread {spread:7.4f}", flush=True)
        report[w] = {"runs": runs, "summary": summary}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
        kind = "per_layer" if args.trace else "end_to_end"
        for w, r in report.items():
            base.setdefault("baseline", {}).setdefault(w, {})[kind] = {
                name: {"unit": m["unit"], **{k: round(m[k], 6) for k in ("median", "q1", "q3")}}
                for name, m in r["summary"].items()}
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
