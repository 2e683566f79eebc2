#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report,
per end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) beside the
bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10 [--workloads release,seal] [--seconds N]
                                [--first-seed N] [--against RAW.json]

Runs are interleaved across workloads (run i of every workload, then
run i+1), seed = first seed + i. host.probe_ms and host.steal_pct from
each run's diagnostics are reported too, to tell host drift from
benchmark noise.
Writes the raw runs to .perfbench/steady-<time>.json. With --against,
it also compares each median with that of an earlier set's raw runs and
reports how much worse it got, as a share of the earlier median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace=0):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    diag = next((json.loads(l)["diagnostics"] for l in lines if l.startswith('{"diagnostics"')), {})
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, diag, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def medians(runs, names):
    out = {}
    for w, rs in runs.items():
        good = [r for r in rs if r["result"]]
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in good]
            if vals:
                out[(w, name)] = statistics.median(vals)
    return out


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--against", help="raw runs of an earlier set, to compare medians with")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            t = time.time()
            code, diag, result = run_once(w, args.first_seed + i, args.seconds)
            runs[w].append({"seed": args.first_seed + i, "exit": code, "wall_s": time.time() - t,
                            "diagnostics": diag, "result": result})
            m = result["metrics"] if result else {}
            print("%-8s seed %3d exit %d failed %s probe %.2f/%.2f steal %.2f%%  %s" % (
                w, args.first_seed + i, code, result and result["failed"],
                diag.get("host.probe_ms_start", 0), diag.get("host.probe_ms_end", 0),
                diag.get("host.steal_pct", 0),
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in m.items())), flush=True)
    worst = 0.0
    for w in workloads:
        print("\n%s" % w)
        print("  %-16s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        good = [r for r in runs[w] if r["result"]]
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in good]
            if len(vals) < 2:
                continue
            q1, q2, q3, s = spread(vals)
            worst = max(worst, s / bounds[name])
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %7.3f" % (name, q1, q2, q3, s, bounds[name]))
        for diag_name, key in (("host.probe_ms", "host.probe_ms_start"),
                               ("host.steal_pct", "host.steal_pct")):
            vals = [r["diagnostics"].get(key, 0) for r in good]
            if len(vals) >= 2:
                q1, q2, q3, s = spread(vals)
                print("  %-16s %12.5g %12.5g %12.5g %8.4f" % (diag_name, q1, q2, q3, s))
    print("\nworst spread/bound: %.3f" % worst)
    if args.against:
        before = medians(json.load(open(args.against)), bounds)
        now = medians(runs, bounds)
        print("\nmedians against %s" % args.against)
        print("  %-8s %-16s %12s %12s %8s %7s" % ("workload", "metric", "earlier", "now", "worse", "bound"))
        worst = 0.0
        for (w, name), m in sorted(now.items()):
            if (w, name) not in before or not before[(w, name)]:
                continue
            b = before[(w, name)]
            worse = (m - b) / b if better[name] == "lower" else (b - m) / b
            worst = max(worst, worse / bounds[name])
            print("  %-8s %-16s %12.5g %12.5g %+8.3f %7.3f" % (w, name, b, m, worse, bounds[name]))
        print("worst change/bound: %.3f" % worst)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    out = os.path.join(ROOT, ".perfbench", "steady-%d.json" % int(time.time()))
    json.dump(runs, open(out, "w"), indent=1)
    print("raw runs: %s" % out)


if __name__ == "__main__":
    main()
