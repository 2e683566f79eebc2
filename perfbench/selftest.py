#!/usr/bin/env python3
"""Self-test of the benchmark: a few seconds of each workload at toy64.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it asserts that an
untraced run prints every end-to-end metric of BENCHMARK.json with its
unit and a positive value, that no op fails, that every correctness gate
fired (the receiver's path rejected what it must), and that a traced run
prints every per-layer metric and its replays reproduced their results.
Finally it checks that the benchmark fails, without a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
SECONDS = 3


def run(workload, trace, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds",
         str(SECONDS), "--trace", str(trace), "--params", "toy64"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    return p


def parse(p):
    lines = p.stdout.splitlines()
    diag = next(json.loads(l)["diagnostics"] for l in lines if l.startswith('{"diagnostics"'))
    return diag, json.loads(lines[-1])


def check_metrics(result, wanted, what):
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, "%s: metric %s missing" % (what, m["name"])
        v = got[m["name"]]
        assert v["unit"] == m["unit"], "%s: %s unit %s" % (what, m["name"], v["unit"])
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            "%s: %s value %r" % (what, m["name"], v["value"])
    assert set(got) == {m["name"] for m in wanted}, "%s: unexpected metrics %s" % (
        what, sorted(set(got) - {m["name"] for m in wanted}))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in (w["name"] for w in spec["workloads"]):
        p = run(w, 0)
        assert p.returncode == 0, "%s: exit %d\n%s" % (w, p.returncode, p.stderr)
        diag, result = parse(p)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
        check_metrics(result, spec["end_to_end"], w)
        for m in spec["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, "%s: %s is 0" % (w, m["name"])
        assert diag["gates"] and all(diag["gates"].values()), "%s gates: %s" % (w, diag["gates"])
        print("ok  %-8s untraced: %d ops, gates %s" % (w, result["attempted"], sorted(diag["gates"])))

        p = run(w, 1)
        assert p.returncode == 0, "%s traced: exit %d\n%s" % (w, p.returncode, p.stderr)
        diag, result = parse(p)
        assert result["correct"] and result["failed"] == 0, result
        check_metrics(result, spec["per_layer"], w + " traced")
        assert diag["replayed_ops"] > 0 and not diag["problems"], diag
        assert os.path.exists(os.path.join(ROOT, diag["trace_file"])), diag["trace_file"]
        print("ok  %-8s traced: %d per-layer metrics, %d ops replayed, trace %s" % (
            w, len(result["metrics"]), diag["replayed_ops"], diag["trace_file"]))

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    p = run("seal", 0, cwd=bare)
    printed = [l for l in p.stdout.splitlines() if l.startswith('{"correct"')]
    assert p.returncode != 0 and not printed, "bare directory: exit %d, %s" % (p.returncode, printed)
    shutil.rmtree(bare)
    print("ok  bare directory: exit %d, no result" % p.returncode)


if __name__ == "__main__":
    main()
