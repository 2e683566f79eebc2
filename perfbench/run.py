#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload release --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/perfbench.exe with dune,
runs it with the same arguments and passes its output through; the last
line of stdout is the result object. Exits non-zero, without a result,
when the repository sources are missing, the build fails, the program
crashes or overruns its time limit. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def reap_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait
    until the kernel reports it empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["release", "catchup", "seal"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--params", default="mid128")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, "repository sources not found (%s missing)" % needed)
    # Keep every file the build writes inside the checkout: no shared
    # dune cache, compiler temporaries under .perfbench/.
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail(2, "build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--params", args.params]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail(3, "run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        reap_group(proc.pid)

    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(4, "program exited %d without a result" % proc.returncode)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
