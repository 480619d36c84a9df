#!/usr/bin/env python3
"""Build and run the GR-T benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet-hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a GR-T checkout: it builds perfbench/grtbench.exe
from source with dune (into .bench_build/), runs the workload in a fresh
process, and prints the program's table, a `stamp` line and, last, one JSON
result line. Untraced runs time the workload's set-up in SETUP_REPS fresh
processes (so every set-up is memo-cold) and report the median. `--workload
all` runs every workload, each in its own fresh process. The exit code is
non-zero when the build fails or any output check misses.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["fleet-hot", "fleet-churn", "replay-tee"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "grtbench.exe")
SETUP_REPS = 3
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("perfbench/dune")):
        die("run from the root of a GR-T checkout (dune-project, lib/ and perfbench/dune not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/grtbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed")


def source_stamp():
    """The commit, when the checkout is a git work tree, and a digest of the
    sources the benchmark builds from, which identifies the code either way."""
    commit = "none"
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                head = f.read().strip()
        commit = head
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return commit, h.hexdigest()[:16]


def run_exe(args):
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(args))
    lines = p.stdout.splitlines()
    if not lines:
        die("%s printed nothing (exit %d)" % (" ".join(args), p.returncode))
    try:
        return p.returncode, lines[:-1], json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines), file=sys.stderr)
        die("%s did not end with a JSON line" % " ".join(args))


def run_workload(workload, seed, seconds, trace, stamp):
    common = ["--workload", workload, "--seed", str(seed)]
    rc, lines, result = run_exe(["run"] + common + ["--seconds", repr(seconds), "--trace", str(trace)])
    setups = []
    if trace == 0 and "setup_s" in result["metrics"]:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_REPS - 1):
            _, _, s = run_exe(["setup"] + common)
            setups.append(s["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines:
        if line.startswith("stamp "):
            st = json.loads(line[len("stamp "):])
            st.update(stamp)
            st["setup_s_runs"] = setups
            line = "stamp " + json.dumps(st)
        print(line)
    if setups:
        print("%-12s %-18s %14.6g s  (median of %d fresh processes)"
              % (workload, "setup_s", result["metrics"]["setup_s"]["value"], len(setups)))
    return rc == 0 and result["correct"], result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    commit, digest = source_stamp()
    stamp = {"commit": commit, "source_sha256_16": digest}
    if a.workload != "all":
        ok, result = run_workload(a.workload, a.seed, a.seconds, a.trace, stamp)
        print(json.dumps(result))
        sys.exit(0 if ok else 1)
    # Every workload, each in its own fresh process; the last line merges
    # their results with metric names prefixed by the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        ok, r = run_workload(w, a.seed, a.seconds, a.trace, stamp)
        merged["correct"] = merged["correct"] and ok
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            merged["metrics"][w + "." + k] = v
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
