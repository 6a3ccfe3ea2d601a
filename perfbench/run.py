#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds
perfbench/bench.exe and bin/sf_nodehost.exe with dune, runs the workload
in a fresh process, and prints that process's report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

It adds the one check a single process cannot make: the program's
deterministic fingerprint for a (build, workload, seed, seconds) must
equal that of every earlier run, kept in perfbench/out/fingerprints.json.
A mismatch fails the run.

Exits 2 without a result line when the build or the program fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
TARGETS = ["./perfbench/bench.exe", "./bin/sf_nodehost.exe"]
# Each run must end within 180 s; stop the program well before that.
RUN_LIMIT_S = 170
WORKLOADS = ["membership-1m", "chaos-audit-10k", "spread-1m", "cluster-sat", "seq-audit-1k"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # The dune cache lives outside the tree; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        res = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                             env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        fail("dune not found")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("build failed")


def run_program(args):
    """Run the benchmark program in a fresh process; return its stdout lines."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("program ran past %d s" % RUN_LIMIT_S)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        fail("program exited with %d" % res.returncode)
    return lines


def check_fingerprint(key, fingerprint):
    """True when this fingerprint agrees with every earlier run of the key."""
    path = os.path.join(OUT, "fingerprints.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    earlier = seen.setdefault(key, fingerprint)
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return earlier == fingerprint


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    os.makedirs(OUT, exist_ok=True)
    *report, last = run_program(args)
    result = json.loads(last)
    for line in report:
        print(line)

    fingerprint = result.pop("fingerprint")
    if fingerprint is not None:
        with open(EXE, "rb") as f:
            build_id = hashlib.sha256(f.read()).hexdigest()[:16]
        key = "%s %s seed=%d seconds=%d" % (build_id, args.workload, args.seed, args.seconds)
        same = check_fingerprint(key, fingerprint)
        print("  check %-52s %s" % ("fingerprint equal to earlier runs of this seed",
                                     "ok" if same else "FAILED"))
        if not same:
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
