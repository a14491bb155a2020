#!/usr/bin/env python3
"""Javelin benchmark: build it from source, run one workload, check the result.

Run from the repository root:

    python3 perfbench/run.py --workload cold --seed 20030422 --seconds 30 --trace 0
    python3 perfbench/run.py --workload offload --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload offload --seed 1 --seconds 1 --trace 0 --smoke
    python3 perfbench/run.py --record    # re-pin perfbench/reference.json

The simulator libraries and the perfbench binary are built with CMake into
.bench_build/ at the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A session
whose StrategyResult digest differs from perfbench/reference.json (pinned for
the default seed and one held-out seed) makes the run incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("steady", "cold", "offload")
DEFAULT_SEED = 20030422  # sim::kDefaultScenarioSeed
HELDOUT_SEED = 4242      # used only to confirm performance claims
RUN_TIMEOUT_S = 170
RECORD_TIMEOUT_S = 900


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def run_binary(args, timeout):
    """Run the benchmark binary; return its final JSON line as a dict."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1])


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def check_reference(workload, seed, cells):
    """Compare per-cell digests with the pinned ones; True when all agree.

    Seeds without a pinned reference pass: their runs are still checked by
    the golden models and the one- versus all-worker comparison.
    """
    pinned = load_reference().get(workload, {}).get(str(seed))
    if pinned is None:
        return True
    ok = True
    for idx, digest in cells.items():
        want = pinned["cells"][int(idx)]
        if digest != want:
            log(f"{workload} seed {seed} cell {idx}: digest {digest}, "
                f"reference {want}")
            ok = False
    return ok


def record():
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            log(f"recording {workload} seed {seed}")
            out = run_binary(["--workload", workload, "--seed", str(seed),
                              "--record"], RECORD_TIMEOUT_S)
            if not out["correct"]:
                raise RuntimeError(f"{workload} seed {seed} is not correct")
            cells = [out["cells"][str(i)] for i in range(len(out["cells"]))]
            reference[workload][str(seed)] = {"digest": out["digest"],
                                              "cells": cells}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    log(f"wrote {REFERENCE}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="three sessions of one app: a seconds-long self-test")
    p.add_argument("--record", action="store_true",
                   help="re-pin perfbench/reference.json from this build")
    a = p.parse_args()
    if not a.record and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0:
        p.error("--seed must be non-negative")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    try:
        if a.record:
            record()
            return 0
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", repr(a.seconds), "--trace", str(a.trace)]
        if a.smoke:
            args.append("--smoke")
        if a.trace:
            args += ["--spans", os.path.join(
                BUILD, f"spans-{a.workload}-{a.seed}.tsv")]
        out = run_binary(args, RUN_TIMEOUT_S)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1

    correct = out["correct"] and check_reference(a.workload, a.seed,
                                                 out["cells"])
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
