#!/usr/bin/env python3
"""Checks that the benchmark's deterministic work counts repeat.

    python3 perfbench/repeat_check.py [--seed N] [WORKLOAD...]

Runs each workload's traced run twice with the same seed and compares the
counts a gate could use in place of wall-clock time: solver.queries.*,
term.compiled_evals, sygus.cegis_iters, ipc.shards and runtime.rules_fired.
Prints one line per count and exits 1 when a count listed as gateable in
perfbench/README.md differs between the two runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("solver.queries.", "term.compiled_evals", "sygus.cegis_iters",
          "ipc.shards", "runtime.rules_fired")
WORKLOADS = ("invert-corpus", "invert-multistate", "serve-skewed",
             "stream-codec")
# Counts that vary between runs of the same seed, with the reason; a gate
# may use only the others (see perfbench/README.md).
BANKS = ("per-rule CEGIS workers share enumeration banks, and which worker "
         "fills a bank first decides later reuse (bank.worker.reuse_hits "
         "varies with it); seen on the UTF-8 coders at --jobs 4")
SHARDS = ("a shard goes to the first free worker process, so which "
          "worker's session caches see a pair chunk depends on thread "
          "timing; a query one worker already answered is a cache hit there "
          "but a fresh query in the other; seen on ST 2 and a 2-state LIA "
          "machine")
ADVISORY = {
    ("invert-corpus", "solver.queries.ambiguity"):
        "the parallel ambiguity frontier expansion at --jobs 4 stops after "
        "a varying number of pooled queries; seen on BASE32 encoder",
    ("invert-corpus", "solver.queries.cegis"): BANKS,
    ("invert-corpus", "sygus.cegis_iters"): BANKS,
    ("invert-corpus", "term.compiled_evals"): BANKS,
    ("invert-multistate", "solver.queries.determinism"): SHARDS,
    ("invert-multistate", "solver.queries.ambiguity"): SHARDS,
    ("serve-skewed", ""): "the warm pool's state at each request depends on "
                          "which client thread reaches genicd first",
}


def advisory(workload, count):
    for (w, prefix), reason in ADVISORY.items():
        if w == workload and count.startswith(prefix):
            return reason
    return None


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    differs = False
    for w in args.workloads:
        a, b = traced(w, args.seed), traced(w, args.seed)
        for k in sorted(a):
            if not k.startswith(COUNTS):
                continue
            same = a[k]["value"] == b[k]["value"]
            reason = advisory(w, k)
            note = "repeats" if same else (
                "advisory: " + reason if reason else "DIFFERS")
            print("%-18s %-30s %14g %14g  %s" % (w, k, a[k]["value"],
                                                 b[k]["value"], note))
            differs |= not same and not reason
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
