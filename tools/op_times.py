"""Per-kind busy times of a benchmark workload's operations, as minima over
repeats.

    python3 tools/op_times.py --workload invariants --seeds 1 2 3 \
        --rounds 12 --repeats 7

Run from the root of a source checkout; afflat is imported from ./src.  The
operations are the benchmark's own (perfbench/run.py's Batch,
perfbench/workloads.py), made from the seed as tools/identity_hashes.py
makes them.  Each op runs once through the benchmark's oracle (a failure is
reported), then is timed --repeats times in a row, and its least time is
kept.  For each seed, and over all seeds, the script prints per op kind the
op count, the sum of those minima and its share, and the ops per busy
second of the minima.  On a shared host a single pass over a batch spreads
widely between runs of one tree, and the minimum of each op is much
steadier, so two trees can be told apart on a few hundred ops.  An op that
holds its inputs as objects keeps their first-use caches between repeats;
the CLI ops of `invariants` parse their files afresh on every call.
perfbench is only imported, never written: the CLI inputs go to a temporary
directory.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench  # noqa: E402


def seed_minima(workload, seed, rounds, repeats, afflat):
    """[(kind, least seconds)] per op of the seed's rounds 0 .. rounds-1,
    and the number of ops whose oracle failed."""
    workdir = tempfile.mkdtemp(prefix="op-times-%s-" % workload)
    try:
        batch = perfbench.Batch(workload, seed, afflat, workdir)
        for _ in range(rounds):
            batch.add_round()
        out, failed = [], 0
        for op in batch.ops:
            ok, best, _ = perfbench.execute(op)
            failed += not ok
            for _ in range(repeats - 1):
                t0 = time.perf_counter()
                op.call()
                best = min(best, time.perf_counter() - t0)
            out.append((op.kind, best))
        return out, failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(title, minima):
    by = defaultdict(list)
    for kind, t in minima:
        by[kind].append(t)
    busy = sum(t for _, t in minima)
    print("%s: %d ops, busy %.3f s, %.1f ops per busy second"
          % (title, len(minima), busy, len(minima) / busy))
    for kind, ts in sorted(by.items(), key=lambda kv: -sum(kv[1])):
        print("  %-28s %5d ops %9.4f s %5.1f%%"
              % (kind, len(ts), sum(ts), 100 * sum(ts) / busy))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=perfbench.WORKLOADS, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--rounds", type=int, default=12,
                    help="rounds per seed, 0 .. N-1 (default 12)")
    ap.add_argument("--repeats", type=int, default=7,
                    help="timed calls per op; the least is kept (default 7)")
    args = ap.parse_args()
    if args.rounds < 1 or args.repeats < 1:
        ap.error("--rounds and --repeats must be positive")
    afflat = perfbench.import_afflat()
    everything = []
    for seed in args.seeds:
        minima, failed = seed_minima(args.workload, seed, args.rounds,
                                     args.repeats, afflat)
        report("%s seed %d rounds 0-%d, min of %d, %d failed"
               % (args.workload, seed, args.rounds - 1, args.repeats, failed),
               minima)
        everything += minima
    if len(args.seeds) > 1:
        report("%s all seeds" % args.workload, everything)
    return 0


if __name__ == "__main__":
    sys.exit(main())
