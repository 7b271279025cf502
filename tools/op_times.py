"""Per-kind busy times of a benchmark workload's operations, as minima over
repeats.

    python3 tools/op_times.py --workload invariants --seeds 1 2 3 \
        --rounds 12 --repeats 7
    python3 tools/op_times.py --workload polyhedra --against ../parent

Run from the root of a source checkout; afflat is imported from ./src.  The
operations are the benchmark's own (perfbench/run.py's Batch,
perfbench/workloads.py), made from the seed as tools/identity_hashes.py
makes them.  Each op is called --repeats times in a row, the first call
through the benchmark's oracle (a failure is reported), and its least
time is kept.  For each seed, and over all seeds, the script prints per
op kind the op count, the sum of those minima and its share, and the ops
per busy second of the minima.  On a shared host a single pass over a batch spreads
widely between runs of one tree, and the minimum of each op is much
steadier, so two trees can be told apart on a few hundred ops.  An op that
holds its inputs as objects keeps their first-use caches between repeats;
the CLI ops of `invariants` parse their files afresh on every call.
perfbench is only imported, never written: the CLI inputs go to a temporary
directory.

--against PATH compares two trees in one process: the afflat package of
the checkout at PATH (its src/afflat) and this tree's are copied into a
temporary directory under two package names (the package imports itself
only relatively), and each builds the same batch.  Every op is timed on
both sides, the side that goes first alternating from repeat to repeat
and from op to op, so both see the same host.  Per op kind, and over all
ops, the script prints the busy time of each side and the change/parent
ratio, this tree being the change.  Under each all-ops line it prints the
spread of that ratio: the min, median and max over the repeats of the
change/parent ratio of one repeat's all-ops times (repeat 0 being the
checked call), so a ratio can be told apart from the noise between runs.

--runs N (with --against) makes N such full passes, each building its
batches afresh, and prints each pass's report under a "run i of N" line;
then, over all seeds, the median of the N passes' change/parent ratios,
with their min and max, over all ops and per op kind.  One pass spreads
about +-1% between runs of one pair of trees, the width of a 1.01 bar;
the median of a few passes is steadier.  With the default of 1 the output
is the single pass's report alone.

    python3 tools/op_times.py --workload polyhedra --against ../parent \
        --seeds 1 2 --runs 3
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench  # noqa: E402


def import_copy(package_dir, name, tmp):
    """The afflat package at package_dir, copied to tmp/name and imported
    as name, with its cli module."""
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SystemExit("no afflat package at %s" % package_dir)
    shutil.copytree(package_dir, os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(name + ".cli")
    return importlib.import_module(name)


def paired_minima(workload, seed, rounds, repeats, sides):
    """[(kind, least seconds per side)] per op of the seed's rounds
    0 .. rounds-1, built and timed on each afflat package of sides, the
    failed oracle checks per side and, per repeat, the seconds per side
    summed over all ops.  The first repeat of each op is the checked call;
    with two sides, the side that goes first alternates."""
    workdirs = [tempfile.mkdtemp(prefix="op-times-%s-" % workload)
                for _ in sides]
    try:
        batches = [perfbench.Batch(workload, seed, afflat, wd)
                   for afflat, wd in zip(sides, workdirs)]
        for batch in batches:
            for _ in range(rounds):
                batch.add_round()
        out, failed = [], [0] * len(sides)
        sums = [[0.0] * len(sides) for _ in range(repeats)]
        for i, ops in enumerate(zip(*(b.ops for b in batches))):
            best = [None] * len(sides)
            for r in range(repeats):
                order = range(len(sides))
                for k in (order if (i + r) % 2 == 0 else reversed(order)):
                    if r == 0:
                        ok, dt, _ = perfbench.execute(ops[k])
                        failed[k] += not ok
                    else:
                        t0 = time.perf_counter()
                        ops[k].call()
                        dt = time.perf_counter() - t0
                    best[k] = dt if best[k] is None else min(best[k], dt)
                    sums[r][k] += dt
            out.append((ops[0].kind, best))
        return out, failed, sums
    finally:
        for wd in workdirs:
            shutil.rmtree(wd, ignore_errors=True)


def report_pairs(title, minima, sums):
    by = defaultdict(lambda: [0, 0.0, 0.0])
    for kind, (tp, tc) in minima:
        for key in (kind, None):
            by[key][0] += 1
            by[key][1] += tp
            by[key][2] += tc
    n, busy_p, busy_c = by.pop(None)
    print("%s: %d ops, busy parent %.3f s, change %.3f s, change/parent %.3f"
          % (title, n, busy_p, busy_c, busy_c / busy_p))
    ratios = [tc / tp for tp, tc in sums]
    print("  per-repeat change/parent over %d repeats: min %.3f, median "
          "%.3f, max %.3f" % (len(ratios), min(ratios),
                              statistics.median(ratios), max(ratios)))
    for kind, (n, tp, tc) in sorted(by.items(), key=lambda kv: -kv[1][1]):
        print("  %-28s %5d ops %9.4f s %9.4f s %6.3f"
              % (kind, n, tp, tc, tc / tp))


def against(args):
    tmp = tempfile.mkdtemp(prefix="op-times-packages-")
    try:
        sys.path.insert(0, tmp)
        sides = [import_copy(os.path.join(args.against, "src", "afflat"),
                             "afflat_parent", tmp),
                 import_copy(os.path.join(ROOT, "src", "afflat"),
                             "afflat_change", tmp)]
        passes = []
        for run in range(args.runs):
            if args.runs > 1:
                print("run %d of %d" % (run + 1, args.runs))
            passes.append(against_pass(args, sides))
        if args.runs > 1:
            report_median(args.workload, passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def against_pass(args, sides):
    """One full pass of --against over every seed, reported as it goes;
    returns the paired minima of all seeds' ops."""
    everything = []
    total = [[0.0, 0.0] for _ in range(args.repeats)]
    for seed in args.seeds:
        minima, failed, sums = paired_minima(
            args.workload, seed, args.rounds, args.repeats, sides)
        report_pairs("%s seed %d rounds 0-%d, min of %d, failed: "
                     "parent %d, change %d"
                     % (args.workload, seed, args.rounds - 1,
                        args.repeats, *failed), minima, sums)
        everything += minima
        total = [[a + b for a, b in zip(t, u)]
                 for t, u in zip(total, sums)]
    if len(args.seeds) > 1:
        report_pairs("%s all seeds" % args.workload, everything, total)
    return everything


def report_median(workload, passes):
    """The change/parent busy ratio of each pass, over all ops and per op
    kind: its median over the passes, with the min and max; kinds in order
    of their parent busy time over all passes."""
    ratios = defaultdict(list)
    parent = defaultdict(float)
    for minima in passes:
        by = defaultdict(lambda: [0.0, 0.0])
        for kind, (tp, tc) in minima:
            for key in (kind, None):
                by[key][0] += tp
                by[key][1] += tc
        for key, (tp, tc) in by.items():
            ratios[key].append(tc / tp)
            parent[key] += tp
    line = "%6.3f (min %.3f, max %.3f)"

    def spread(rs):
        return statistics.median(rs), min(rs), max(rs)

    print(("%s all seeds, median of %d runs: change/parent " + line)
          % ((workload, len(passes)) + spread(ratios.pop(None))))
    for kind in sorted(ratios, key=lambda k: -parent[k]):
        print(("  %-28s " + line) % ((kind,) + spread(ratios[kind])))


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
    ap.add_argument("--against", metavar="PATH",
                    help="a source checkout to time this tree against, "
                         "op by op, alternating the sides")
    ap.add_argument("--runs", type=int, default=1,
                    help="with --against, full passes whose change/parent "
                         "ratios are reported by their median (default 1)")
    args = ap.parse_args()
    if args.rounds < 1 or args.repeats < 1 or args.runs < 1:
        ap.error("--rounds, --repeats and --runs must be positive")
    if args.runs > 1 and not args.against:
        ap.error("--runs needs --against")
    if args.against:
        return against(args)
    afflat = perfbench.import_afflat()
    everything = []
    for seed in args.seeds:
        minima, failed, _ = paired_minima(args.workload, seed, args.rounds,
                                          args.repeats, [afflat])
        minima = [(kind, best) for kind, (best,) in minima]
        report("%s seed %d rounds 0-%d, min of %d, %d failed"
               % (args.workload, seed, args.rounds - 1, args.repeats,
                  failed[0]), minima)
        everything += minima
    if len(args.seeds) > 1:
        report("%s all seeds" % args.workload, everything)
    return 0


if __name__ == "__main__":
    sys.exit(main())
