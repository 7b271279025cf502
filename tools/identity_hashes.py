"""Identity hashes of a benchmark workload's results.

    python3 tools/identity_hashes.py --workload polyhedra --seeds 1 2 3 \
        --rounds 20
    python3 tools/identity_hashes.py --workload all

Run from the root of a source checkout.  `--workload all` runs every
workload in turn.  Without --rounds each workload runs its standard rounds
(polyhedra 20, invariants 24, long_inputs 6), so `--workload all` prints
the nine hashes, seeds 1-3 of each, that identity is judged on.  The
operations are the benchmark's own (perfbench/run.py's Batch,
perfbench/workloads.py), made from the seed exactly as a timed run makes
them; afflat is imported from ./src.  Each op of the rounds is run once,
untimed, and checked by the benchmark's oracle.  For each seed the script
prints the SHA-256 over the ops' (kind, repr of the result, oracle
verdict), one line per op in batch order, with the op count and the
failures.  For `invariants` the result is the CLI's (exit code, stdout).
Two trees that print the same hashes gave the same results on every op.
perfbench is only imported, never written: the CLI inputs go to a
temporary directory.
"""

import argparse
import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench  # noqa: E402

# the rounds of each workload's standard identity check, rounds 0 .. N-1
ROUNDS = {"polyhedra": 20, "invariants": 24, "long_inputs": 6}


def seed_hash(workload, seed, rounds, afflat):
    """(hex digest, ops, failures) of one seed's rounds 0 .. rounds-1."""
    workdir = tempfile.mkdtemp(prefix="identity-%s-" % workload)
    try:
        batch = perfbench.Batch(workload, seed, afflat, workdir)
        for _ in range(rounds):
            batch.add_round()
        digest = hashlib.sha256()
        failed = 0
        for op in batch.ops:
            ok, _, res = perfbench.execute(op)
            failed += not ok
            digest.update(repr((op.kind, repr(res), ok)).encode())
            digest.update(b"\n")
        return digest.hexdigest(), len(batch.ops), failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*ROUNDS, "all"), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--rounds", type=int,
                    help="rounds per seed (default: the workload's ROUNDS)")
    args = ap.parse_args()
    workloads = list(ROUNDS) if args.workload == "all" else [args.workload]
    afflat = perfbench.import_afflat()
    for workload in workloads:
        rounds = args.rounds or ROUNDS[workload]
        for seed in args.seeds:
            hexdigest, ops, failed = seed_hash(workload, seed, rounds, afflat)
            print("%s seed %d rounds 0-%d: %d ops, %d failed, sha256 %s"
                  % (workload, seed, rounds - 1, ops, failed, hexdigest),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
