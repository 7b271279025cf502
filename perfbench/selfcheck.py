"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed 0] [--seconds 10]

For every workload: two traced runs of one seed must give identical
per-layer counts, and an untraced run of the seed must fail no operation.
On `invariants`, no CLI call may exit 5 (search budget) under the CLI's
default AFFLAT_MAX_DEN.  Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("invariants", "polyhedra", "long_inputs")
EXACT_UNITS = ("count", "ratio")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s trace=%d exited %d" % (workload, trace,
                                                    proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as fh:
        return result, json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    problems = []
    for w in WORKLOADS:
        counts = []
        for _ in range(2):
            result, _ = run(w, args.seed, args.seconds, 1)
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] in EXACT_UNITS})
            if result["failed"]:
                problems.append("%s: traced run failed %d ops" % (w, result["failed"]))
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append("%s: per-layer counts differ: %s" % (w, diff))
        result, details = run(w, args.seed, args.seconds, 0)
        if result["failed"]:
            problems.append("%s: error_rate %g (%s)" % (
                w, details["error_rate"], details["failures"]))
        if w == "invariants" and details["exit_codes"].get("5"):
            problems.append("invariants: %d ops exited 5 under the default cap"
                            % details["exit_codes"]["5"])
        print("%-12s counts repeat: %s  error_rate: %g  attempted: %d" % (
            w, counts[0] == counts[1], details["error_rate"],
            result["attempted"]), flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
