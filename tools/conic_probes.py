"""Times and operation counts of the conic probes that grow with their
input: the ellipse index search, the Legendre point and the factoring
under it.

    python3 tools/conic_probes.py

Run from the root of a source checkout; afflat is imported from ./src.
Every probe runs uncapped, as a library call timed REPEATS times in this
process, and the least time is printed with the verdict.  The probes are:

- the circles (x - 1/q)^2 + y^2 = 1 for q = 101 and q = 1009, of least
  index 2q: min_index_pairs, then the ellipse against itself, which
  answers with the identity.  Next to the times are the counts of one
  search, which do not depend on the machine: the denominators scanned
  (conics._numerators_at calls), the points found on them and the
  minimal-index pairs;
- legendre_solve(10000019, -3333373, 1), whose solution is checked;
- conics._factor of the prime 100000000000031, with the primality tests
  it ran (conics._known_prime calls).

Counts are taken by wrapping those attributes of afflat.conics in this
process only.  Exits 1 when a verdict is not the expected one.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fractions import Fraction  # noqa: E402

from afflat import budget, conics  # noqa: E402

REPEATS = 3
CIRCLES = (101, 1009)
LEGENDRE = (10000019, -3333373, 1)
PRIME = 100000000000031


def least_time(call):
    """(result of the first call, least seconds of REPEATS calls)."""
    best, res = None, None
    for i in range(REPEATS):
        with budget.capped(None):
            t0 = time.perf_counter()
            got = call()
            dt = time.perf_counter() - t0
        if i == 0:
            res = got
        best = dt if best is None else min(best, dt)
    return res, best


def counted(name, call):
    """(result, [results of conics.<name>]) of one call, with that
    attribute wrapped for the call."""
    real = getattr(conics, name)
    seen = []

    def wrapped(*args):
        out = real(*args)
        seen.append(out)
        return out

    setattr(conics, name, wrapped)
    try:
        with budget.capped(None):
            return call(), seen
    finally:
        setattr(conics, name, real)


def circle(q):
    return conics.ellipse(conics.conic(1, 0, 1, Fraction(-2, q), 0,
                                       Fraction(1, q * q) - 1))


def main():
    wrong = 0
    for q in CIRCLES:
        E = circle(q)
        (best, pairs), scans = counted("_numerators_at",
                                       lambda: conics.min_index_pairs(E))
        _, search_s = least_time(lambda: conics.min_index_pairs(E))
        g, equiv_s = least_time(lambda: conics.ellipse_equivalence(E, E))
        ok = (best == 2 * q and g is not None
              and (g.matrix, g.translation) == (((1, 0), (0, 1)), (0, 0)))
        wrong += not ok
        print("circle q = %d: search %.3f s, self-equivalence %.3f s, "
              "index %d%s; %d denominators scanned, %d points, %d pairs"
              % (q, search_s, equiv_s, best, "" if ok else " (UNEXPECTED)",
                 len(scans), sum(map(len, scans)), len(pairs)), flush=True)
    sol, secs = least_time(lambda: conics.legendre_solve(*LEGENDRE))
    ok = sol is not None and sum(
        c * x * x for c, x in zip(LEGENDRE, sol)) == 0
    wrong += not ok
    print("legendre_solve%s: %.3f s, %s%s"
          % (LEGENDRE, secs, sol, "" if ok else " (UNEXPECTED)"), flush=True)
    factors, tests = counted("_known_prime", lambda: conics._factor(PRIME))
    _, secs = least_time(lambda: conics._factor(PRIME))
    ok = factors == {PRIME: 1}
    wrong += not ok
    print("_factor(%d): %.4f s, %s%s; %d primality tests"
          % (PRIME, secs, factors, "" if ok else " (UNEXPECTED)",
             len(tests)), flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
