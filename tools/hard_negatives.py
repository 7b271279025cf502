"""Times and operation counts of equal-hull hard negatives of the
polyhedron decision.

    python3 tools/hard_negatives.py

Run from the root of a source checkout; afflat is imported from ./src and
freudenthal_cube from tests/helpers.py.  P is the Freudenthal triangulation
of a cube, n! simplexes.  P against P less its last simplex shares P's
hull, so every base image of the hull vertices is tried and rejected
before the answer None; P against its image under a fixed unimodular map
answers with a map.  The cases are the unit 3-cube and the 4-cube of side
3/2.  Each decision is a library call, timed REPEATS times in this
process, and the least time is printed with the verdict.  Next to it are
the counts of one call, which do not depend on the machine: the candidate
maps built (polyhedra.UniAffMap calls), the simplex testers built
(polyhedra.simplex_tester), the refinements run
(polyhedra._refined_simplex_cells) and the cut sets derived
(polyhedra._cuts_for, one per flat a cover test refines), the vertex
lifts mapped (UniAffMap.map_lift) and the points lifted (rationals.lift,
in every afflat module that holds it, and rationals.lift_point, which
lifts a point already normalized, in every afflat module that holds it
but rationals, whose lift calls it).  They are counted by wrapping
those attributes in this process only.  The unit 4-cube is left out:
less one simplex, it took 27.6 s on a 2-vCPU host.  Exits 1 when a verdict
is not the expected one.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from afflat import polyhedra, rationals  # noqa: E402
from afflat.core import UniAffMap  # noqa: E402
from helpers import freudenthal_cube  # noqa: E402

REPEATS = 3
COUNTED = ("UniAffMap", "simplex_tester", "_refined_simplex_cells",
           "_cuts_for")

# (name, n, side, the unimodular map (matrix, translation) of the image)
CASES = [
    ("unit 3-cube", 3, 1,
     (((1, 1, 0), (0, 1, 1), (0, 0, 1)), (1, 0, -1))),
    ("4-cube of side 3/2", 4, "3/2",
     (((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)),
      (1, 0, -1, 2))),
]


def counted_call(P, Q):
    """(result, {name: calls}) of one polyhedron_equivalence(P, Q), with
    the COUNTED attributes of afflat.polyhedra, UniAffMap.map_lift and
    every afflat module's lift and lift_point wrapped for the call; both
    lifts count as "lift"."""
    targets = [(polyhedra, name, name) for name in COUNTED]
    targets.append((UniAffMap, "map_lift", "map_lift"))
    afflat = [mod for name, mod in list(sys.modules.items())
              if name == "afflat" or name.startswith("afflat.")]
    targets += [(mod, "lift", "lift") for mod in afflat
                if getattr(mod, "lift", None) is rationals.lift]
    targets += [(mod, "lift_point", "lift") for mod in afflat
                if mod is not rationals
                and getattr(mod, "lift_point", None) is rationals.lift_point]
    counts = dict.fromkeys([key for _, _, key in targets], 0)
    originals = [(obj, name, key, getattr(obj, name))
                 for obj, name, key in targets]

    def wrap(key, real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    for obj, name, key, real in originals:
        setattr(obj, name, wrap(key, real))
    try:
        res = polyhedra.polyhedron_equivalence(P, Q)
    finally:
        for obj, name, _, real in originals:
            setattr(obj, name, real)
    return res, counts


def best_of(P, Q):
    """Least seconds of REPEATS polyhedron_equivalence(P, Q)."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        polyhedra.polyhedron_equivalence(P, Q)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    wrong = 0
    for name, n, side, (A, t) in CASES:
        P = freudenthal_cube(n, side)
        g = UniAffMap(A, t)
        image = [tuple(g(v) for v in s) for s in P]
        for what, Q, expect_map in (("less one simplex", P[:-1], False),
                                    ("image", image, True)):
            res, counts = counted_call(P, Q)
            secs = best_of(P, Q)
            ok = (res is not None) == expect_map
            wrong += not ok
            print("%s, %s: %.3f s, %s%s; %d maps, %d testers, "
                  "%d refinements, %d cut sets, %d map_lift calls, "
                  "%d lift calls"
                  % (name, what, secs, "None" if res is None else "a map",
                     "" if ok else " (UNEXPECTED)", counts["UniAffMap"],
                     counts["simplex_tester"],
                     counts["_refined_simplex_cells"], counts["_cuts_for"],
                     counts["map_lift"], counts["lift"]),
                  flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
