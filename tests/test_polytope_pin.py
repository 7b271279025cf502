"""Polytope outputs pinned on a seeded corpus of point sets in R^1-R^3.

The corpus holds general sets, lower-dimensional sets (points on a line or
a plane of R^2 or R^3), sets with repeated points and single points.  For
each set the pin covers `vertices`, `facets` and `ambient_facets()` of its
Polytope, `convex_hull`, the maximal cells of `triangulate` on the simplex
of the set's affine frame (for hulls of dimension <= 2), and
`placing_triangulation` of the full-dimensional sets.  The SHA-256 was
taken from an implementation that tested facet tightness by Fraction dot
products over hull coordinates, an oracle independent of the integer
tightness table; the vertices are also checked against a brute-force
oracle.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from afflat.convexity import Polytope, affine_frame, placing_triangulation
from afflat.polyhedra import convex_hull, triangulate

from helpers import _simplex_has

F = Fraction

CORPUS_SIZE = 540
PIN = "5a7ec4fa245d5bea0f2832547b3394ca3983725db458717012e938a31a788653"


def _coord(rng, dmax):
    return F(rng.randint(-4 * dmax, 4 * dmax), rng.randint(1, dmax))


def _point_set(rng, i):
    """Set i of the corpus: ambient dimension 1 + i % 3, and a shape
    rotating over (i // 3) % 6."""
    n = 1 + i % 3
    shape = (i // 3) % 6
    dmax = 1 + (i // 18) % 3
    if shape == 0:  # a single point, maybe repeated
        p = tuple(_coord(rng, dmax) for _ in range(n))
        return [p] * rng.randint(1, 3)
    count = rng.randint(2, 7)
    if shape in (1, 5):  # general points
        pts = [tuple(_coord(rng, dmax) for _ in range(n)) for _ in range(count)]
    elif shape == 2:  # repeated points
        pts = [tuple(_coord(rng, dmax) for _ in range(n))
               for _ in range(max(1, count - 3))]
        pts += [rng.choice(pts) for _ in range(3)]
    else:  # on a line (shape 3) or a plane (shape 4, R^3 only)
        k = 2 if shape == 4 and n == 3 else 1
        base = tuple(_coord(rng, dmax) for _ in range(n))
        dirs = [tuple(F(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(k)]
        pts = []
        for _ in range(count):
            ts = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(k)]
            pts.append(tuple(b + sum(t * d[j] for t, d in zip(ts, dirs))
                             for j, b in enumerate(base)))
    rng.shuffle(pts)
    return pts


def corpus():
    rng = random.Random(1515)
    return [_point_set(rng, i) for i in range(CORPUS_SIZE)]


def _is_vertex(pts, p):
    """p is not in the convex hull of the other points: no simplex of at
    most n + 1 of them holds it (Caratheodory)."""
    others = sorted(set(pts) - {p})
    n = len(p)
    return not any(_simplex_has(sub, p)
                   for r in range(1, min(n + 1, len(others)) + 1)
                   for sub in combinations(others, r))


def corpus_digest():
    """SHA-256 of the pinned outputs over the corpus; the vertices are
    checked against the oracle on the way."""
    digest = hashlib.sha256()
    for pts in corpus():
        poly = Polytope(pts)
        assert poly.vertices == [p for p in sorted(set(pts))
                                 if _is_vertex(pts, p)]
        # triangulate shreds a tetrahedron into 100-250 cells in seconds,
        # so it runs on hulls of dimension <= 2
        frame = tuple(affine_frame(sorted(set(pts))))
        record = (poly.vertices, poly.facets, poly.ambient_facets(),
                  convex_hull(pts),
                  triangulate([frame]).maximal if poly.dim < 3 else None,
                  placing_triangulation(pts) if poly.dim == len(pts[0])
                  else None)
        digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


def test_polytope_outputs_match_pin_and_vertex_oracle():
    assert corpus_digest() == PIN
