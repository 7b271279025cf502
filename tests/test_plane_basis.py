"""core.dual_vector, core.plane_basis and its two users, each against an
independent oracle: the dual vector by its dot product, the basis by
Minkowski's parallelepiped criterion and the gcd of the 2x2 minors, chains
of lines in R^3 by the hull of the cone's lattice points, and the farthest
regular point of a half-line by a scan of its points."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from afflat.angles import HalfLine, max_regular_point
from afflat.core import dual_vector, lift, plane_basis
from afflat.errors import InternalCheckError
from afflat.segments import hj_chain

from helpers import (apply_affine, hj_chain_by_hull, leibniz_det,
                     parallelepiped_extends, rand_point, rand_unimodular)

F = Fraction


def _minor_gcd(p, q):
    return math.gcd(*[leibniz_det([[p[i], p[j]], [q[i], q[j]]])
                      for i, j in combinations(range(len(p)), 2)])


def _rand_primitive(rng, m, lim):
    while True:
        p = tuple(rng.randint(-lim, lim) for _ in range(m))
        if math.gcd(*p) == 1:
            return p


def test_dual_vector_dots_to_one():
    rng = random.Random(1503)
    for i in range(200):
        p = _rand_primitive(rng, 1 + i % 6, 10 ** (1 + i % 4))
        assert sum(x * y for x, y in zip(dual_vector(p), p)) == 1
    for p in ((2, 4, 6), (0, 0), (-3,)):
        with pytest.raises(InternalCheckError):
            dual_vector(p)


def test_plane_basis_against_minkowski_and_minors():
    rng = random.Random(1501)
    for i in range(300):
        m = 2 + i % 4
        p = _rand_primitive(rng, m, 6)
        q = tuple(rng.randint(-6, 6) for _ in range(m))
        if _minor_gcd(p, q) == 0:
            continue
        b, a, g = plane_basis(p, q)
        assert tuple(a * x + g * y for x, y in zip(p, b)) == q
        assert g == _minor_gcd(p, q)
        # (p, b - t p) spans the lattice (p, b) does, with a smaller box
        t = round(F(sum(x * y for x, y in zip(p, b)),
                    sum(x * x for x in p)))
        assert parallelepiped_extends([p, tuple(y - t * x
                                                for x, y in zip(p, b))])


def test_plane_basis_rejects_dependent_or_non_primitive_input():
    with pytest.raises(InternalCheckError):
        plane_basis((2, 4, 6), (1, 0, 0))
    with pytest.raises(InternalCheckError):
        plane_basis((0, 0, 0), (1, 0, 0))
    with pytest.raises(InternalCheckError):
        plane_basis((1, 2, 3), (-3, -6, -9))
    with pytest.raises(InternalCheckError):
        plane_basis((3, 5), (0, 0))


def test_hj_chain_of_lines_in_r3_against_hull_oracle():
    rng = random.Random(1502)
    for _ in range(60):
        (alpha,), (beta,) = rand_point(rng, 1, 7, 2), rand_point(rng, 1, 7, 2)
        if alpha == beta:
            continue
        g = rand_unimodular(rng, 3)
        z = (rng.randint(-3, 3), rng.randint(-3, 3))

        def place(x):
            return apply_affine(g.matrix, g.translation, (x,) + z)

        want = tuple(place(x) for x in hj_chain_by_hull((alpha,), (beta,)))
        assert hj_chain(place(alpha), place(beta)) == want


def _farthest_regular_by_scan(h):
    """The farthest point q = v + t dir (t > 0) with lift(v), lift(q) part
    of a basis (the gcd of their 2x2 minors is 1).

    If den(q) = k, then k den(v) t is an integer, and as the direction
    lift lies in the lattice spanned by the two lifts, t = 1 / (beta k) for
    an integer beta >= 1.  So the points of denominator k are scanned at
    t = j / (k den(v)), j <= den(v), and once a regular point at t0 is
    found no denominator above 1 / t0 can hold a farther one."""
    v, d = h.origin, lift(h.origin)[-1]
    best, k = None, 1
    while best is None or k <= 1 / best[0]:
        for j in range(1, d + 1):
            t = F(j, k * d)
            q = tuple(x + t * c for x, c in zip(v, h.direction))
            if lift(q)[-1] == k and _minor_gcd(lift(v), lift(q)) == 1 \
                    and (best is None or t > best[0]):
                best = (t, q)
        k += 1
    return best[1]


def test_max_regular_point_against_scan():
    rng = random.Random(1503)
    for i in range(80):
        n = 1 + i % 4
        v = rand_point(rng, n, 6, 2)
        direction = (0,) * n
        while not any(direction):
            direction = tuple(rng.randint(-3, 3) for _ in range(n))
        h = HalfLine(v, direction=direction)
        assert max_regular_point(h) == _farthest_regular_by_scan(h)
