import random
from fractions import Fraction

import pytest

from afflat.convexity import AffineHull, simplex_barycentric, simplex_tester
from afflat.core import lift
from afflat.errors import InputError

from helpers import _simplex_has, in_span_by_minors, rand_point

F = Fraction


def _independent(rng, n, size):
    """size affinely independent random points of R^n, independence decided
    by the minor oracle."""
    verts = []
    while len(verts) < size:
        v = rand_point(rng, n, 4, 2)
        if not verts or not in_span_by_minors(verts, v):
            verts.append(v)
    return verts


def _combination(rng, verts, lo):
    """A random affine combination of verts with weights >= lo / 4 before
    one is shifted to make them sum to 1; some weights are set to 0, so
    faces of the simplex are hit."""
    w = [F(rng.randint(lo, 4), rng.randint(1, 4)) for _ in verts]
    for i in range(len(w)):
        if rng.random() < 0.25:
            w[i] = F(0)
    w[0] += 1 - sum(w)
    return tuple(sum(wi * v[j] for wi, v in zip(w, verts))
                 for j in range(len(verts[0])))


def _queries(rng, verts):
    n = len(verts[0])
    qs = list(verts)
    for _ in range(6):
        qs.append(_combination(rng, verts, 0))   # mostly inside
        qs.append(_combination(rng, verts, -3))  # on the span
        qs.append(rand_point(rng, n, 4, 2))      # usually off the span
    return qs


def _simplexes(seed):
    """Random simplexes of every dimension 0..n in R^1..R^4."""
    rng = random.Random(seed)
    for n in range(1, 5):
        for size in range(1, n + 2):
            for _ in range(4):
                verts = _independent(rng, n, size)
                yield rng, verts


def test_simplex_tester_agrees_with_determinant_oracle():
    inside = total = 0
    for rng, verts in _simplexes(91):
        test = simplex_tester(verts)
        for x in _queries(rng, verts):
            expect = _simplex_has(verts, x)
            q = lift(x)
            assert test(q) == expect, (verts, x)
            # any positive multiple of the lift is the same point
            assert test(tuple(3 * c for c in q)) == expect
            inside += expect
            total += 1
    assert 0 < inside < total


def test_simplex_barycentric_against_span_oracle():
    off = 0
    for rng, verts in _simplexes(92):
        for x in _queries(rng, verts):
            lam = simplex_barycentric(verts, x)
            if not in_span_by_minors(verts, x):
                assert lam is None, (verts, x)
                off += 1
                continue
            assert lam is not None and len(lam) == len(verts)
            assert all(isinstance(t, Fraction) for t in lam)
            assert sum(lam) == 1
            assert tuple(sum(t * v[j] for t, v in zip(lam, verts))
                         for j in range(len(x))) == x
    assert off > 0


def test_affine_hull_coords_rejects_wrong_length():
    hull = AffineHull([(0, 0), (1, 1)])
    assert hull.coords((2, 2)) == (2,)
    for p in ((2, 2, 5), (2,)):
        with pytest.raises(InputError, match="dimension"):
            hull.coords(p)


def test_affine_hull_coords_round_trip():
    off = 0
    for rng, verts in _simplexes(93):
        # redundant generators: the hull picks its own basis among them
        gens = verts + [_combination(rng, verts, -3) for _ in range(3)]
        hull = AffineHull(gens)
        assert hull.dim == len(verts) - 1
        for x in _queries(rng, verts):
            c = hull.coords(x)
            if not in_span_by_minors(verts, x):
                assert c is None, (verts, x)
                off += 1
                continue
            assert len(c) == hull.dim
            assert hull.embed(c) == x
    assert off > 0
