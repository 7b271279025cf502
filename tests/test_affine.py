import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from afflat import affine, budget, convexity
from afflat.affine import (AffineSpace, _completion_den_of_lifts,
                           _maximal_minors, affine_equivalence,
                           affine_invariant, affine_span, completion_den,
                           extend_frame, min_den_point, regular_frame)
from afflat.core import den, is_regular, lift
from afflat.errors import InputError, SearchBudgetExceeded

from helpers import (_tiny_det, counting, fraction_rank, map_space,
                     parallelepiped_extends, rand_point,
                     regular_by_parallelepiped, rand_unimodular, same_space)

F = Fraction

LINE_HALF = [(F(1, 2), F(0)), (F(0), F(1, 2))]     # x + y = 1/2
LINE_FIFTHS = [(F(2, 5), F(0)), (F(0), F(2, 5))]   # x + y = 2/5
LINE_X_HALF = [(F(1, 2), F(0)), (F(1, 2), F(1))]   # x = 1/2


def test_affine_span_examples():
    f = affine_span(LINE_HALF)
    assert f.dim == 1 and f.n == 2
    assert affine_span([(F(0), F(0))]).dim == 0
    assert affine_span([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]).dim == 2


def test_affine_span_membership():
    f = affine_span(LINE_HALF)
    assert f.contains((F(1, 4), F(1, 4)))
    assert not f.contains((F(0), F(0)))


def _window_min_den(space, dmax):
    """Sound exhaustive oracle: the direction lattice tiles the space, so a
    window of one fundamental cell around the anchor sees every achievable
    denominator."""
    radius = F(1)
    for b in space.dirs:
        radius += max(abs(t) for t in b)
    lo = [space.anchor[i] - radius for i in range(space.n)]
    hi = [space.anchor[i] + radius for i in range(space.n)]
    for k in range(1, dmax + 1):
        ranges = [range(math.ceil(lo[i] * k), math.floor(hi[i] * k) + 1)
                  for i in range(space.n)]
        for combo in product(*ranges):
            p = tuple(F(c, k) for c in combo)
            if den(p) == k and space.contains(p):
                return k
    return None


def test_min_den_point_examples():
    f = affine_span(LINE_HALF)
    v = min_den_point(f)
    assert den(v) == 2 and f.contains(v)
    g = affine_span(LINE_FIFTHS)
    assert den(min_den_point(g)) == 5
    full = affine_span([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert den(min_den_point(full)) == 1


def test_min_den_against_window_oracle():
    assert _window_min_den(affine_span(LINE_HALF), 4) == 2
    assert _window_min_den(affine_span(LINE_FIFTHS), 6) == 5
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 3)
        pts = [rand_point(rng, n, 4, 1) for _ in range(rng.randint(1, n))]
        f = affine_span(pts)
        radius = 1 + sum(max(abs(t) for t in b) for b in f.dirs)
        d = den(min_den_point(f))
        if radius * d > 24:
            continue  # keep the exhaustive window affordable
        assert _window_min_den(f, d) == d
        checked += 1


def test_regular_frame_examples():
    f = affine_span(LINE_HALF)
    v0 = min_den_point(f)
    frame = regular_frame(f, v0)
    assert len(frame) == 2 and frame[0] == v0
    assert all(f.contains(w) and den(w) == 2 for w in frame)
    assert regular_by_parallelepiped(frame)

    # explicit minimal-denominator anchor, as in the worked example
    frame = regular_frame(f, (F(1, 2), F(0)))
    assert frame[0] == (F(1, 2), F(0))
    assert all(f.contains(w) and den(w) == 2 for w in frame)
    assert regular_by_parallelepiped(frame)

    pt = affine_span([(F(1, 2),)])
    assert regular_frame(pt, (F(1, 2),)) == ((F(1, 2),),)

    line = affine_span([(F(0),), (F(1),)])
    frame = regular_frame(line, (F(0),))
    assert len(frame) == 2 and all(den(w) == 1 for w in frame)


def test_regular_frame_rejects_bad_v0():
    f = affine_span(LINE_HALF)
    with pytest.raises(InputError):
        regular_frame(f, (F(0), F(0)))  # not in the space
    with pytest.raises(InputError):
        regular_frame(f, (F(3, 4), F(-1, 4)))  # denominator 4 > d_F


def test_affine_space_contains_rejects_wrong_dimension():
    line = AffineSpace([(0, 0), (1, 0)])
    assert line.contains((5, 0))
    for x in ((5,), (0, 0, 7)):
        with pytest.raises(InputError):
            line.contains(x)


def test_regular_frame_rejects_v0_of_wrong_dimension():
    with pytest.raises(InputError):
        regular_frame(AffineSpace([(0, 0)]), (0,))


def test_regular_frame_random_properties():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 3)
        pts = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
        f = affine_span(pts)
        v0 = min_den_point(f)
        frame = regular_frame(f, v0)
        assert len(frame) == f.dim + 1
        assert is_regular(frame)
        d = den(v0)
        assert all(f.contains(w) and den(w) == d for w in frame)


def test_invariant_golden_examples():
    assert affine_invariant(affine_span(LINE_HALF)) == (1, 2, 1)
    assert affine_invariant(affine_span(LINE_FIFTHS)) == (1, 5, 2)
    full = affine_span([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert affine_invariant(full) == (2, 1, 1)


def test_c_invariant_windowed_refutation():
    # x + y = 2/5: no integer apex completes any regular pair of
    # denominator-5 points of the line inside the window, so c > 1; the
    # witness produced by the library has denominator 2.
    f = affine_span(LINE_FIFTHS)
    line_pts = []
    for i in range(-5, 6):
        p = (F(i, 5), F(2, 5) - F(i, 5))
        if den(p) == 5:
            line_pts.append(p)
    ints = [(F(a), F(b)) for a in range(-2, 3) for b in range(-2, 3)]
    for i, p in enumerate(line_pts):
        for q in line_pts[i + 1:]:
            if not parallelepiped_extends([lift(p), lift(q)]):
                continue
            for s in ints:
                assert not parallelepiped_extends([lift(p), lift(q), lift(s)])
    # and a denominator-2 witness exists, e.g. (0, 1/2)
    pair = ((F(2, 5), F(0)), (F(1, 5), F(1, 5)))
    assert parallelepiped_extends([lift(pair[0]), lift(pair[1]),
                                   lift((F(0), F(1, 2)))])


def test_invariant_cod1_constraints():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        pts = [rand_point(rng, n, 5, 2) for _ in range(rng.randint(1, n + 1))]
        f = affine_span(pts)
        inv = affine_invariant(f)
        if inv.dim != n - 1:
            assert inv.c == 1
        else:
            d = inv.d
            assert 1 <= inv.c <= max(1, d // 2)
            assert math.gcd(inv.c, d) == 1


def test_invariance_under_group():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
        f = affine_span(pts)
        g = rand_unimodular(rng, n)
        assert affine_invariant(map_space(g, f)) == affine_invariant(f)


def test_c_invariant_witness():
    from afflat.affine import c_invariant
    f = affine_span(LINE_FIFTHS)
    c, witness = c_invariant(f)
    assert c == 2
    assert len(witness) == 3 and is_regular(witness)
    assert [den(v) for v in witness] == [5, 5, 2]
    assert f.contains(witness[0]) and f.contains(witness[1])


def test_extend_frame_produces_regular_simplex():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 3)
        pts = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
        f = affine_span(pts)
        frame = regular_frame(f, min_den_point(f))
        c, ext = extend_frame(frame)
        assert len(frame) + len(ext) == n + 1
        assert is_regular(frame + ext)
        assert all(den(s) == c for s in ext)


def _rand_frame(rng, n, e):
    """A regular e-frame in R^n with coordinates in [-1, 1] and every
    vertex of one denominator d <= 9, so that in codimension one c ranges
    over the units modulo d."""
    while True:
        d = rng.randint(1, 9)
        pts = [tuple(F(rng.randint(-d, d), d) for _ in range(n))
               for _ in range(e + 1)]
        if all(den(p) == d for p in pts) and \
                fraction_rank([lift(p) for p in pts]) == e + 1 and \
                regular_by_parallelepiped(pts):
            return tuple(pts)


def _least_completing_den(frame, radius, kmax=6):
    """Brute force: the least k such that a point of denominator exactly k
    with coordinates in [-radius, radius], nearest first, adds a lift that
    keeps the frame's lifts part of a lattice basis.  In codimension one
    the lifts are then square, and they are a basis iff the determinant,
    expanded by cofactors along the new row, is +-1; otherwise the test is
    the Minkowski parallelepiped criterion."""
    lifts = [lift(v) for v in frame]
    n = len(frame[0])
    square = len(frame) == n
    cof = [(-1) ** (n + j) * _tiny_det([l[:j] + l[j + 1:] for l in lifts])
           for j in range(n + 1)] if square else None
    for k in range(1, kmax + 1):
        box = sorted(product(range(-radius * k, radius * k + 1), repeat=n),
                     key=lambda x: max(map(abs, x)))
        for x in box:
            if math.gcd(k, *x) != 1:
                continue
            q = x + (k,)
            if square:
                if abs(sum(c * t for c, t in zip(cof, q))) == 1:
                    return k
            elif parallelepiped_extends(lifts + [q]):
                return k
    return None


def test_completion_den_matches_brute_force():
    # R^1-R^3 frames of every dimension below n: c is the least denominator
    # of a completing point, found by scanning, and extend_frame's c; it is
    # unchanged by a unimodular map of the frame
    rng = random.Random(23)
    cs = []
    for n in (1, 2, 3):
        for e in range(n):
            for _ in range(10 if e == n - 1 else 2):
                frame = _rand_frame(rng, n, e)
                c = completion_den(frame)
                assert c == extend_frame(frame)[0]
                assert c == _least_completing_den(frame, 8)
                g = rand_unimodular(rng, n, tmax=2)
                assert completion_den(tuple(g(v) for v in frame)) == c
                cs.append(c)
    assert max(cs) > 2


def test_maximal_minors_expand_the_determinant():
    # det(rows + [x]) = m.x, against the permutation-sum determinant
    rng = random.Random(38)
    for k in (1, 2, 3, 4):
        for _ in range(40):
            rows = [tuple(rng.randint(-9, 9) for _ in range(k + 1))
                    for _ in range(k)]
            x = tuple(rng.randint(-9, 9) for _ in range(k + 1))
            m = _maximal_minors(rows)
            assert sum(a * b for a, b in zip(m, x)) == _tiny_det(rows + [x])


def test_completion_den_of_lifts_agrees_and_rejects_non_regular_frames():
    # random frames in R^1-R^4 of every dimension below n, regular or not:
    # the lift form gives completion_den's c and extend_frame's on regular
    # ones, and raises completion_den's InputError on the others
    rng = random.Random(39)
    seen = {True: 0, False: 0}
    for n in (1, 2, 3, 4):
        for e in range(n):
            for _ in range(40 if e == n - 1 else 8):
                d = rng.randint(1, 6)
                frame = tuple(tuple(F(rng.randint(-2 * d, 2 * d), d)
                                    for _ in range(n)) for _ in range(e + 1))
                lifts = [lift(p) for p in frame]
                if fraction_rank(lifts) != e + 1:
                    continue
                # Smith criterion: the gcd of the maximal minors is 1
                cols = list(zip(*lifts))
                regular = math.gcd(*(
                    _tiny_det([cols[i] for i in rows])
                    for rows in combinations(range(n + 1), e + 1))) == 1
                seen[regular] += 1
                if regular:
                    c = _completion_den_of_lifts(lifts)
                    assert c == completion_den(frame) == extend_frame(frame)[0]
                    continue
                for form in (lambda: _completion_den_of_lifts(lifts),
                             lambda: completion_den(frame)):
                    with pytest.raises(InputError, match="frame is not regular"):
                        form()
    assert min(seen.values()) > 20


def test_equivalence_examples():
    f = affine_span(LINE_X_HALF)
    g = affine_span(LINE_HALF)
    m = affine_equivalence(f, g)
    assert m is not None
    assert same_space(map_space(m, f), g)

    p2 = affine_span([(F(1, 2),)])
    p3 = affine_span([(F(1, 3),)])
    assert affine_equivalence(p2, p3) is None

    m = affine_equivalence(f, f)
    assert m is not None and same_space(map_space(m, f), f)


def test_equivalence_roundtrips():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randint(1, 3)
        pts = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
        f = affine_span(pts)
        g = rand_unimodular(rng, n)
        target = map_space(g, f)
        m = affine_equivalence(f, target)
        assert m is not None
        assert same_space(map_space(m, f), target)


def test_equivalence_dimension_mismatch():
    with pytest.raises(InputError):
        affine_equivalence(affine_span([(F(0),)]),
                           affine_span([(F(0), F(0))]))


def test_min_den_point_closed_form_large_denominators():
    # d_F is read off the saturated lattice of the lifts, with one integer
    # solve, so a denominator near 1e6 costs no more than a small one
    for d in (97, 99991, 999983):
        t0 = time.perf_counter()
        f = affine_span([(F(1, d), F(2, d), F(3, d))])
        assert affine_invariant(f) == (0, d, 1)
        line = affine_span([(F(1, d), F(0)), (F(0), F(1, d))])
        v = min_den_point(line)
        assert den(v) == d and line.contains(v)
        plane = affine_span([(F(0), F(5, d), F(0)), (F(1), F(5, d), F(0)),
                             (F(0), F(5, d), F(1))])
        assert den(min_den_point(plane)) == d
        assert time.perf_counter() - t0 < 1.0


def test_affine_invariant_finds_the_least_denominator_once(monkeypatch):
    # regular_frame reads d_F off the lattice basis it builds, so the
    # invariant makes one min_den_point call, in every dimension
    calls = []
    real = affine.min_den_point
    monkeypatch.setattr(affine, "min_den_point",
                        lambda f: calls.append(f) or real(f))
    spaces = [LINE_HALF, LINE_FIFTHS, LINE_X_HALF,
              [(F(1, 3), F(2, 3), F(0))],
              [(F(1, 2), F(0), F(0)), (F(0), F(1, 2), F(0)),
               (F(0), F(0), F(1, 2))],
              [(F(1, 6), F(0), F(1, 4)), (F(0), F(5, 6), F(1, 4))],
              [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]]
    for pts in spaces:
        calls.clear()
        f = affine_span(pts)
        affine_invariant(f)
        assert len(calls) == 1, pts


def test_affine_space_lifts_each_point_once(monkeypatch):
    # the space keeps the lifts of its frame points and reads its equations
    # off them, so 3 independent points in R^3 are lifted 3 times in all;
    # min_den_point saturates those kept lifts and lifts no point of F
    calls = counting(monkeypatch, "lift_point", convexity)
    f = AffineSpace([(F(1, 2), F(0), F(1)), (F(0), F(1, 3), F(0)),
                     (F(1), F(1), F(1, 5))])
    assert len(calls) == 3
    assert f.dim == 2 and len(f.equations) == 1
    lifts = counting(monkeypatch, "lift", affine)
    assert f.contains(affine.min_den_point(f))
    assert not lifts


def test_mixed_ambient_dimensions_raise_input_error():
    # the points of one space or polytope share their ambient dimension,
    # and so do the points asked about
    mixed = [(F(0), F(1)), (F(1), F(0), F(2))]
    for build in (AffineSpace, convexity.Polytope):
        with pytest.raises(InputError, match="mixed ambient dimensions"):
            build(mixed)
        space = build([(F(0), F(1)), (F(1, 2), F(0))])
        assert space.contains((F(1, 4), F(1, 2)))
        for x in [(F(0),), (F(0), F(1), F(0))]:
            with pytest.raises(InputError, match="point of dimension"):
                space.contains(x)


def test_search_completion_scan_builds_no_basis(monkeypatch):
    # with no integer vertex the scan tests each candidate against the
    # integer kernel of the lifts; no basis is completed
    def refuse(*a):
        raise AssertionError("complete_basis called")

    monkeypatch.setattr(affine, "complete_basis", refuse)
    v = (F(1, 2), F(1, 3), F(0), F(1, 5))
    s, l = affine._search_completion(v, [lift(v)])
    assert l == lift(s) and l[-1] == 1
    assert parallelepiped_extends([lift(v), l])


def test_search_completion_doubles_past_empty_cubes():
    # far from the vertex 1/2 the scan around 21/2 finds nothing in its
    # cubes of radius 1, 2, 4 and 8: an integer s extends the lift (1, 2)
    # iff det((1, 2), (s, 1)) = 1 - 2s is +-1, so s is 0 or 1.  Round 5
    # (radius 16) yields it; under a cap of 4 rounds the search gives up
    center, lifts = (F(21, 2),), [(1, 2)]
    assert not any(abs(1 - 2 * t) == 1
                   for t in range(math.ceil(center[0] - 8),
                                  math.floor(center[0] + 8) + 1))
    with budget.capped(5):
        s, l = affine._search_completion(center, lifts)
    assert l == lift(s) and l[-1] == 1
    assert abs(_tiny_det([lifts[0], l])) == abs(1 - 2 * s[0]) == 1
    with budget.capped(4), pytest.raises(SearchBudgetExceeded):
        affine._search_completion(center, lifts)
