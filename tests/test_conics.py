import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from afflat.conics import (ELLIPSE, ELLIPSE_NO_POINT, NOT_ELLIPSE, _holzer_search,
                           _ellipse_with_witness, _least_triangle,
                           _rational_points_at, classify,
                           conic, conjugate_diameter, ellipse,
                           ellipse_equivalence, ellipse_from_semidiameters,
                           ellipse_invariant, legendre_solve, min_index_pairs,
                           pullback, conics_match_up_to_scalar,
                           rational_points)
from afflat import angles, budget, core, rationals
from afflat.angles import HalfLine
from afflat.core import den
from afflat.errors import InputError, NotInClass, SearchBudgetExceeded
from afflat.segments import _witness_decision

from helpers import (apply_affine, counting, counting_in_package,
                     holzer_box_scan, is_sum_of_two_squares, legendre_brute,
                     rand_point, rand_unimodular, trial_factor)

F = Fraction

CIRCLE = conic(1, 0, 1, 0, 0, -1)


def test_classify_examples():
    assert classify(CIRCLE) == ELLIPSE
    assert classify(conic(1, 0, 1, 0, 0, -3)) == ELLIPSE_NO_POINT
    assert classify(conic(1, 0, -1, 0, 0, -1)) == NOT_ELLIPSE


def test_classify_degenerate_cases():
    assert classify(conic(1, 0, 1, 0, 0, 0)) == NOT_ELLIPSE   # single point
    assert classify(conic(1, 0, 1, 0, 0, 1)) == NOT_ELLIPSE   # empty
    with pytest.raises(InputError):
        conic(0, 0, 0, 1, 1, -1)


def test_classify_scale_invariant():
    rng = random.Random(41)
    cases = [CIRCLE, conic(1, 0, 1, 0, 0, -3), conic(1, 0, -1, 0, 0, -1),
             conic(1, 0, 2, -1, 0, F(-3, 4))]
    for co in cases:
        for _ in range(5):
            s = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            assert classify(co.scaled(s)) == classify(co)


def test_legendre_examples():
    assert legendre_solve(1, 1, -1) == (1, 0, 1)
    assert legendre_solve(1, 1, -3) is None
    assert legendre_solve(2, 3, -5) == (1, 1, 1)
    with pytest.raises(InputError):
        legendre_solve(1, 0, -1)


def test_legendre_solutions_are_primitive_and_exact():
    rng = random.Random(42)
    for _ in range(200):
        p = rng.randint(-20, 20) or 1
        q = rng.randint(-20, 20) or 1
        r = rng.randint(-20, 20) or -1
        sol = legendre_solve(p, q, r)
        if sol is not None:
            x, y, z = sol
            assert p * x * x + q * y * y + r * z * z == 0
            assert math.gcd(math.gcd(abs(x), abs(y)), abs(z)) == 1


def test_legendre_vs_brute_force():
    rng = random.Random(43)
    for _ in range(250):
        p = rng.randint(-20, 20) or 1
        q = rng.randint(-20, 20) or 1
        r = rng.randint(-20, 20) or -1
        assert (legendre_solve(p, q, r) is not None) == legendre_brute(p, q, r)


def test_rational_points_examples():
    E = ellipse(CIRCLE)
    assert rational_points(E, 2) == [(F(-1), F(0)), (F(0), F(-1)),
                                     (F(0), F(1)), (F(1), F(0))]
    d5 = rational_points(E, 5)
    assert (F(3, 5), F(4, 5)) in d5 and (F(-4, 5), F(3, 5)) in d5
    assert rational_points(E, 0) == []


def test_rational_points_grid_oracle():
    cases = [CIRCLE, conic(1, 0, 2, -1, 0, F(-3, 4)),
             conic(1, -2, 2, 0, 0, -1)]
    for co in cases:
        E = ellipse(co)
        got = set(rational_points(E, 8))
        o = E.center
        qmat, m = E.qmat, E.level
        detq = qmat[0][0] * qmat[1][1] - qmat[0][1] * qmat[1][0]
        rx = m * qmat[1][1] / detq
        ry = m * qmat[0][0] / detq
        expect = set()
        for k in range(1, 9):
            sx = math.isqrt(math.floor(rx * k * k)) + 1
            sy = math.isqrt(math.floor(ry * k * k)) + 1
            for i in range(math.floor(o[0] * k) - sx, math.ceil(o[0] * k) + sx + 1):
                for j in range(math.floor(o[1] * k) - sy, math.ceil(o[1] * k) + sy + 1):
                    p = (F(i, k), F(j, k))
                    if den(p) <= 8 and co(p) == 0:
                        expect.add(p)
        assert got == expect


def test_center_example():
    E = ellipse(conic(1, 0, 2, -1, 0, F(-3, 4)))
    assert E.center == (F(1, 2), F(0))


def test_conjugate_diameter_examples():
    E = ellipse(CIRCLE)
    xdiam = ((F(-1), F(0)), (F(1), F(0)))
    cd = conjugate_diameter(E, xdiam)
    assert cd == ((F(0), F(-1)), (F(0), F(1)))
    assert conjugate_diameter(E, cd) == tuple(sorted(xdiam))
    # direction (3,4) on the circle maps to (-4,3)
    d34 = ((F(-3, 5), F(-4, 5)), (F(3, 5), F(4, 5)))
    cd = conjugate_diameter(E, d34)
    assert cd == ((F(-4, 5), F(3, 5)), (F(4, 5), F(-3, 5))) or \
        cd == tuple(sorted([(F(4, 5), F(-3, 5)), (F(-4, 5), F(3, 5))]))
    assert conjugate_diameter(E, cd) == tuple(sorted(d34))


def test_conjugate_diameter_rejects_nondiameter():
    E = ellipse(CIRCLE)
    with pytest.raises(InputError):
        conjugate_diameter(E, ((F(0), F(1)), (F(1), F(0))))


def test_ellipse_from_semidiameters_examples():
    co = ellipse_from_semidiameters((0, 0), (1, 0), (0, 1))
    assert conics_match_up_to_scalar(co, CIRCLE)
    co = ellipse_from_semidiameters((0, 0), (1, 0), (1, 1))
    assert conics_match_up_to_scalar(co, conic(1, -2, 2, 0, 0, -1))
    co = ellipse_from_semidiameters((1, 0), (2, 0), (1, 1))
    assert conics_match_up_to_scalar(co, conic(1, 0, 1, -2, 0, 0))
    with pytest.raises(InputError):
        ellipse_from_semidiameters((0, 0), (1, 1), (2, 2))


def test_min_index_pairs_circle():
    E = ellipse(CIRCLE)
    d, pairs = min_index_pairs(E)
    assert d == 2
    assert len(pairs) == 8
    for x, y in pairs:
        assert E.on_curve(x) and E.on_curve(y)
        assert E.conjugacy_product(x, y) == 0
        assert den(x) + den(y) == 2


def test_min_index_pairs_translate_and_shear():
    shifted = ellipse(conic(1, 0, 1, -2, 0, 0))  # (x-1)^2 + y^2 = 1
    d, pairs = min_index_pairs(shifted)
    assert d == 2 and len(pairs) == 8
    pts = {p for pair in pairs for p in pair}
    assert pts == {(F(0), F(0)), (F(2), F(0)), (F(1), F(1)), (F(1), F(-1))}

    sheared = ellipse(conic(1, -2, 2, 0, 0, -1))
    d, pairs = min_index_pairs(sheared)
    assert d == 2
    assert ((F(1), F(0)), (F(1), F(1))) in pairs


def test_ellipse_invariant_equalities():
    E = ellipse(CIRCLE)
    sheared = ellipse(conic(1, -2, 2, 0, 0, -1))
    assert ellipse_invariant(E) == ellipse_invariant(sheared)
    big = ellipse(conic(1, 0, 1, 0, 0, -4))
    assert ellipse_invariant(E) != ellipse_invariant(big)


def test_ellipse_invariance_under_group():
    rng = random.Random(44)
    E = ellipse(CIRCLE)
    base_inv = ellipse_invariant(E)
    for _ in range(12):
        g = rand_unimodular(rng, 2)
        im = ellipse(pullback(CIRCLE, g.inverse()))
        assert ellipse_invariant(im) == base_inv


def test_ellipse_equivalence():
    E = ellipse(CIRCLE)
    sheared_conic = conic(1, -2, 2, 0, 0, -1)
    m = ellipse_equivalence(E, ellipse(sheared_conic))
    assert m is not None
    assert conics_match_up_to_scalar(pullback(sheared_conic, m), CIRCLE)
    assert ellipse_equivalence(E, ellipse(conic(1, 0, 1, 0, 0, -4))) is None
    m = ellipse_equivalence(E, E)
    assert m is not None


def test_ellipse_roundtrips():
    rng = random.Random(45)
    E = ellipse(CIRCLE)
    for _ in range(10):
        g = rand_unimodular(rng, 2)
        im_conic = pullback(CIRCLE, g.inverse())
        m = ellipse_equivalence(E, ellipse(im_conic))
        assert m is not None
        assert conics_match_up_to_scalar(pullback(im_conic, m), CIRCLE)


def test_ellipse_constructor_rejects_non_ellipses():
    with pytest.raises(NotInClass):
        ellipse(conic(1, 0, 1, 0, 0, -3))
    with pytest.raises(NotInClass):
        ellipse(conic(1, 0, -1, 0, 0, -1))


def test_nonsquare_det_has_no_conjugate_pairs():
    # x^2 + 2y^2 = 1 is a rational ellipse with rational points but admits
    # no rational conjugate semi-diameter pair (det Q = 2 is not a square);
    # the index search reports that instead of diverging
    co = conic(1, 0, 2, 0, 0, -1)
    assert classify(co) == ELLIPSE
    E = ellipse(co)
    assert not E.has_conjugate_pairs()
    pts = rational_points(E, 20)
    assert all(E.conjugacy_product(x, y) != 0 for x in pts for y in pts)
    with pytest.raises(NotInClass):
        min_index_pairs(E)
    with pytest.raises(NotInClass):
        conjugate_diameter(E, ((F(-1), F(0)), (F(1), F(0))))
    # square det: pairs exist immediately
    E2 = ellipse(conic(4, 0, 1, 0, 0, -1))
    assert E2.has_conjugate_pairs()
    d, pairs = min_index_pairs(E2)
    assert d == 3 and pairs


def _pullback_oracle(co, A, t):
    """Coefficients of x -> co(A x + t), by expanding the six monomials."""
    a, b, c, d, e, f = co
    (a11, a12), (a21, a22) = A
    X = (a11, a12, t[0])  # X = a11 x + a12 y + t1, as (x, y, 1) coefficients
    Y = (a21, a22, t[1])

    def mul(p, q):
        out = [0] * 6  # x^2, xy, y^2, x, y, 1
        for i, j, slot in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2),
                           (0, 2, 3), (2, 0, 3), (1, 2, 4), (2, 1, 4),
                           (2, 2, 5)):
            out[slot] += p[i] * q[j]
        return out

    terms = [(a, mul(X, X)), (b, mul(X, Y)), (c, mul(Y, Y)),
             (d, [0, 0, 0] + list(X)), (e, [0, 0, 0] + list(Y)),
             (f, [0, 0, 0, 0, 0, 1])]
    return tuple(sum(k * m[s] for k, m in terms) for s in range(6))


ELLIPSE_CORPUS_CONICS = ((1, 0, 1, 0, 0, -1), (1, -2, 2, 0, 0, -1),
                         (4, 0, 1, 0, 0, -1), (1, 0, 1, -2, 0, 0),
                         (1, 0, 1, 0, 0, -4), (1, 0, 1, 0, 0, -1),
                         (1, 0, 4, 0, 0, -1), (2, 2, 5, 0, 0, -9))


def ellipse_witness_corpus():
    """8 pairs of conics: one and its pullback by a random map's inverse (an
    equivalent ellipse); the third of every four pairs it with the next
    conic of the list, and the fourth with a disc of radius 2."""
    rng = random.Random(14)
    cases = []
    for i, co in enumerate(ELLIPSE_CORPUS_CONICS):
        co = tuple(F(x) for x in co)
        ginv = rand_unimodular(rng, 2, tmax=2).inverse()
        other = _pullback_oracle(co, ginv.matrix, ginv.translation)
        if i % 4 == 2:
            other = tuple(F(x) for x in ELLIPSE_CORPUS_CONICS[i + 1])
        elif i % 4 == 3:
            other = (F(1), F(0), F(1), F(0), F(0), F(-4))
        cases.append((co, other))
    return cases


# (matrix, translation) per ellipse_witness_corpus case, or None; recorded
# from the implementation that recomputed every invariant per decision
PINNED_ELLIPSE_WITNESSES = [
    (((1, 1), (0, -1)), (0, 0)),
    (((2, 1), (-1, 0)), (-2, 2)),
    None,
    None,
    (((1, 1), (0, -1)), (0, -2)),
    (((2, 1), (1, 0)), (2, 0)),
    None,
    None,
]


def test_ellipse_equivalence_pinned_witnesses():
    for (co1, co2), pinned in zip(ellipse_witness_corpus(),
                                  PINNED_ELLIPSE_WITNESSES):
        g = ellipse_equivalence(ellipse(conic(*co1)), ellipse(conic(*co2)))
        if pinned is None:
            assert g is None
            continue
        assert (g.matrix, g.translation) == pinned
        A, t = pinned
        assert A[0][0] * A[1][1] - A[0][1] * A[1][0] in (1, -1)
        # co2(A x + t) is a nonzero multiple of co1(x)
        pulled = _pullback_oracle(co2, A, t)
        s = next(p / q for p, q in zip(pulled, co1) if q)
        assert s != 0 and pulled == tuple(s * q for q in co1)


def _conic_at(co, p):
    a, b, c, d, e, f = co
    x, y = p
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def _grid_points_on(co, o, x, y, kmax):
    """Test-side brute force: the points of denominator <= kmax on the
    conic, scanned over the box that holds the ellipse with center o and
    conjugate semi-diameters (o, x), (o, y)."""
    r = [abs(xc - oc) + abs(yc - oc) for oc, xc, yc in zip(o, x, y)]
    out = []
    for k in range(1, kmax + 1):
        xs, ys = (range(math.floor((oc - rc) * k), math.ceil((oc + rc) * k) + 1)
                  for oc, rc in zip(o, r))
        out += [p for i in xs for j in ys
                if _conic_at(co, p := (F(i, k), F(j, k))) == 0]
    return out


def _shifted(o, w, k=1):
    return tuple(oc + k * wc for oc, wc in zip(o, w))


def _area_over_pi(o, x, y):
    return abs((x[0] - o[0]) * (y[1] - o[1]) - (x[1] - o[1]) * (y[0] - o[0]))


def ellipse_decision_corpus(n=36):
    """(kind, (o, x, y), (o', x', y')): two ellipses, each by its center and
    the ends of two conjugate semi-diameters, cycling over three kinds: the
    second is the image of the first under a random unimodular map
    ("positive"), that image with doubled semi-diameters ("scaled"), or the
    first's semi-diameters at a center of another denominator
    ("equal-area")."""
    rng = random.Random(63)
    cases = []
    for i in range(n):
        o = rand_point(rng, 2, 2, 1)
        while True:
            u, v = rand_point(rng, 2, 2, 1), rand_point(rng, 2, 2, 1)
            if u[0] * v[1] - u[1] * v[0]:
                break
        kind = ("positive", "scaled", "equal-area")[i % 3]
        if kind == "equal-area":
            # den(o_x + 1/(d + 1)) is a multiple of d + 1, with d = den(o)
            o2 = (o[0] + F(1, den(o) + 1), o[1])
            second = (o2, _shifted(o2, u), _shifted(o2, v))
        else:
            g = rand_unimodular(rng, 2, tmax=2)
            k = 1 if kind == "positive" else 2
            second = tuple(apply_affine(g.matrix, g.translation, p)
                           for p in (o, _shifted(o, u, k), _shifted(o, v, k)))
        cases.append((kind, (o, _shifted(o, u), _shifted(o, v)), second))
    return cases


def test_ellipse_equivalence_against_full_invariants():
    # the decision (areas, then one anchored walk) against the two full
    # invariants it replaces
    equal_area_negatives = 0
    for kind, first, second in ellipse_decision_corpus():
        co1, co2 = (ellipse_from_semidiameters(*s) for s in (first, second))
        e1, e2 = ellipse(co1), ellipse(co2)
        g = ellipse_equivalence(e1, e2)
        assert (g is None) == (ellipse_invariant(e1) != ellipse_invariant(e2))
        assert (g is None) == (kind != "positive")
        oracle = _witness_decision(_ellipse_with_witness(e1),
                                   _ellipse_with_witness(e2))
        if g is None:
            assert oracle is None
            equal_area_negatives += _area_over_pi(*first) == _area_over_pi(*second)
            continue
        assert (g.matrix, g.translation) == (oracle.matrix, oracle.translation)
        pts = _grid_points_on(co1, *first, 3)
        assert len(pts) >= 4
        assert all(_conic_at(co2, apply_affine(g.matrix, g.translation, p)) == 0
                   for p in pts)
    # these reach the walk over the second ellipse's pairs and find no match
    assert equal_area_negatives == 12


def test_ellipse_equivalence_checks_pairs_before_any_search():
    # x^2 + 2y^2 = 1 has rational points but no rational conjugate pair;
    # either side reports it, before the other side's search can pass a cap
    message = "ellipse has no rational conjugate semi-diameter pairs"
    no_pairs = ellipse(conic(1, 0, 2, 0, 0, -1))
    o = (F(1, 101), F(0))
    far = ellipse(ellipse_from_semidiameters(o, (o[0] + 1, o[1]), (o[0], o[1] + 1)))
    old = budget.set_max_den(64)
    try:
        with pytest.raises(SearchBudgetExceeded):
            ellipse_equivalence(far, far)
        for other in (ellipse(CIRCLE), far, no_pairs):
            for e1, e2 in ((no_pairs, other), (other, no_pairs)):
                with pytest.raises(NotInClass) as exc:
                    ellipse_equivalence(e1, e2)
                assert str(exc.value) == message
    finally:
        budget.set_max_den(old)


def test_legendre_reduction_vs_brute_force():
    # square factors on each coefficient and factors shared by two or all
    # three, so every reduction move is needed before the residue test
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    for _ in range(300):
        g, h, k = (rng.choice([1, 1, 2, 3, 5]) for _ in range(3))
        coeffs = [rng.choice([1, -1]) * rng.randint(1, 7) * rng.choice([1, 1, 4, 9])
                  for _ in range(3)]
        p, q, r = coeffs[0] * g * h, coeffs[1] * g * k, coeffs[2] * h * k
        if abs(p * q * r) > 60 ** 3:
            continue
        solvable = legendre_brute(p, q, r)
        assert (legendre_solve(p, q, r) is not None) == solvable
        seen[solvable] += 1
    assert seen[True] >= 50 and seen[False] >= 50


def _sum_of_two_squares_cases():
    """n for x^2 + y^2 = n z^2 up to 1e12, smallest first.  Every
    unsolvable n is kept; a solvable one only when its squarefree part is
    small, since a point is still found by scanning a box of side sqrt of
    that part."""
    rng = random.Random(48)
    cases = [10 ** 12 + 7, 10 ** 12 + 39, 999999999959, 3 * 10 ** 11,
             2 * 7 ** 2 * 13 * 10 ** 6, 5 * 11 ** 10]
    for _ in range(30):
        cases.append(rng.randint(1, 10 ** 12))
    for _ in range(40):
        m = rng.randint(1, 10 ** 5)
        cases.append(m * m * rng.choice([1, 2, 5, 10, 13, 29, 3, 7, 21, 33]))
    for n in sorted(cases):
        core = math.prod(p for p, e in trial_factor(n).items() if e % 2)
        if not is_sum_of_two_squares(n) or core <= 10 ** 4:
            yield n


def test_legendre_sum_of_two_squares_up_to_1e12():
    seen = {True: 0, False: 0}
    for n in _sum_of_two_squares_cases():
        solvable = is_sum_of_two_squares(n)
        t0 = time.perf_counter()
        sol = legendre_solve(1, 1, -n)
        elapsed = time.perf_counter() - t0
        assert (sol is not None) == solvable, n
        if sol is None:
            assert elapsed < 1.0, (n, elapsed)
        else:
            x, y, z = sol
            assert x * x + y * y == n * z * z and z != 0
        seen[solvable] += 1
    assert seen[True] >= 20 and seen[False] >= 20


# legendre_solve outputs recorded from the recursive squarefree reduction
# that decided by exhausting the Holzer box; the first point of the reduced
# triple's scan, mapped back, must not change
PINNED_LEGENDRE_SOLUTIONS = [
    ((19, -8, -304), (4, 0, 1)),
    ((-4144, -161, 315), (1, 16, 12)),
    ((-96, 13056, 45), (16, 1, 16)),
    ((134620, -145, -675), (1, 4, 14)),
    ((89712, -84, 532), (1, 36, 6)),
    ((65, -453060, 480), (18, 1, 30)),
    ((-91, 2079, 49), (12, 1, 15)),
    ((750, -1296, -138024), (18, 9, 1)),
    ((39, -1332, 6), (2, 1, 14)),
    ((-64, 6336, -72), (9, 1, 4)),
    ((2821230, -120, -3750), (1, 27, 27)),
    ((10, -1440, -36), (12, 1, 0)),
    ((80, -3920, -12), (7, 1, 0)),
    ((-18296, 1150, -26), (1, 4, 2)),
    ((196992, 288, -198), (1, 30, 48)),
    ((84, 16134, -2250), (7, 1, 3)),
    ((196, -15750, -126), (15, 1, 15)),
    ((-288, 34560, -468), (4, 1, 8)),
    ((-672, 24, -96), (0, 2, 1)),
    ((-8, 88, 10), (4, 1, 2)),
    ((-28, -383040, 693), (24, 1, 24)),
    ((-252, 36585, -33), (12, 1, 3)),
    ((-108, 2525, 7), (5, 1, 5)),
    ((-26, 432, -20992), (16, 8, 1)),
    ((629856, -4350, -384), (2, 0, 81)),
    ((-160, 11, 40), (1, 0, 2)),
    ((-129600, -95, 495), (1, 18, 18)),
    ((540, 220, -146160), (16, 6, 1)),
    ((270, -2202552, 672), (30, 1, 54)),
    ((19584, -64, 8), (1, 18, 12)),
    ((-900, 400275, -375), (21, 1, 3)),
    ((-400, 72, 448), (18, 20, 15)),
    ((-63, 15, 25353), (24, 27, 1)),
    ((-35289, 1425, -84), (1, 5, 2)),
    ((700, -1230768, -112), (2, 0, 5)),
    ((-12, 243, -27), (0, 1, 3)),
    ((-280, 57780, 580), (15, 1, 3)),
    ((-100, 100, 43200), (1, 1, 0)),
    ((27228, -12, -540), (1, 8, 7)),
    ((-60, 7440, 3000), (70, 5, 6)),
]


def test_legendre_pinned_solutions():
    for (p, q, r), sol in PINNED_LEGENDRE_SOLUTIONS:
        assert legendre_solve(p, q, r) == sol


def test_min_index_pairs_against_full_rescan():
    # the index search of every denominator bound from scratch, built on
    # rational_points (checked against a grid above) and the level form
    cases = [CIRCLE, conic(4, 0, 1, 0, 0, -1), conic(1, 0, 1, 0, 0, -25),
             conic(2, 2, 5, 0, 0, -9), ellipse_from_semidiameters(
                 (F(1, 2), F(0)), (F(3, 2), F(1, 3)), (F(1, 4), F(1)))]
    for co in cases:
        E = ellipse(co)
        d, pairs = min_index_pairs(E)
        pts = rational_points(E, d - 1)
        (a, b), (_, c) = E.qmat
        o = E.center
        expect = []
        for x in pts:
            for y in pts:
                u = (x[0] - o[0], x[1] - o[1])
                v = (y[0] - o[0], y[1] - o[1])
                if a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0]) \
                        + c * u[1] * v[1] == 0:
                    expect.append((den(x) + den(y), x, y))
        assert min(expect)[0] == d
        assert pairs == sorted((x, y) for s, x, y in expect if s == d)


def _reduced_triple(rng):
    """A random squarefree, pairwise coprime, mixed-sign triple, with the
    third coefficient drawn as +-1, even or odd."""
    while True:
        vals = [rng.randint(1, 100) for _ in range(2)]
        vals.append(rng.choice([1, 2 * rng.randint(1, 40), rng.randint(3, 80),
                                rng.randint(3, 80)]))
        if all(e == 1 for v in vals for e in trial_factor(v).values()) and \
                math.gcd(vals[0], vals[1]) == math.gcd(vals[0], vals[2]) \
                == math.gcd(vals[1], vals[2]) == 1:
            signs = [rng.choice([1, -1]) for _ in range(3)]
            if len(set(signs)) == 2:
                return tuple(s * v for s, v in zip(signs, vals))


def test_holzer_scan_matches_full_box():
    # the residue-class scan visits the box's points in the full scan's
    # order, so its first point is the full scan's first point
    rng = random.Random(72)
    seen = {"unit_r": 0, "even_r": 0, "y0": 0, "all": 0}
    while min(seen.values()) < 30:
        p, q, r = _reduced_triple(rng)
        want = holzer_box_scan(p, q, r)
        if want is None:
            continue  # unsolvable by Holzer's theorem; not scanned
        assert _holzer_search(p, q, r, sorted(trial_factor(abs(r)))) == want
        seen["all"] += 1
        seen["unit_r"] += abs(r) == 1
        seen["even_r"] += r % 2 == 0
        seen["y0"] += want[1] == 0


def test_legendre_large_solvable_prime_answers():
    # 999999999989 is a prime = 1 (mod 4); a scan of every x of the Holzer
    # box did not return within minutes
    code = ("from afflat.conics import legendre_solve\n"
            "x, y, z = legendre_solve(1, 1, -999999999989)\n"
            "assert x * x + y * y == 999999999989 * z * z and z\n"
            "print(x, y, z)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _box_points_at(co, o, x, y, j):
    """Test-side brute force: the points of denominator exactly j on the
    conic, by Conic.__call__ at every Fraction point over j of the box that
    holds the ellipse with center o and conjugate semi-diameters (o, x),
    (o, y)."""
    r = [abs(xc - oc) + abs(yc - oc) for oc, xc, yc in zip(o, x, y)]
    xs, ys = (range(math.floor((oc - rc) * j), math.ceil((oc + rc) * j) + 1)
              for oc, rc in zip(o, r))
    return sorted(p for i in xs for k in ys
                  if den(p := (F(i, j), F(k, j))) == j and co(p) == 0)


def test_rational_points_at_against_box_scan():
    # the integer scan (one isqrt per x) against Conic.__call__ at every
    # point of the box: centers of denominator up to 11 and j up to 25,
    # with j = den(O) too, where O plus a semi-diameter is a point
    rng = random.Random(81)
    hits = 0
    for _ in range(8):
        dc = rng.randint(1, 11)
        o = (F(rng.randint(-2 * dc, 2 * dc), dc), F(rng.randint(-2 * dc, 2 * dc), dc))
        while True:
            u, v = ((rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(2))
            if u[0] * v[1] - u[1] * v[0]:
                break
        semis = (o, _shifted(o, u), _shifted(o, v))
        E = ellipse(ellipse_from_semidiameters(*semis))
        for j in (den(o), rng.randint(1, 25)):
            got = _rational_points_at(E, j)
            assert got == _box_points_at(E.conic, *semis, j)
            hits += len(got)
    assert hits >= 32


def test_rational_points_at_far_center_circle():
    # (x - 1/101)^2 + y^2 = 1: its points have odd denominators, so j = 202
    # has none and j = 101 has the image of the circle's twelve points of
    # denominator 1.  The box at j = 202 holds 164k points, so the conic
    # times (101 j)^2 is evaluated at each in integers, and each point
    # found is checked by Conic.__call__
    co = conic(1, 0, 1, F(-2, 101), 0, F(-10200, 10201))
    E = ellipse(co)
    for j, count in ((101, 12), (202, 0)):
        want = [(F(i, j), F(k, j)) for i in range(-j, j + 3)
                for k in range(-j, j + 1)
                if (101 * i - j) ** 2 + (101 * k) ** 2 == (101 * j) ** 2
                and math.gcd(i, k, j) == 1]
        assert all(co(p) == 0 for p in want)
        assert _rational_points_at(E, j) == want and len(want) == count


def _least_first_corpus():
    """Circles of radius 1, 5 and 25 (the last two with many pairs), unit
    circles centered at (1/k, 0), three ellipses whose least triangle is
    missed when the side x -> y is compared before the angle, and their
    images under two shears."""
    base = [conic(1, 0, 1, 0, 0, -r * r) for r in (1, 5, 25)]
    base += [conic(1, 0, 1, F(-2, k), 0, F(1, k * k) - 1) for k in (2, 3, 5, 7)]
    base += [conic(2, -2, 1, 0, F(1, 2), F(-7, 8)),
             conic(5, 4, 1, F(-20, 3), F(-8, 3), F(11, 9)),
             conic(F(5, 9), F(-2, 9), F(2, 9), F(-4, 15), F(-4, 15), F(-21, 25))]
    cases = []
    for co in base:
        cases.append(co)
        for A, t in ((((1, 1), (0, 1)), (0, 0)), (((1, 0), (-2, 1)), (1, -1))):
            cases.append(conic(*_pullback_oracle(co, A, t)))
    return cases


def test_least_triangle_matches_full_invariant():
    # the least-first search against the least entry of the full invariant,
    # and the decision's map against the two full invariants'
    cases = [ellipse(co) for co in _least_first_corpus()]
    full = [_ellipse_with_witness(E) for E in cases]
    for n, E in enumerate(cases):
        assert _least_triangle(E) == (full[n][0][0],) + full[n][1:]
        # each case against itself and against its sheared images
        for m in range(n - n % 3, n - n % 3 + 3):
            g = ellipse_equivalence(E, cases[m])
            oracle = _witness_decision(full[n], full[m])
            assert (g.matrix, g.translation) == (oracle.matrix, oracle.translation)
    assert sum(len(min_index_pairs(E)[1]) >= 16 for E in cases) >= 6


def test_far_center_self_equivalence_uncapped():
    # (x - 1/101)^2 + y^2 = 1 exits 5 under the CLI's default cap, and the
    # library, uncapped, answers with the identity
    E = ellipse(conic(1, 0, 1, F(-2, 101), 0, F(-10200, 10201)))
    old = budget.set_max_den(None)
    try:
        g = ellipse_equivalence(E, E)
    finally:
        budget.set_max_den(old)
    assert (g.matrix, g.translation) == (((1, 0), (0, 1)), (0, 0))


def _first_equivalent_pair():
    co1, co2 = ellipse_witness_corpus()[0]
    return ellipse(conic(*co1)), ellipse(conic(*co2))


def test_ellipse_decision_computes_each_farthest_point_once(monkeypatch):
    # the keys and the triangles of one decision share the farthest regular
    # point of each half-line x -> O and x -> y; each is computed once (one
    # plane_basis call per computation), so there are no more computations
    # than half-lines the two ellipses' minimal-index pairs span
    e1, e2 = _first_equivalent_pair()
    half_lines = {HalfLine(x, through=t) for e in (e1, e2)
                  for x, y in min_index_pairs(e)[1] for t in (e.center, y)}
    calls = counting(monkeypatch, "plane_basis", angles)
    g = ellipse_equivalence(e1, e2)
    assert (g.matrix, g.translation) == PINNED_ELLIPSE_WITNESSES[0]
    assert len(set(calls)) == len(calls) <= len(half_lines)
    assert len(calls) > 4


def test_ellipse_equivalence_unlifts_only_its_witnesses(monkeypatch):
    # the sides, angles and triangles of both ellipses run on lifts: the
    # only points built are the two witness triangles (v, q_H, p_HK), whose
    # planes are all of R^2, so there is no extension: 2 * 3 unlift calls
    # and no lift call
    e1, e2 = _first_equivalent_pair()
    unlifts = counting_in_package(monkeypatch, core.unlift)
    lifts = counting_in_package(monkeypatch, rationals.lift)
    assert ellipse_equivalence(e1, e2) is not None
    assert (len(unlifts), len(lifts)) == (6, 0)
