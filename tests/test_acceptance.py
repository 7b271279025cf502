"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime against the stated bound (run with -v -s to watch)."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

from afflat.affine import affine_equivalence, affine_invariant, affine_span
from afflat.angles import (HalfLine, angle, angle_equivalence,
                           angle_invariant, triangle, triangle_equivalence)
from afflat.complexes import Triangulation, blow_up
from afflat.conics import (ELLIPSE, ELLIPSE_NO_POINT, classify, conic,
                           conics_match_up_to_scalar, ellipse,
                           ellipse_equivalence, min_index_pairs, pullback)
from afflat.cones import desingularize, fan_rays
from afflat.core import den, extends_to_basis, lift, simplex
from afflat.errors import InputError, NotInClass
from afflat.intlinalg import det_int
from afflat.polyhedra import poly_set_equal, polyhedron_equivalence
from afflat.segments import (hj_chain, lambda1, lambda1_via,
                             segment_equivalence)

from helpers import (hj_step_oracle, legendre_brute, map_space,
                     parallelepiped_extends, rand_point, rand_segment,
                     rand_unimodular, same_space)

F = Fraction


def _report(name, t0, bound):
    dt = time.time() - t0
    assert dt < bound, "%s took %.1fs (bound %ss)" % (name, dt, bound)
    print("ACCEPTANCE %s: PASS (%.2fs < %ss)" % (name, dt, bound))


def test_criterion_1_figure_golden():
    t0 = time.time()
    chain = hj_chain((F(-1, 2),), (F(5, 8),))
    assert len(chain) == 5
    assert [den(x) for x in chain] == [2, 1, 2, 5, 8]
    fan = desingularize([(-1, 2), (5, 8)])
    assert fan_rays(fan) == ((-1, 2), (0, 1), (1, 2), (3, 5), (5, 8))
    assert lambda1((F(-1, 2),), (F(5, 8),)) == F(9, 8)
    _report("1 figure golden", t0, 1)


def test_criterion_2_lambda_laws():
    t0 = time.time()
    rng = random.Random(101)
    for _ in range(500):
        a, b = rand_segment(rng, 1, 50, 1)
        if a > b:
            a, b = b, a
        assert lambda1(a, b) == b[0] - a[0]
    for _ in range(100):
        a, b = rand_segment(rng, 2, 6, 2)
        g = rand_unimodular(rng, 2)
        lam = lambda1(a, b)
        assert lambda1(g(a), g(b)) == lam
        tri = Triangulation([(x, y) for x, y in
                             zip(hj_chain(a, b), hj_chain(a, b)[1:])])
        for _ in range(rng.randint(1, 3)):
            tri = blow_up(tri, rng.choice(tri.maximal))
        assert lambda1_via(a, b, tri) == lam
    _report("2 lambda laws", t0, 30)


def _window_min_den(space, dmax):
    radius = F(1)
    for bvec in space.dirs:
        radius += max(abs(t) for t in bvec)
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


def test_criterion_3_affine_classification():
    t0 = time.time()
    half = affine_span([(F(1, 2), F(0)), (F(0), F(1, 2))])
    fifths = affine_span([(F(2, 5), F(0)), (F(0), F(2, 5))])
    assert affine_invariant(half) == (1, 2, 1)
    assert affine_invariant(fifths) == (1, 5, 2)
    # small-denominator exhaustive oracle for the d components
    assert _window_min_den(half, 2) == 2
    assert _window_min_den(fifths, 5) == 5
    # windowed refutation of smaller c for x + y = 2/5 (c = 2 claimed):
    # no integer apex completes any regular denominator-5 pair of the line
    line_pts = [(F(i, 5), F(2, 5) - F(i, 5)) for i in range(-5, 6)]
    ints = [(F(x), F(y)) for x in range(-2, 3) for y in range(-2, 3)]
    for i, p in enumerate(line_pts):
        for q in line_pts[i + 1:]:
            if not extends_to_basis([lift(p), lift(q)]):
                continue
            for s in ints:
                assert not parallelepiped_extends([lift(p), lift(q), lift(s)])
    rng = random.Random(102)
    for _ in range(100):
        n = rng.randint(1, 3)
        pts = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
        f = affine_span(pts)
        g = rand_unimodular(rng, n)
        target = map_space(g, f)
        m = affine_equivalence(f, target)
        assert m is not None
        assert same_space(map_space(m, f), target)
    _report("3 affine classification", t0, 60)


def test_criterion_4_vertical_angles():
    t0 = time.time()
    v = (F(3, 5), F(0))
    m_dir = HalfLine(v, through=(F(1), F(1))).direction
    a1 = angle(HalfLine(v, direction=(1, 0)), HalfLine(v, direction=m_dir))
    a2 = angle(HalfLine(v, direction=(-1, 0)),
               HalfLine(v, direction=tuple(-t for t in m_dir)))
    assert angle_invariant(a1) != angle_invariant(a2)
    assert angle_equivalence(a1, a2) is None
    _report("4 vertical angles", t0, 5)


def test_criterion_5_completeness_roundtrips():
    t0 = time.time()
    rng = random.Random(103)
    done = 0
    while done < 34:
        n = rng.choice([2, 3])
        a, b = rand_segment(rng, n, 5, 2)
        g = rand_unimodular(rng, n)
        m = segment_equivalence((a, b), (g(a), g(b)))
        assert m is not None and m(a) == g(a) and m(b) == g(b)
        done += 1
    done = 0
    while done < 33:
        n = rng.choice([2, 3])
        v = rand_point(rng, n, 4, 1)
        d1 = tuple(rng.randint(-3, 3) for _ in range(n))
        d2 = tuple(rng.randint(-3, 3) for _ in range(n))
        try:
            a = angle(HalfLine(v, direction=d1), HalfLine(v, direction=d2))
        except (NotInClass, InputError):
            continue
        g = rand_unimodular(rng, n)
        im = angle(HalfLine(g(v), direction=g.map_direction(d1)),
                   HalfLine(g(v), direction=g.map_direction(d2)))
        m = angle_equivalence(a, im)
        assert m is not None and m(v) == g(v)
        assert m(a.h.origin) == im.h.origin
        done += 1
    done = 0
    while done < 33:
        n = rng.choice([2, 3])
        u, v, w = (rand_point(rng, n, 4, 1) for _ in range(3))
        try:
            t = triangle(u, v, w)
        except (NotInClass, InputError):
            continue
        g = rand_unimodular(rng, n)
        im = (g(u), g(v), g(w))
        m = triangle_equivalence(t, im)
        assert m is not None and (m(u), m(v), m(w)) == im
        done += 1
    unit = ((F(1), F(0)), (F(0), F(0)), (F(0), F(1)))
    double = tuple((2 * x, 2 * y) for x, y in unit)
    assert triangle_equivalence(unit, double) is None
    assert segment_equivalence(((F(0),), (F(1),)), ((F(0),), (F(2),))) is None
    _report("5 completeness roundtrips", t0, 120)


def test_criterion_6_ellipses():
    t0 = time.time()
    circle = conic(1, 0, 1, 0, 0, -1)
    assert classify(circle) == ELLIPSE
    assert classify(conic(1, 0, 1, 0, 0, -3)) == ELLIPSE_NO_POINT
    E = ellipse(circle)
    d, pairs = min_index_pairs(E)
    assert d == 2 and len(pairs) == 8
    from afflat.core import UniAffMap
    g = UniAffMap(((1, 1), (0, 1)), (0, 0))
    image = pullback(circle, g.inverse())
    m = ellipse_equivalence(E, ellipse(image))
    assert m is not None
    assert conics_match_up_to_scalar(pullback(image, m), circle)
    rng = random.Random(104)
    for _ in range(50):
        gg = rand_unimodular(rng, 2)
        im = pullback(circle, gg.inverse())
        mm = ellipse_equivalence(E, ellipse(im))
        assert mm is not None
        assert conics_match_up_to_scalar(pullback(im, mm), circle)
    _report("6 ellipses", t0, 60)


def _rand_simplex(rng, n):
    while True:
        d = rng.randint(0, n)
        pts = [rand_point(rng, n, 4, 2) for _ in range(d + 1)]
        try:
            return simplex(pts)
        except InputError:
            continue


def test_criterion_7_polyhedra():
    t0 = time.time()
    rng = random.Random(105)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        P = [_rand_simplex(rng, n) for _ in range(rng.randint(1, 5))]
        g = rand_unimodular(rng, n, tmax=2)
        Q = [tuple(g(v) for v in s) for s in P]
        m = polyhedron_equivalence(P, Q)
        assert m is not None
        assert poly_set_equal([tuple(m(v) for v in s) for s in P], Q)
    assert polyhedron_equivalence([((F(0),), (F(1),))],
                                  [((F(0),), (F(2),))]) is None
    _report("7 polyhedra decision", t0, 600)


def test_criterion_8_oracle_agreement():
    t0 = time.time()
    # extends_to_basis vs parallelepiped enumeration
    for m in (1, 2, 3):
        for v in product(range(-4, 5), repeat=m):
            if any(v):
                assert extends_to_basis([v]) == parallelepiped_extends([v])
    vecs2 = [v for v in product(range(-4, 5), repeat=2) if any(v)]
    for a, b in combinations(vecs2, 2):
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        assert extends_to_basis([a, b]) == parallelepiped_extends([a, b])
    vecs3 = [v for v in product(range(-1, 2), repeat=3) if any(v)]
    for a, b, c in combinations(vecs3, 3):
        if det_int([a, b, c]) == 0:
            continue
        assert extends_to_basis([a, b, c]) == parallelepiped_extends([a, b, c])
    rng = random.Random(106)
    done = 0
    while done < 400:
        k = rng.choice([2, 3])
        vs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(k)]
        try:
            got = extends_to_basis(vs)
        except InputError:
            continue
        assert got == parallelepiped_extends(vs)
        done += 1
    # hj steps vs exhaustive minimal-denominator search
    cases = [((F(-1, 2),), (F(5, 8),)), ((F(0),), (F(2, 5),))]
    while len(cases) < 12:
        n = rng.choice([1, 2])
        a, b = rand_segment(rng, n, 12, 1)
        if all(abs(x - y) <= 2 for x, y in zip(a, b)):
            cases.append((a, b))
    for a, b in cases:
        chain = hj_chain(a, b)
        for x, y in zip(chain, chain[1:]):
            assert hj_step_oracle(x, b) == y
    # legendre_solve vs brute force
    from afflat.conics import legendre_solve
    for _ in range(200):
        p = rng.randint(-20, 20) or 1
        q = rng.randint(-20, 20) or 1
        r = rng.randint(-20, 20) or -1
        assert (legendre_solve(p, q, r) is not None) == legendre_brute(p, q, r)
    _report("8 oracle agreement", t0, 300)
