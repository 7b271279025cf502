import math
import random
from fractions import Fraction
from itertools import product

import pytest

from afflat import angles, core, rationals
from afflat.affine import AffineSpace, affine_invariant
from afflat.angles import (HalfLine, _angle_with_witness, _completion,
                           _farthest_lift, _triangle_with_witness, angle,
                           angle_equivalence, angle_invariant,
                           max_regular_point, min_den_completion, triangle,
                           triangle_equivalence, triangle_invariant)
from afflat.core import UniAffMap, den, lift
from afflat.errors import InputError, InternalCheckError, NotInClass
from afflat.rationals import content
from afflat.segments import _side_with_witness, _witness_decision

from helpers import (_tiny_det, apply_affine, counting, counting_in_package,
                     rand_point, rand_unimodular, regular_by_parallelepiped)

F = Fraction

ORIGIN2 = (F(0), F(0))


def axes_angle():
    return angle(HalfLine(ORIGIN2, direction=(1, 0)),
                 HalfLine(ORIGIN2, direction=(0, 1)))


def test_halfline_normalization():
    h = HalfLine((F(0), F(0)), through=(F(1, 2), F(1, 2)))
    assert h.direction == (1, 1)
    assert h.contains((F(3), F(3)))
    assert not h.contains((F(-1), F(-1)))
    with pytest.raises(InputError):
        HalfLine((F(0),), direction=(1,), through=(F(2),))


def test_halfline_parameter_rejects_wrong_dimension():
    h = HalfLine((0, 0), direction=(1, 0))
    assert h.parameter((5, 0)) == 5
    for x in ((5,), (5, 0, 0)):
        with pytest.raises(InputError):
            h.contains(x)


def test_angle_rejects_trivial():
    with pytest.raises(NotInClass):
        angle(HalfLine(ORIGIN2, direction=(1, 0)),
              HalfLine(ORIGIN2, direction=(-1, 0)))
    with pytest.raises(InputError):
        angle(HalfLine(ORIGIN2, direction=(1, 0)),
              HalfLine((F(1), F(0)), direction=(0, 1)))


def test_max_regular_point_examples():
    assert max_regular_point(HalfLine((F(0),), direction=(1,))) == (F(1),)
    assert max_regular_point(HalfLine((F(0), F(0)), direction=(1, 0))) == (F(1), F(0))
    assert max_regular_point(HalfLine((F(3, 5), F(0)), direction=(1, 0))) == (F(2, 3), F(0))
    assert max_regular_point(HalfLine((F(0), F(0)), direction=(1, 1))) == (F(1), F(1))


def _regular_points_upto(h, dmax):
    """Brute force H_reg members with denominator <= dmax (oracle).

    Every regular partner lies within the farthest one's distance from the
    origin, so a grid box of that radius is exhaustive.  Only the box's
    points on the half-line's line are visited: per denominator k, the one
    y of each x = i/k, or every y at the one x of a vertical line.
    """
    import math
    v = h.origin
    dx, dy = h.direction
    q = max_regular_point(h)
    radius = max(abs(qc - vc) for qc, vc in zip(q, v)) + 1
    out = []
    for k in range(1, dmax + 1):
        lo, hi = ([math.ceil((vc - radius) * k) for vc in v],
                  [math.floor((vc + radius) * k) for vc in v])
        if dx == 0:
            grid = ([(int(v[0] * k), j) for j in range(lo[1], hi[1] + 1)]
                    if (v[0] * k).denominator == 1 else [])
        else:
            grid = []
            for i in range(lo[0], hi[0] + 1):
                j = (v[1] + (F(i, k) - v[0]) * F(dy, dx)) * k
                if j.denominator == 1 and lo[1] <= j <= hi[1]:
                    grid.append((i, j))
        for i, j in grid:
            p = (F(i, k), F(j, k))
            if den(p) != k:
                continue
            t = h.parameter(p)
            if t is None or t == 0:
                continue
            if regular_by_parallelepiped((v, p)):
                out.append(p)
    return out


def test_distinct_denominators_and_q_bruteforce():
    # Lemma-style check: regular partners on a half-line have pairwise
    # distinct denominators, and the library's point is the smallest one
    rng = random.Random(31)
    halflines = [HalfLine((F(3, 5), F(0)), direction=(1, 0)),
                 HalfLine((F(1, 2), F(1, 3)), direction=(2, 1)),
                 HalfLine((F(1, 8), F(0)), direction=(1, 3)),
                 HalfLine((F(0), F(5, 7)), direction=(-1, 2))]
    for _ in range(6):
        v = rand_point(rng, 2, 8, 1)
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        if d == (0, 0):
            d = (1, 0)
        halflines.append(HalfLine(v, direction=d))
    for h in halflines:
        found = _regular_points_upto(h, 30)
        dens = [den(p) for p in found]
        assert len(dens) == len(set(dens))
        q = max_regular_point(h)
        assert den(q) == min(dens)
        assert q in found


def test_min_den_completion_examples():
    assert min_den_completion(axes_angle()) == (F(0), F(1))
    a = angle(HalfLine(ORIGIN2, direction=(1, 0)),
              HalfLine(ORIGIN2, direction=(1, 2)))
    assert min_den_completion(a) == (F(1), F(1))
    swapped = angle(HalfLine(ORIGIN2, direction=(0, 1)),
                    HalfLine(ORIGIN2, direction=(1, 0)))
    assert min_den_completion(swapped) == (F(1), F(0))


def test_completion_point_structure():
    # p lies on a line parallel to H whose origin lies on K
    rng = random.Random(32)
    for _ in range(40):
        v = rand_point(rng, 2, 4, 1)
        d1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        d2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        try:
            a = angle(HalfLine(v, direction=d1), HalfLine(v, direction=d2))
        except (NotInClass, InputError):
            continue
        p = min_den_completion(a)
        # decompose p - v over (dir H, dir K): K-coefficient positive,
        # H-coefficient nonnegative (so p = K-point + t * dir H, t >= 0)
        dh, dk = a.h.direction, a.k.direction
        det = dh[0] * dk[1] - dh[1] * dk[0]
        rel = tuple(pc - vc for pc, vc in zip(p, v))
        bh = F(rel[0] * dk[1] - rel[1] * dk[0], det)
        ck = F(dh[0] * rel[1] - dh[1] * rel[0], det)
        assert ck > 0 and bh >= 0


def _plane_cols(ang):
    """Two coordinates on which the angle's plane projects one to one: the
    first where the minor of the arms' directions is nonzero."""
    dh, dk = ang.h.direction, ang.k.direction
    n = len(dh)
    return next((i, j) for i in range(n) for j in range(i + 1, n)
                if dh[i] * dk[j] != dh[j] * dk[i])


def _angle_coeffs(ang, cols, xi, xj):
    """(a, b) with v + a*dir H + b*dir K equal to (xi, xj) on the
    coordinates cols = _plane_cols(ang) (Cramer)."""
    v, dh, dk = ang.h.origin, ang.h.direction, ang.k.direction
    i, j = cols
    det = dh[i] * dk[j] - dh[j] * dk[i]
    ri, rj = xi - v[i], xj - v[j]
    return F(ri * dk[j] - rj * dk[i], det), F(dh[i] * rj - dh[j] * ri, det)


def _dist2_to_ray(x, v, d):
    """Squared Euclidean distance from x to the half-line v + t*d, t >= 0."""
    rel = [a - b for a, b in zip(x, v)]
    t = max(F(0), F(sum(a * b for a, b in zip(rel, d)), sum(b * b for b in d)))
    return sum((a - t * b) ** 2 for a, b in zip(rel, d))


def _completion_by_box_scan(ang, p, radius):
    """The regular completions of (v, q_H) of denominator <= den(p) in the
    box of the given radius around v, as (squared distance to K, point)
    pairs.  The rational points of the angle's plane are scanned on two
    coordinates where the plane projects one to one, kept when they lie in
    the closed angle region off H, and tested for regularity by the
    parallelepiped criterion (oracle)."""
    v, dh, dk = ang.h.origin, ang.h.direction, ang.k.direction
    q = max_regular_point(ang.h)
    cols = _plane_cols(ang)
    found = []
    for kk in range(1, den(p) + 1):
        grid = [range(math.ceil((v[c] - radius) * kk),
                      math.floor((v[c] + radius) * kk) + 1) for c in cols]
        for i, j in product(*grid):
            a, b = _angle_coeffs(ang, cols, F(i, kk), F(j, kk))
            if a < 0 or b <= 0:
                continue
            x = tuple(vc + a * hc + b * kc for vc, hc, kc in zip(v, dh, dk))
            if (den(x) == kk and all(abs(xc - vc) <= radius
                                     for xc, vc in zip(x, v))
                    and regular_by_parallelepiped((v, q, x))):
                found.append((_dist2_to_ray(x, v, dk), x))
    return found


def test_min_den_completion_against_box_scan():
    # no regular completion in the box has a smaller denominator than p,
    # and none of p's denominator is as near to K; asserted when the box
    # holds p and the segment from p back to K along H
    rng = random.Random(36)
    radius, checked, dens = 1, 0, set()
    for i in range(40):
        n = 2 + i % 2
        v = rand_point(rng, n, 3, 1)
        d1, d2 = (tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(2))
        try:
            a = angle(HalfLine(v, direction=d1), HalfLine(v, direction=d2))
        except (NotInClass, InputError):
            continue
        p = min_den_completion(a)
        cols = _plane_cols(a)
        t, _ = _angle_coeffs(a, cols, p[cols[0]], p[cols[1]])
        foot = tuple(pc - t * hc for pc, hc in zip(p, a.h.direction))
        if den(p) > 6 or any(abs(xc - vc) > radius
                             for x in (p, foot) for xc, vc in zip(x, v)):
            continue
        found = _completion_by_box_scan(a, p, radius)
        assert all(den(x) == den(p) for _, x in found)
        nearest = min(found)
        assert nearest[1] == p
        assert [d for d, _ in found].count(nearest[0]) == 1
        checked += 1
        dens.add(den(p))
    assert checked >= 25 and max(dens) >= 4


def test_angle_invariant_examples():
    inv = angle_invariant(axes_angle())
    assert inv == (1, 1, 1, (F(0), F(0)), 1)


def test_angle_invariance_under_group():
    rng = random.Random(33)
    done = 0
    while done < 60:
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
        assert angle_invariant(im) == angle_invariant(a)
        m = angle_equivalence(a, im)
        assert m is not None and m(v) == g(v)
        done += 1


def _seeded_angles(rng, count):
    """count nontrivial angles, alternately in R^2 and R^3, with vertices of
    denominator up to 12 so that c of a plane in R^3 varies."""
    out = []
    while len(out) < count:
        n = 2 + len(out) % 2
        v = rand_point(rng, n, 12, 1)
        d1, d2 = (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in "hk")
        try:
            out.append(angle(HalfLine(v, direction=d1),
                             HalfLine(v, direction=d2)))
        except (NotInClass, InputError):
            pass
    return out


def test_angle_invariant_is_the_witness_invariant():
    cs = set()
    for ang in _seeded_angles(random.Random(36), 60):
        inv = angle_invariant(ang)
        assert inv == _angle_with_witness(ang)[0]
        cs.add((ang.h.dim, inv.c))
    assert {2, 3} == {n for n, _ in cs}
    assert len({c for n, c in cs if n == 3}) > 2


def test_angle_invariant_builds_no_witness_extension(monkeypatch):
    # c of the plane comes from completion_den; no regular simplex is built
    def refuse(*a):
        raise AssertionError("extend_frame called")

    cases = _seeded_angles(random.Random(37), 20)
    monkeypatch.setattr(angles, "extend_frame", refuse)
    for ang in cases:
        angle_invariant(ang)
    with pytest.raises(AssertionError):
        _angle_with_witness(cases[0])


def vertical_angles():
    v = (F(3, 5), F(0))
    w = (F(1), F(1))
    m_dir = HalfLine(v, through=w).direction
    l1 = HalfLine(v, direction=(1, 0))
    l2 = HalfLine(v, direction=(-1, 0))
    m1 = HalfLine(v, direction=m_dir)
    m2 = HalfLine(v, direction=tuple(-t for t in m_dir))
    return angle(l1, m1), angle(l2, m2), angle(m2, l2)


def test_vertical_angles_differ():
    a1, a2, a3 = vertical_angles()
    assert angle_invariant(a1) != angle_invariant(a2)
    assert angle_invariant(a1) != angle_invariant(a3)
    assert angle_equivalence(a1, a2) is None


def test_angle_translation_equivalence():
    a = axes_angle()
    shift = (F(1), F(1))
    b = angle(HalfLine(shift, direction=(1, 0)),
              HalfLine(shift, direction=(0, 1)))
    m = angle_equivalence(a, b)
    assert m is not None and m((F(0), F(0))) == shift


def test_triangle_rejects_collinear():
    with pytest.raises(NotInClass):
        triangle((F(0), F(0)), (F(1), F(1)), (F(2), F(2)))


def test_triangle_invariant_unit_example():
    t = ((F(1), F(0)), (F(0), F(0)), (F(0), F(1)))
    inv = triangle_invariant(t)
    assert inv.side_vu == (1, F(1), 1, 1)
    assert inv.side_vw == (1, F(1), 1, 1)
    assert inv.angle == (1, 1, 1, (F(0), F(0)), 1)


def test_triangle_orientation_matters():
    u, v, w = (F(1), F(0)), (F(3, 5), F(0)), (F(1), F(1))
    assert triangle_invariant((u, v, w)) != triangle_invariant((w, v, u))


def test_triangle_invariance_and_roundtrips():
    rng = random.Random(34)
    done = 0
    while done < 60:
        n = rng.choice([2, 3])
        u, v, w = (rand_point(rng, n, 4, 1) for _ in range(3))
        try:
            t = triangle(u, v, w)
        except (NotInClass, InputError):
            continue
        g = rand_unimodular(rng, n)
        im = (g(u), g(v), g(w))
        assert triangle_invariant(im) == triangle_invariant(t)
        m = triangle_equivalence(t, im)
        assert m is not None
        assert (m(u), m(v), m(w)) == im
        done += 1


def test_triangle_scaled_not_equivalent():
    unit = ((F(1), F(0)), (F(0), F(0)), (F(0), F(1)))
    double = ((F(2), F(0)), (F(0), F(0)), (F(0), F(2)))
    assert triangle_equivalence(unit, double) is None
    shifted = tuple((a + 5, b + 7) for a, b in unit)
    assert triangle_equivalence(unit, shifted) is not None


def _random_angle_points(rng, n):
    """(v, h, k) through-points of a nontrivial angle."""
    while True:
        v, h, k = (rand_point(rng, n, 4, 1) for _ in range(3))
        try:
            angle(HalfLine(v, through=h), HalfLine(v, through=k))
        except (NotInClass, InputError):
            continue
        return v, h, k


def angle_witness_corpus():
    """8 pairs of (v, h, k), mostly in R^3, where the angle's plane has
    codimension one: the angle and its image under a random map; the third
    of every four swaps the image's arms, the fourth replaces its k."""
    rng = random.Random(12)
    cases = []
    for i, n in enumerate((3, 2, 3, 3, 3, 2, 3, 2)):
        v, h, k = _random_angle_points(rng, n)
        g = rand_unimodular(rng, n)
        image = (g(v), g(h), g(k))
        if i % 4 == 2:
            image = (g(v), g(k), g(h))
        while i % 4 == 3 and image[2] == g(k):
            w = rand_point(rng, n, 4, 1)
            try:
                angle(HalfLine(g(v), through=g(h)), HalfLine(g(v), through=w))
            except (NotInClass, InputError):
                continue
            image = (g(v), g(h), w)
        cases.append(((v, h, k), image))
    return cases


def _angle_of(v, h, k):
    return angle(HalfLine(v, through=h), HalfLine(v, through=k))


# (matrix, translation) per angle_witness_corpus case, or None; recorded
# from the implementation that recomputed every invariant per decision
PINNED_ANGLE_WITNESSES = [
    (((7180683, 17951700, 11369408),
      (-8202388, -20505959, -12987107),
      (-4484618, -11211540, -7100641)),
     (-25431575, 29050110, 15883012)),
    (((-1, 0), (-2, 1)), (3, 1)),
    None,
    None,
    (((13391896, -40581500, 7304669),
      (30259088, -91694199, 16504955),
      (-625185, 1894500, -341009)),
     (-37334979, -84358666, 1742943)),
    (((0, 1), (-1, 0)), (1, 0)),
    None,
    None,
]


def test_angle_equivalence_pinned_witnesses():
    for ((v, h, k), (v2, h2, k2)), pinned in zip(angle_witness_corpus(),
                                                 PINNED_ANGLE_WITNESSES):
        g = angle_equivalence(_angle_of(v, h, k), _angle_of(v2, h2, k2))
        if pinned is None:
            assert g is None
            continue
        assert (g.matrix, g.translation) == pinned
        A, t = pinned
        assert _tiny_det([list(r) for r in A]) in (1, -1)
        zero = (0,) * len(t)
        assert apply_affine(A, t, v) == v2
        # each arm's direction goes to a positive multiple of its image's
        for p, p2 in ((h, h2), (k, k2)):
            d = apply_affine(A, zero, tuple(a - b for a, b in zip(p, v)))
            d2 = tuple(a - b for a, b in zip(p2, v2))
            s = next(x / y for x, y in zip(d, d2) if y)
            assert s > 0 and all(x == s * y for x, y in zip(d, d2))


def triangle_witness_corpus():
    """8 pairs in R^2/R^3: a triangle and its image under a random map; the
    third of every four reverses the image's orientation, the fourth
    replaces its w."""
    rng = random.Random(13)
    cases = []
    for i, n in enumerate((3, 2, 3, 2, 3, 2, 3, 3)):
        while True:
            u, v, w = (rand_point(rng, n, 4, 1) for _ in range(3))
            try:
                triangle(u, v, w)
                break
            except (NotInClass, InputError):
                continue
        g = rand_unimodular(rng, n)
        image = (g(u), g(v), g(w))
        if i % 4 == 2:
            image = (g(w), g(v), g(u))
        while i % 4 == 3 and image[2] == g(w):
            x = rand_point(rng, n, 4, 1)
            try:
                triangle(g(u), g(v), x)
            except (NotInClass, InputError):
                continue
            image = (g(u), g(v), x)
        cases.append(((u, v, w), image))
    return cases


# (matrix, translation) per triangle_witness_corpus case, or None; recorded
# from the implementation that recomputed every invariant per decision
PINNED_TRIANGLE_WITNESSES = [
    (((-1, 1, -1), (-2, 2, -3), (0, -1, 1)), (0, 0, 2)),
    (((-1, -1), (0, 1)), (0, 0)),
    None,
    None,
    (((124085195, 140936269, -183829920),
      (192331096, 218450131, -284934960),
      (-13493061, -15325452, 19989721)),
     (-194553333, -301556169, 21155786)),
    (((1, 0), (2, 1)), (-2, 1)),
    None,
    None,
]


def test_triangle_equivalence_pinned_witnesses():
    for (t1, t2), pinned in zip(triangle_witness_corpus(),
                                PINNED_TRIANGLE_WITNESSES):
        g = triangle_equivalence(t1, t2)
        if pinned is None:
            assert g is None
            continue
        assert (g.matrix, g.translation) == pinned
        A, t = pinned
        assert _tiny_det([list(r) for r in A]) in (1, -1)
        assert tuple(apply_affine(A, t, x) for x in t1) == t2


def test_witness_c_matches_affine_invariant():
    # c of a line or plane is read from the extension of the witness simplex;
    # the affine invariant reaches it on its own path, through min_den_point
    # and the regular frame at the space's least denominator.  A base point
    # of large denominator and short steps make c > 1 common in codimension
    # one.
    rng = random.Random(35)

    def step(n):
        while True:
            d = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(d):
                return d

    cs = set()
    for i in range(70):
        n = 3 if i >= 40 or i % 2 else 2
        v = rand_point(rng, n, 12, 1)
        if i < 40:
            s = rng.randint(1, 3)
            space = [v, tuple(x + F(t, s) for x, t in zip(v, step(n)))]
            inv, wit, _ = _side_with_witness(*space)
        else:
            space = [v] + [tuple(x + t for x, t in zip(v, step(n)))
                           for _ in range(2)]
            try:
                ang = _angle_of(*space)
            except NotInClass:
                continue
            inv, wit, _ = _angle_with_witness(ang)
        c = affine_invariant(AffineSpace(space)).c
        cs.add(c)
        assert inv.c == c
        assert len(wit) == n + 1
        assert _tiny_det([list(lift(x)) for x in wit]) in (1, -1)
        assert all(den(x) == c for x in wit[len(space):])
    assert len(cs) > 3


def test_farthest_point_check_fires_off_the_half_line(monkeypatch):
    # plane_basis gives b with (d, 0) = a lv + g b; with -b in its place
    # the partner k lv - b leaves the half-line, and the integer check on
    # the lift refuses it wherever a farthest point is asked for
    h = HalfLine((F(3, 5), F(0)), direction=(1, 0))
    assert max_regular_point(h) == (F(2, 3), F(0))
    real = angles.plane_basis

    def flipped(p, q):
        b, a, g = real(p, q)
        return tuple(-x for x in b), a, g

    monkeypatch.setattr(angles, "plane_basis", flipped)
    for ang in [axes_angle()] + _seeded_angles(random.Random(42), 20):
        with pytest.raises(InternalCheckError, match="left the half-line"):
            angle_invariant(ang)
    with pytest.raises(InternalCheckError, match="left the half-line"):
        max_regular_point(h)


def test_completion_check_fires_on_a_non_primitive_lift(monkeypatch):
    # _completion takes two contents: of the projected second arm, then of
    # the finished lift.  Reporting the second as that of the doubled lift
    # (2 p has the same point, last entry 2 D) must make the check refuse it
    calls = []
    real = angles.content

    def doubled_second(v):
        calls.append(v)
        return real(v) * (2 if len(calls) % 2 == 0 else 1)

    for ang in _seeded_angles(random.Random(43), 20):
        h, k = ang
        lv = lift(h.origin)
        lq = _farthest_lift(lv, h.direction)
        p = _completion(lv, lq, k.direction)
        assert content(p) == 1 and p == lift(min_den_completion(ang))
        monkeypatch.setattr(angles, "content", doubled_second)
        calls.clear()
        with pytest.raises(InternalCheckError, match="not primitive"):
            _completion(lv, lq, k.direction)
        assert calls[-1] == p
        monkeypatch.setattr(angles, "content", real)


def test_angle_witness_check_fires_on_a_wrong_extension(monkeypatch):
    # the witness extension's denominator must be the c of the invariant,
    # which the lifts gave; an extension at another denominator is refused
    real = angles.extend_frame

    def off_by_one(frame):
        c, ext = real(frame)
        return c + 1, ext

    monkeypatch.setattr(angles, "extend_frame", off_by_one)
    for ang in _seeded_angles(random.Random(45), 4):
        with pytest.raises(InternalCheckError, match="disagrees with c"):
            _angle_with_witness(ang)


def test_triangle_witness_decision_checks_every_mark():
    # a triangle's marks are lifts: q_K, both side chains and the vertices;
    # moving any one lift of any of them makes the witness map miss it
    def moved(q):
        return (q[0] + q[-1],) + q[1:]

    rng = random.Random(44)
    done = 0
    while done < 6:
        n = 2 + done % 2
        u, v, w = (rand_point(rng, n, 5, 1) for _ in range(3))
        try:
            t = triangle(u, v, w)
        except (NotInClass, InputError):
            continue
        g = rand_unimodular(rng, n)
        found1 = _triangle_with_witness(t)
        inv, wit, marks = found2 = _triangle_with_witness(
            tuple(g(x) for x in t))
        assert marks["the vertices"] == tuple(lift(g(x)) for x in t)
        assert set(marks) == {"the second arm", "the first side",
                              "the second side", "the vertices"}
        assert _witness_decision(found1, found2) is not None
        for what, xs in marks.items():
            for i, q in enumerate(xs):
                bad = dict(marks)
                bad[what] = xs[:i] + (moved(q),) + xs[i + 1:]
                with pytest.raises(InternalCheckError, match=what):
                    _witness_decision(found1, (inv, wit, bad))
        done += 1


def test_triangle_equivalence_unlifts_only_its_witnesses(monkeypatch):
    # a triangle in R^3 against its image: each side lifts its vertices
    # once, carries its marks as lifts and unlifts only its witness
    # simplex, the three points of (v, q_H, p_HK) and the one point of the
    # codimension-one extension: 2 * 4 unlift calls and no lift call
    t1 = ((F(1, 3), F(0), F(2, 5)), (F(1), F(1, 2), F(-1)),
          (F(-2, 7), F(3), F(1, 4)))
    g = UniAffMap(((1, 2, 0), (0, 1, 1), (1, 2, 1)), (1, -1, 2))
    t2 = tuple(g(p) for p in t1)
    unlifts = counting_in_package(monkeypatch, core.unlift)
    lifts = counting_in_package(monkeypatch, rationals.lift)
    m = triangle_equivalence(t1, t2)
    assert tuple(m(p) for p in t1) == t2
    assert (len(unlifts), len(lifts)) == (8, 0)


def test_triangle_equivalence_ranks_each_triangle_once(monkeypatch):
    # each triangle is normalized and lifted once, and its lifts go to the
    # parts, whose angle checks their rank: one integer_rank call each
    t1 = ((F(1, 3), F(0), F(2, 5)), (F(1), F(1, 2), F(-1)),
          (F(-2, 7), F(3), F(1, 4)))
    g = UniAffMap(((1, 2, 0), (0, 1, 1), (1, 2, 1)), (1, -1, 2))
    t2 = tuple(g(p) for p in t1)
    ranks = counting(monkeypatch, "integer_rank", angles)
    m = triangle_equivalence(t1, t2)
    assert tuple(m(p) for p in t1) == t2
    assert len(ranks) == 2
    # a collinear first triangle is reported before the second is read
    flat = ((0, 0), (1, 1), (2, 2))
    with pytest.raises(NotInClass):
        triangle_equivalence(flat, ((0, 0), (1,), (0, 1)))
    with pytest.raises(InputError, match="ambient"):
        triangle_equivalence(t1, ((0, 0), (1, 0), (0, 1)))
