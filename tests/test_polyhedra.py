import math
import random
from fractions import Fraction

import pytest

from afflat import cones, polyhedra
from afflat.cones import (cone, desingularize, fan_rays, is_regular_cone,
                          parallelepiped_points)
from afflat.convexity import clip_simplex
from afflat.core import is_regular, lift, simplex
from afflat.errors import InputError
from afflat.polyhedra import (convex_hull, poly_set_equal, polyhedron,
                              polyhedron_equivalence, regular_simplex_in,
                              triangulate)
from afflat.segments import hj_chain, lambda1

from helpers import (_tiny_det, box_parallelepiped_points, in_hull_by_dets,
                     interval_union, rand_point, rand_unimodular,
                     stellar_desingularize)

F = Fraction


def seg(a, b):
    return (F(a),), (F(b),)


def tri(*pts):
    return tuple(tuple(F(c) for c in p) for p in pts)


def rand_simplex(rng, n, dmax=4, span=2):
    while True:
        d = rng.randint(0, n)
        pts = [rand_point(rng, n, dmax, span) for _ in range(d + 1)]
        try:
            return simplex(pts)
        except InputError:
            continue


def test_desingularize_examples():
    assert desingularize([(1, 0), (0, 1)]) == (((0, 1), (1, 0)),)
    fan = desingularize([(1, 0), (1, 2)])
    assert set(fan) == {((1, 0), (1, 1)), ((1, 1), (1, 2))}
    fan = desingularize([(-1, 2), (5, 8)])
    assert fan_rays(fan) == ((-1, 2), (0, 1), (1, 2), (3, 5), (5, 8))


def test_desingularize_output_regular_and_supported():
    rng = random.Random(51)
    for _ in range(25):
        m = rng.choice([2, 3])
        gens = []
        while len(gens) < m:
            v = tuple(rng.randint(-4, 4) for _ in range(m))
            try:
                gens = list(cone(gens + [v]))
            except InputError:
                continue
        fan = desingularize(gens)
        for c in fan:
            assert is_regular_cone(c)
        rays = set(fan_rays(fan))
        assert set(cone(gens)) <= rays
        from afflat.cones import cone_contains
        for r in rays:
            assert cone_contains(cone(gens), r)


def test_desingularize_matches_hj_for_segment_cones():
    rng = random.Random(52)
    for _ in range(25):
        a = (F(rng.randint(-12, 12), rng.randint(1, 6)),)
        b = (F(rng.randint(-12, 12), rng.randint(1, 6)),)
        if a == b:
            continue
        fan = desingularize([lift(a), lift(b)])
        rays = sorted(fan_rays(fan), key=lambda r: F(r[0], r[1]))
        chain = [lift(x) for x in hj_chain(*sorted([a, b]))]
        assert rays == chain


def test_desingularize_2d_matches_stellar_exhaustively():
    prim = [(x, y) for x in range(-5, 6) for y in range(-5, 6)
            if math.gcd(x, y) == 1]
    cones = {tuple(sorted((p, q))) for p in prim for q in prim
             if p[0] * q[1] - p[1] * q[0] != 0}
    assert len(cones) == 3120
    for c in sorted(cones):
        assert desingularize(c) == stellar_desingularize(c), c


def rand_cone(rng, m, t, emax):
    gens = []
    while len(gens) < t:
        v = tuple(rng.randint(-emax, emax) for _ in range(m))
        try:
            gens = list(cone(gens + [v]))
        except InputError:
            continue
    return gens


def test_desingularize_matches_stellar_in_higher_dimension():
    # two generators in Z^3 and Z^4 walk their plane's chain; three or more
    # subdivide stellarly at the coset-enumerated parallelepiped points
    rng = random.Random(54)
    cases = [[(1, 0, 0), (0, 1, 0), (1, 1, 12)], [(1, 0, 0), (0, 1, 0), (1, 2, 7)]]
    for m, t in [(3, 2), (4, 2), (3, 3), (4, 3)] * 5:
        cases.append(rand_cone(rng, m, t, 3))
    for gens in cases:
        assert desingularize(gens) == stellar_desingularize(gens), gens


def test_desingularize_worklist_matches_stellar():
    # the worklist subdivides the least irregular cone, as the oracle's full
    # rescan does, so the fans agree cone for cone
    for m in (2, 3, 5, 8, 13, 21, 34, 55, 80):
        gens = [(1, 0, 0), (0, 1, 0), (1, 1, m)]
        assert desingularize(gens) == stellar_desingularize(gens), m
    rng = random.Random(73)
    cases = [[(1, 0, 0), (0, 1, 0),
              (rng.randint(0, 6), rng.randint(0, 6), rng.randint(7, 15))]
             for _ in range(6)]
    for m, t in [(3, 3), (4, 3), (4, 4)] * 6:
        cases.append(rand_cone(rng, m, t, 2))
    for gens in cases:
        assert desingularize(gens) == stellar_desingularize(gens), gens


def test_desingularize_subdivides_on_faces_like_stellar(monkeypatch):
    # several subdivision points of these cones lie on proper faces, shared
    # with a neighbouring cone or on the boundary; the ray index must find
    # every cone containing such a point, as the oracle's scan does
    targets = []
    real = cones._subdivision_point
    monkeypatch.setattr(cones, "_subdivision_point",
                        lambda c: targets.append(c) or real(c))
    for gens, faces in (([(2, 1, 0), (0, 7, 1), (1, 1, 5)], 3),
                        ([(-1, -3, -3, 3), (0, -1, 2, -3), (0, -1, 3, 2),
                          (0, 3, 2, 2)], 18)):
        targets.clear()
        assert desingularize(gens) == stellar_desingularize(gens), gens
        coefs = [min(box_parallelepiped_points(c),
                     key=lambda sc: (sum(sc[0]), sc[1]))[0] for c in targets]
        assert sum(0 in sc for sc in coefs) == faces, gens


def test_parallelepiped_points_match_box_scan():
    rng = random.Random(55)
    seen = 0
    while seen < 40:
        m = rng.choice([3, 4])
        t = rng.choice([m, m, m - 1])
        gens = rand_cone(rng, m, t, 3)
        pts = parallelepiped_points(gens)
        if len(pts) + 1 > 60:
            continue
        assert set(pts) == set(box_parallelepiped_points(gens)), gens
        assert len(set(pts)) == len(pts)
        seen += 1


def test_desingularize_rejects_dependent():
    with pytest.raises(InputError):
        desingularize([(1, 0), (2, 0)])


def test_convex_hull_examples():
    h = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
                     (F(1, 2), F(1, 2))])
    assert h.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
    assert h.equations == ()
    assert len(h.facets) == 4
    h = convex_hull([(F(0),), (F(1, 2),), (F(1),)])
    assert h.vertices == ((F(0),), (F(1),))
    tri_pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    h = convex_hull(tri_pts)
    assert h.vertices == tuple(sorted(tri_pts))


def test_convex_hull_facets_cut_out_hull():
    from afflat.rationals import vdot
    pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    h = convex_hull(pts)
    inside = (F(1, 2), F(1, 3))
    outside = (F(2), F(0))
    assert all(vdot(a, inside) <= c for a, c in h.facets)
    assert not all(vdot(a, outside) <= c for a, c in h.facets)


def test_poly_set_equal_examples():
    assert poly_set_equal([seg(0, 1)], [seg(0, F(1, 2)), seg(F(1, 2), 1)])
    assert not poly_set_equal([seg(0, 1)], [seg(0, 1), ((F(2),),)])
    t = tri((0, 0), (1, 0), (0, 1))
    blown = triangulate([t])
    assert poly_set_equal([t], blown.support())


def test_poly_set_equal_is_reflexive_symmetric():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.choice([1, 2])
        P = [rand_simplex(rng, n) for _ in range(rng.randint(1, 3))]
        Q = [rand_simplex(rng, n) for _ in range(rng.randint(1, 3))]
        assert poly_set_equal(P, P)
        assert poly_set_equal(P, Q) == poly_set_equal(Q, P)


def test_poly_set_equal_mixed_dimensions():
    t = tri((0, 0), (2, 0), (0, 2))
    spike = ((F(0), F(0)), (F(-1), F(0)))
    assert not poly_set_equal([t], [t, spike])
    inner = ((F(0), F(0)), (F(1), F(0)))
    assert poly_set_equal([t], [t, inner])


def test_poly_set_equal_same_hull_different_sets():
    e = lambda a, b: (tuple(map(F, a)), tuple(map(F, b)))
    outline = [e((0, 0), (1, 0)), e((1, 0), (1, 1)),
               e((1, 1), (0, 1)), e((0, 1), (0, 0))]
    withdiag = outline + [e((0, 0), (1, 1))]
    assert not poly_set_equal(outline, withdiag)
    assert polyhedron_equivalence(outline, withdiag) is None
    rotated = [e((0, 0), (0, 1)), e((0, 1), (1, 1)),
               e((1, 1), (1, 0)), e((1, 0), (0, 0))]
    assert poly_set_equal(outline, rotated)


def quarter_triangles():
    """The 16 triangles of the 4x4 subdivision of the unit triangle."""
    q = F(1, 4)
    out = []
    for i in range(4):
        for j in range(4 - i):
            out.append(tri((i * q, j * q), ((i + 1) * q, j * q),
                           (i * q, (j + 1) * q)))
            if i + j <= 2:
                out.append(tri(((i + 1) * q, j * q), (i * q, (j + 1) * q),
                               ((i + 1) * q, (j + 1) * q)))
    return out


def test_unit_triangle_minus_a_small_triangle_differs():
    t = tri((0, 0), (1, 0), (0, 1))
    small = quarter_triangles()
    assert len(small) == 16
    for k, hole in enumerate(small):
        Q = small[:k] + small[k + 1:]
        # certificate: the hole's barycenter lies in T and in no simplex of Q
        bary = tuple(sum(c) / 3 for c in zip(*hole))
        assert in_hull_by_dets(t, bary)
        assert not any(in_hull_by_dets(s, bary) for s in Q)
        assert not poly_set_equal([t], Q)
        assert not poly_set_equal(Q, [t])
        assert polyhedron_equivalence([t], Q) is None


def rand_union_1d(rng, pool):
    """Points and segments with endpoints from pool."""
    out = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.choice(pool), rng.choice(pool)
        out.append(((a,),) if a == b or rng.random() < 0.25
                   else tuple(sorted([(a,), (b,)])))
    return out


def retiled_1d(rng, P, pool):
    """Simplexes with the union of P, cut at pool points, with a duplicated
    piece and nested points and segments; then, half the time, one piece
    dropped, moved or added, which may or may not change the union."""
    Q = []
    for lo, hi in interval_union(P):
        cuts = sorted({lo, hi} | {x for x in pool
                                  if lo < x < hi and rng.random() < 0.5})
        Q += [((a,), (b,)) for a, b in zip(cuts, cuts[1:])] or [((lo,),)]
        inner = [x for x in pool if lo <= x <= hi]
        if rng.random() < 0.5:
            Q.append(((rng.choice(inner),),))
        a, b = rng.choice(inner), rng.choice(inner)
        if a < b and rng.random() < 0.5:
            Q.append(((a,), (b,)))
    Q.append(rng.choice(Q))
    rng.shuffle(Q)
    change = rng.randrange(6)
    if change == 0 and len(Q) > 1:
        Q.pop()
    elif change == 1:
        Q += rand_union_1d(rng, pool)[:1]
    elif change == 2:
        s = Q.pop()
        Q.append(tuple(sorted({s[0], (rng.choice(pool),)})))
    return Q


def test_poly_set_equal_matches_interval_oracle_in_r1():
    rng = random.Random(81)
    pool = sorted({F(k, d) for d in range(1, 5) for k in range(-d, 2 * d + 1)})
    verdicts = []
    for _ in range(400):
        P = rand_union_1d(rng, pool)
        Q = retiled_1d(rng, P, pool) if rng.random() < 0.8 \
            else rand_union_1d(rng, pool)
        want = interval_union(P) == interval_union(Q)
        assert poly_set_equal(P, Q) == want, (P, Q)
        assert poly_set_equal(Q, P) == want, (P, Q)
        verdicts.append(want)
    assert 100 < sum(verdicts) < 300


def counting(monkeypatch, name):
    """Record the arguments of every call to polyhedra.<name>."""
    calls = []
    real = getattr(polyhedra, name)
    monkeypatch.setattr(polyhedra, name,
                        lambda *a: calls.append(a) or real(*a))
    return calls


def test_poly_set_equal_accepts_own_simplexes_without_clipping(monkeypatch):
    clips = counting(monkeypatch, "clip_simplex")
    rng = random.Random(82)
    for n in (1, 2, 3):
        P = [rand_simplex(rng, n) for _ in range(4)]
        Q = P[::-1] + [P[2]]
        assert poly_set_equal(P, Q) and poly_set_equal(Q, P)
    assert clips == []


def test_poly_set_equal_refines_only_the_uncovered_side(monkeypatch):
    refined = counting(monkeypatch, "_refined_simplex_cells")
    t = tri((0, 0), (1, 0), (0, 1))
    small = quarter_triangles()
    assert poly_set_equal([t], small)
    assert poly_set_equal(small, [t])
    # each quarter lies in T and is accepted whole; T is cut by the
    # quarters' facet hulls and every cell is found in some quarter
    assert [P for P, _ in refined] == [[simplex(t)], [simplex(t)]]


def edge_det(simp):
    return _tiny_det([[a - b for a, b in zip(v, simp[0])] for v in simp[1:]])


def test_clip_simplex_pieces_tile_both_halves():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(1, 3)
        s = tuple(rand_point(rng, n, 4, 2) for _ in range(n + 1))
        vol = abs(edge_det(s))
        if vol == 0:
            continue
        g = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        if not any(g):
            continue
        kind = rng.randrange(3)
        if kind == 0:  # through an interior point
            w = [rng.randint(1, 5) for _ in s]
            x = [sum(wi * v[j] for wi, v in zip(w, s)) / sum(w)
                 for j in range(n)]
        elif kind == 1:  # through a vertex
            x = rng.choice(s)
        else:  # anywhere, possibly missing the simplex
            x = rand_point(rng, n, 4, 2)
        h = sum(a * b for a, b in zip(g, x))
        total = 0
        for side in (1, -1):
            for piece in clip_simplex(s, g, h, side):
                d = edge_det(piece)
                assert d != 0
                assert all(side * (sum(a * b for a, b in zip(g, v)) - h) >= 0
                           for v in piece)
                total += abs(d)
        assert total == vol


def test_triangulate_examples():
    t = triangulate([seg(0, 2), seg(1, 3)])
    assert t.maximal == (
        ((F(0),), (F(1),)), ((F(1),), (F(2),)), ((F(2),), (F(3),)))
    assert t.is_valid_complex()
    assert poly_set_equal(t.support(), [seg(0, 3)])

    t1 = tri((0, 0), (1, 0), (0, 1))
    t2 = tri((3, 0), (4, 0), (3, 1))
    t = triangulate([t1, t2])
    assert set(t.maximal) == {tuple(sorted(t1)), tuple(sorted(t2))}
    assert t.is_valid_complex()


def test_triangulate_overlapping_squares():
    sq = [tri((0, 0), (1, 0), (1, 1)), tri((0, 0), (0, 1), (1, 1))]
    sq2 = [tuple((a + F(1, 2), b) for a, b in s) for s in sq]
    t = triangulate(sq + sq2)
    assert t.is_valid_complex()
    assert poly_set_equal(t.support(), sq + sq2)
    for cell in t.maximal:
        assert len(cell) == 3


def test_triangulate_adversarial_configs():
    segm = lambda a, b: (tuple(map(F, a)), tuple(map(F, b)))
    cases = [
        [tri((0, 0), (2, 0), (0, 2)), segm((-1, 1), (3, 1))],
        [tri((0, 0), (4, 0), (0, 4)), tri((1, 1), (5, 1), (1, 5))],
        [tri((0, 0), (2, 0), (0, 2)), tri((1, 0), (3, 0), (1, -2))],
        [tri((0, 0), (2, 0), (0, 2)), ((F(1), F(0)),)],
        [tri((0, 0), (3, 0), (0, 3)), segm((1, 1), (F(3, 2), F(1, 2)))],
    ]
    for P in cases:
        t = triangulate(P)
        assert t.is_valid_complex()
        assert poly_set_equal(t.support(), P)


def test_triangulate_glued_tetrahedra():
    t1 = ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
          (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    t2 = ((F(1), F(1), F(1)), (F(1), F(0), F(0)),
          (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    t = triangulate([t1, t2])
    assert t.is_valid_complex()
    assert poly_set_equal(t.support(), [t1, t2])


def test_triangulate_crossing_segments():
    a = (( F(0), F(0)), (F(1), F(1)))
    b = ((F(0), F(1)), (F(1), F(0)))
    t = triangulate([a, b])
    assert t.is_valid_complex()
    assert poly_set_equal(t.support(), [a, b])
    assert (F(1, 2), F(1, 2)) in t.vertices()


def test_regular_simplex_in_examples():
    assert regular_simplex_in([(F(0),), (F(2, 5),)]) == ((F(0),), (F(1, 3),))
    got = regular_simplex_in([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)),
                              (F(1), F(1))])
    assert is_regular(got) and len(got) == 3
    hull = convex_hull([(F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    got = regular_simplex_in(hull.vertices)
    assert is_regular(got)
    from afflat.convexity import Polytope
    poly = Polytope(hull.vertices)
    assert all(poly.contains(v) for v in got)


def test_polyhedron_equivalence_examples():
    P = [seg(0, 1), seg(2, 3)]
    Q = [seg(5, 6), seg(7, 8)]
    m = polyhedron_equivalence(P, Q)
    assert m is not None
    assert poly_set_equal([tuple(m(v) for v in s) for s in P], Q)

    assert polyhedron_equivalence([seg(0, 1)], [seg(0, 2)]) is None
    assert lambda1(*seg(0, 1)) != lambda1(*seg(0, 2))  # lambda oracle agrees

    sq = [tri((0, 0), (1, 0), (1, 1)), tri((0, 0), (0, 1), (1, 1))]
    from afflat.core import UniAffMap
    g = UniAffMap(((1, 1), (0, 1)), (0, 0))
    shear = [tuple(g(v) for v in s) for s in sq]
    m = polyhedron_equivalence(sq, shear)
    assert m is not None
    assert poly_set_equal([tuple(m(v) for v in s) for s in sq], shear)


def test_polyhedron_equivalence_roundtrips():
    rng = random.Random(54)
    for _ in range(12):
        n = rng.choice([1, 2, 3])
        P = [rand_simplex(rng, n) for _ in range(rng.randint(1, 4))]
        g = rand_unimodular(rng, n, tmax=2)
        Q = [tuple(g(v) for v in s) for s in P]
        m = polyhedron_equivalence(P, Q)
        assert m is not None
        assert poly_set_equal([tuple(m(v) for v in s) for s in P], Q)


def test_polyhedron_equivalence_deterministic():
    sq = [tri((0, 0), (1, 0), (1, 1)), tri((0, 0), (0, 1), (1, 1))]
    from afflat.core import UniAffMap
    g = UniAffMap(((1, 1), (0, 1)), (2, -1))
    shear = [tuple(g(v) for v in s) for s in sq]
    m1 = polyhedron_equivalence(sq, shear)
    m2 = polyhedron_equivalence(sq, shear)
    assert m1 == m2


def witness_corpus():
    """24 small R^1/R^2 pairs: P and its image under a random map; every
    fourth image has its last simplex replaced by a random one."""
    rng = random.Random(7)
    cases = []
    for i in range(24):
        n = 1 if i % 4 == 0 else 2
        P = [rand_simplex(rng, n, 4, 1) for _ in range(rng.randint(1, 3))]
        g = rand_unimodular(rng, n, tmax=2)
        image = P[:-1] + [rand_simplex(rng, n, 4, 1)] if i % 4 == 3 else P
        cases.append((P, [tuple(g(v) for v in s) for s in image]))
    return cases


# (matrix, translation) per witness_corpus case, or None; recorded from the
# Fraction-based kernel before the integer-row kernel replaced it
PINNED_WITNESSES = [
    (((1,),), (-2,)), (((1, 0), (-1, 1)), (0, 1)),
    (((-1, -1), (1, 2)), (-1, 1)), None,
    (((1,),), (7,)), (((1, 0), (1, -1)), (-1, 2)),
    (((-1, 1), (1, 0)), (-1, 2)), None,
    (((-1,),), (0,)), (((-1, -2), (0, 1)), (-2, 0)),
    (((0, 1), (-1, 4)), (-2, 0)), None,
    (((1,),), (2,)), (((-6, 1), (1, 0)), (-6, -1)),
    (((3, -2), (1, -1)), (2, -1)), None,
    (((1,),), (0,)), (((0, 1), (-1, -5)), (0, 0)),
    (((1, 0), (1, -1)), (2, 0)), None,
    (((1,),), (0,)), (((-1, 1), (-7, 6)), (-3, -16)),
    (((7, 4), (-2, -1)), (1, -1)), (((1, 3), (-2, -5)), (0, 0)),
]


def test_polyhedron_equivalence_pinned_witnesses():
    for (P, Q), pinned in zip(witness_corpus(), PINNED_WITNESSES):
        g = polyhedron_equivalence(P, Q)
        if pinned is None:
            assert g is None
            continue
        assert (g.matrix, g.translation) == pinned
        A, t = pinned
        assert _tiny_det([list(r) for r in A]) in (1, -1)

        def phi(x):
            return tuple(sum(a * c for a, c in zip(r, x)) + b
                         for r, b in zip(A, t))

        imP = [tuple(phi(v) for v in s) for s in P]
        # vertices of P land in Q, and vertices of Q are covered by phi(P)
        for s in P:
            for v in s:
                assert any(in_hull_by_dets(sq, phi(v)) for sq in Q)
        for sq in Q:
            for w in sq:
                assert any(in_hull_by_dets(si, w) for si in imP)


def test_polyhedron_equivalence_dimension_mismatch():
    with pytest.raises(InputError):
        polyhedron_equivalence([seg(0, 1)], [tri((0, 0), (1, 0), (0, 1))])


def test_polyhedron_normalization():
    with pytest.raises(InputError):
        polyhedron([])
    with pytest.raises(InputError):
        polyhedron([((F(0),), (F(0),))])
