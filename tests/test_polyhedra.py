import math
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest

from afflat import cones, polyhedra, rationals
from afflat.affine import AffineSpace
from afflat.cones import cone, desingularize, fan_rays, is_regular_cone
from afflat.core import UniAffMap, is_regular, lift, simplex, simplex_lifts
from afflat.errors import InputError
from afflat.polyhedra import (convex_hull, poly_set_equal, polyhedron,
                              polyhedron_equivalence, regular_simplex_in,
                              triangulate)
from afflat.segments import hj_chain, lambda1

from helpers import (_tiny_det, apply_affine, box_parallelepiped_points,
                     clip_simplex, cone_contains, counting, fraction_rank,
                     freudenthal_cube, grid_points, in_hull_by_dets,
                     in_union_by_dets, interval_union, parallelepiped_points,
                     rand_point, rand_unimodular, stellar_desingularize)

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


def unit_point(rng, n):
    return tuple(F(rng.randint(0, 2), 2) for _ in range(n))


def unit_simplex(rng, n):
    """A random simplex of random dimension with vertices in {0, 1/2, 1}^n."""
    while True:
        pts = [unit_point(rng, n) for _ in range(rng.randint(1, n + 1))]
        try:
            return simplex(pts)
        except InputError:
            continue


def retiled(rng, P):
    """Simplexes with the union of P: P with one simplex cut at the
    midpoint of one of its edges, a face of a simplex and a duplicate
    added, shuffled."""
    Q = list(P)
    k = rng.randrange(len(Q))
    s = Q[k]
    if len(s) > 1:
        i, j = rng.sample(range(len(s)), 2)
        m = tuple((a + b) / 2 for a, b in zip(s[i], s[j]))
        Q[k:k + 1] = [s[:i] + (m,) + s[i + 1:], s[:j] + (m,) + s[j + 1:]]
    s = rng.choice(P)
    Q.append(tuple(rng.sample(s, rng.randint(1, len(s)))))
    Q.append(rng.choice(Q))
    rng.shuffle(Q)
    return Q


def mutated(rng, Q, n):
    """Q with one simplex dropped, one moved or one added, which may or may
    not change the union."""
    Q = list(Q)
    change = rng.randrange(3)
    if change == 0 and len(Q) > 1:
        Q.pop(rng.randrange(len(Q)))
    elif change == 1:
        k = rng.randrange(len(Q))
        moved = list(Q[k])
        moved[rng.randrange(len(moved))] = unit_point(rng, n)
        try:
            Q[k] = simplex(moved)
        except InputError:
            Q.append(unit_simplex(rng, n))
    else:
        Q.append(unit_simplex(rng, n))
    return Q


def separating_grid_point(P, Q, max_den=4):
    """A rational point of denominator <= max_den in the bounding box of P
    and Q that lies in one union only, or None."""
    for x in grid_points([v for s in P + Q for v in s], max_den):
        if in_union_by_dets(P, x) != in_union_by_dets(Q, x):
            return x
    return None


def test_poly_set_equal_never_true_on_a_separating_grid_point():
    # R^2 and R^3, mixed dimensions: a retiling answers True; after a
    # mutation, a grid point of denominator <= 4 that lies in one union
    # only (Cramer oracle, not the package's testers) forbids True; every
    # answer is symmetric in P and Q
    rng = random.Random(83)
    kept = separated = 0
    for n, pairs in ((2, 60), (3, 16)):
        for _ in range(pairs):
            P = [unit_simplex(rng, n) for _ in range(rng.randint(1, 3))]
            Q = retiled(rng, P)
            changed = rng.random() < 0.7
            if changed:
                Q = mutated(rng, Q, n)
            got = poly_set_equal(P, Q)
            assert poly_set_equal(Q, P) == got, (P, Q)
            if not changed:
                assert got, (P, Q)
                continue
            x = separating_grid_point(P, Q)
            assert not (got and x is not None), (P, Q, x)
            kept += got
            separated += x is not None
    assert kept >= 10 and separated >= 25, (kept, separated)


def test_poly_set_equal_accepts_own_simplexes_without_clipping(monkeypatch):
    clips = counting(monkeypatch, "_clip")
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
    assert [S for S, _ in refined] == [[simplex_lifts(t)[1]]] * 2


def test_poly_set_equal_rejects_an_uncovered_vertex_unrefined(monkeypatch):
    # a vertex of P outside every simplex of Q (Cramer oracle) answers
    # False before any cell is refined, since P is tested against Q first
    def refuse(*a):
        raise AssertionError("a simplex was refined")

    monkeypatch.setattr(polyhedra, "_refined_simplex_cells", refuse)
    t = tri((0, 0), (2, 0), (0, 2))
    spike = ((F(0), F(0)), (F(-1), F(0)))
    assert not poly_set_equal([t], [t, spike])
    assert not poly_set_equal([t, spike], [t])
    rng = random.Random(84)
    found = 0
    for n in (2, 3) * 20:
        P = [unit_simplex(rng, n) for _ in range(rng.randint(1, 3))]
        Q = [unit_simplex(rng, n) for _ in range(rng.randint(1, 3))]
        if any(not in_union_by_dets(Q, v) for s in P for v in s):
            found += 1
            assert not poly_set_equal(P, Q)
    assert found >= 30


def test_polyhedron_equivalence_builds_each_cover_test_once(monkeypatch):
    # the unit 3-cube against itself less one simplex tries and rejects
    # every base image, yet builds each simplex's tester and each side's
    # facet-hull family at most once per decision, not once per candidate
    testers = counting(monkeypatch, "simplex_tester")
    families = counting(monkeypatch, "_face_hulls")
    P = freudenthal_cube(3)
    assert polyhedron_equivalence(P, P[:-1]) is None
    assert len(testers) <= len(P) + len(P[:-1]) == 11
    assert len(families) <= 2


def test_polyhedron_equivalence_builds_no_affine_hull_and_no_fraction(
        monkeypatch):
    # the cover tests refine along flats kept as integer rows over lifts,
    # so the unit 3-cube against itself less one simplex, which refines 24
    # times, constructs no AffineSpace anywhere; its vertices are Fractions
    # already, so normalizing them builds none either, and the whole
    # decision runs on integers
    P = freudenthal_cube(3)
    hulls = counting(monkeypatch, "__init__", AffineSpace)
    fractions = counting(monkeypatch, "__new__", Fraction)
    assert polyhedron_equivalence(P, P[:-1]) is None
    assert hulls == [] and fractions == []


def test_polyhedron_equivalence_lifts_each_vertex_occurrence_once(
        monkeypatch):
    # the unit 3-cube against its image: each simplex's normalization
    # lifts its vertices, and the decision reads those lifts, so there are
    # at most 2 * 6 * 4 = 48 lift calls in all (the table lifted each
    # distinct vertex again, 64 calls).  Against itself less one simplex,
    # every base image is tried and the cover tests refine 24 times; the
    # refiner carries the lifts through every cut, so only the hulls it
    # takes cuts from lift points.  A point already normalized is lifted by
    # lift_point, which rationals.lift calls: it is counted where any other
    # module calls it
    calls = []
    for name, real in (("lift", lift), ("lift_point", rationals.lift_point)):
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("afflat.")
                    and getattr(mod, name, None) is real
                    and (name, mod) != ("lift_point", rationals)):
                monkeypatch.setattr(mod, name, lambda x, real=real:
                                    calls.append(x) or real(x))
    P = freudenthal_cube(3)
    g = UniAffMap(((1, 1, 0), (0, 1, 1), (0, 0, 1)), (1, 0, -1))
    image = [tuple(g(v) for v in s) for s in P]
    assert polyhedron_equivalence(P, image) is not None
    assert 0 < len(calls) <= 2 * 6 * 4 == 48
    calls.clear()
    assert polyhedron_equivalence(P, P[:-1]) is None
    assert 0 < len(calls) <= 1000


def edge_det(simp, coords=None):
    """det of the edge vectors of simp from its first vertex, projected
    onto the given coordinates (all of them by default)."""
    if coords is None:
        coords = range(len(simp[0]))
    return _tiny_det([[v[j] - simp[0][j] for j in coords] for v in simp[1:]])


def test_clip_simplex_pieces_tile_both_halves():
    # e-simplexes in R^n, flat ones (e < n) included.  A simplex's volume
    # is |det| of its edge vectors projected onto e coordinates where its
    # flat projects injectively; that scales all volumes within the flat
    # alike, so the pieces of both closed halves sum to the simplex's.  A
    # hyperplane that contains the simplex leaves it whole on each side.
    rng = random.Random(61)
    shapes = [(n, n) for n in (1, 2, 3)] + [(1, 2), (1, 3), (2, 3)]
    contained = 0
    for _ in range(600):
        e, n = rng.choice(shapes)
        s = tuple(rand_point(rng, n, 4, 2) for _ in range(e + 1))
        coords = next((c for c in combinations(range(n), e)
                       if edge_det(s, c)), None)
        if coords is None:
            continue
        vol = abs(edge_det(s, coords))
        kind = rng.randrange(4)
        if kind == 3:  # through the whole simplex, when it is flat
            eqs = AffineSpace(s).equations
            w = [rng.randint(-2, 2) for _ in eqs]
            g = tuple(sum(wi * a[j] for wi, (a, _) in zip(w, eqs))
                      for j in range(n))
            h = sum(wi * c for wi, (_, c) in zip(w, eqs))
        else:
            g = tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(n))
            if kind == 0:  # through an interior point
                w = [rng.randint(1, 5) for _ in s]
                x = [sum(wi * v[j] for wi, v in zip(w, s)) / sum(w)
                     for j in range(n)]
            elif kind == 1:  # through a vertex
                x = rng.choice(s)
            else:  # anywhere, possibly missing the simplex
                x = rand_point(rng, n, 4, 2)
            h = sum(a * b for a, b in zip(g, x))
        if not any(g):
            continue
        inside = all(sum(a * b for a, b in zip(g, v)) == h for v in s)
        contained += inside
        total = 0
        for side in (1, -1):
            pieces = clip_simplex(s, g, h, side)
            if inside:
                assert [sorted(p) for p in pieces] == [sorted(s)], (s, g, h)
            for piece in pieces:
                d = edge_det(piece, coords)
                assert d != 0
                assert all(side * (sum(a * b for a, b in zip(g, v)) - h) >= 0
                           for v in piece)
                total += abs(d)
        assert total == (2 * vol if inside else vol), (s, g, h)
    assert contained >= 20, contained


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


def test_triangulate_computes_the_cuts_of_each_span_once(monkeypatch):
    # the six simplexes of the unit 3-cube share one span, so one cut set
    # serves them all; no cut splits them, so the cells are the simplexes
    cuts = counting(monkeypatch, "_cuts_for")
    P = freudenthal_cube(3)
    t = triangulate(P)
    assert len(cuts) == 1
    assert list(t.maximal) == sorted(tuple(sorted(s)) for s in P)


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


def assert_carries_by_oracles(P, Q, pinned):
    """The map (matrix, translation) is unimodular, sends every vertex of P
    into Q, and its image of P covers every vertex of Q, by Cramer tests."""
    A, t = pinned
    assert _tiny_det([list(r) for r in A]) in (1, -1)

    def phi(x):
        return tuple(sum(a * c for a, c in zip(r, x)) + b
                     for r, b in zip(A, t))

    imP = [tuple(phi(v) for v in s) for s in P]
    for s in P:
        for v in s:
            assert any(in_hull_by_dets(sq, phi(v)) for sq in Q)
    for sq in Q:
        for w in sq:
            assert any(in_hull_by_dets(si, w) for si in imP)


def witness_corpus_r3():
    """12 pairs in R^3 with full-dimensional hulls: P and its image under a
    random map; every fourth image has its last simplex replaced by a
    random one."""
    rng = random.Random(31)
    cases = []
    for i in range(12):
        while True:
            P = [rand_simplex(rng, 3, 4, 1) for _ in range(rng.randint(1, 3))]
            pts = [v for s in P for v in s]
            if fraction_rank([[x - y for x, y in zip(p, pts[0])]
                              for p in pts[1:]]) == 3:
                break
        g = rand_unimodular(rng, 3, tmax=2)
        image = P[:-1] + [rand_simplex(rng, 3, 4, 1)] if i % 4 == 3 else P
        cases.append((P, [tuple(g(v) for v in s) for s in image]))
    return cases


# (matrix, translation) per witness_corpus_r3 case, or None; recorded while
# the full-dimensional decision still searched the smallest regular frame of
# conv(P), before it built its maps on the standard simplex
PINNED_WITNESSES_R3 = [
    (((0, 1, 1), (1, 0, -1), (0, 0, 1)), (-1, -1, 1)),
    (((0, 1, 0), (-1, -2, 0), (0, -2, 1)), (-2, -1, -2)),
    (((0, 1, 0), (-1, 0, 0), (0, 0, 1)), (0, -1, 1)),
    None,
    (((1, -1, 2), (0, 1, 0), (0, 1, 1)), (2, 0, -2)),
    (((1, 1, -1), (2, 1, 1), (0, 0, 1)), (-1, 0, -2)),
    (((-1, 2, -2), (0, 1, 0), (0, -1, 1)), (-2, -2, 1)),
    None,
    (((0, 1, 0), (-1, 0, 0), (1, 0, 1)), (2, 0, 2)),
    (((1, 0, 0), (-8, 3, 1), (-2, 2, 1)), (1, -1, 1)),
    (((1, 1, 0), (0, 1, 0), (0, -1, 1)), (0, 0, 2)),
    None,
]


def test_polyhedron_equivalence_pinned_witnesses_r3():
    for (P, Q), pinned in zip(witness_corpus_r3(), PINNED_WITNESSES_R3):
        g = polyhedron_equivalence(P, Q)
        if pinned is None:
            assert g is None
            continue
        assert (g.matrix, g.translation) == pinned
        assert_carries_by_oracles(P, Q, pinned)


def flat_polyhedron(rng, n, h):
    """One or two simplexes in R^n whose convex hull has dimension h: built
    in R^h around a full simplex (denominators <= 2, span 1), padded with
    zero coordinates and moved by a random unimodular map."""
    while True:
        pts = [rand_point(rng, h, 2, 1) for _ in range(h + 1)]
        if fraction_rank([[x - y for x, y in zip(p, pts[0])]
                          for p in pts[1:]]) == h:
            break
    simps = [tuple(pts)]
    if h and rng.random() < 0.5:
        simps.append(rand_simplex(rng, h, 2, 1))
    g = rand_unimodular(rng, n, tmax=2)
    pad = (F(0),) * (n - h)
    return [tuple(g(v + pad) for v in s) for s in simps]


def hull_pairs(seed):
    """(n, h, P, Q) with Q the image of P under a random unimodular map,
    for every hull dimension h <= n in R^1-R^3."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3):
        for h in range(n + 1):
            for _ in range(3):
                P = flat_polyhedron(rng, n, h)
                g = rand_unimodular(rng, n, tmax=2)
                out.append((n, h, P, [tuple(g(v) for v in s) for s in P]))
    return out


def test_polyhedron_equivalence_by_hull_dimension(monkeypatch):
    # full-dimensional pairs never build an AffineSpace; lower-dimensional
    # ones go through the affine spans; either way the map carries P onto
    # Q, and a pair whose hulls differ in dimension is answered None
    spans = []

    def counted(points):
        spans.append(points)
        return AffineSpace(points)

    monkeypatch.setattr(polyhedra, "AffineSpace", counted)
    pairs = hull_pairs(61)
    for n, h, P, Q in pairs:
        before = len(spans)
        m = polyhedron_equivalence(P, Q)
        assert m is not None
        assert poly_set_equal([tuple(m(v) for v in s) for s in P], Q)
        assert (len(spans) == before) == (h == n)
    rng = random.Random(62)
    for n, h, P, _ in pairs:
        other = rng.choice([k for k in range(n + 1) if k != h])
        Q = flat_polyhedron(rng, n, other)
        assert polyhedron_equivalence(P, Q) is None
        assert polyhedron_equivalence(Q, P) is None


# (matrix, translation) per pair of the flat-hull corpus below (seed 63, in
# its order) and per point-hull pair (h = 0) of hull_pairs(61); recorded
# while the maps were still built on the witness simplex of aff(P) through
# barycentric coordinates.  Off aff(P) the map is pinned by the extension
# of that simplex, which a Cramer oracle alone does not see.
PINNED_FLAT_MAPS = [
    (((6, 5), (1, 1)), (-10, -2)),
    (((3, 1, 2), (0, 1, -2), (-4, -4, 3)), (0, 0, 0)),
    (((3, -2, -2), (-2, 1, 2), (2, 0, -3)), (-4, 4, -2)),
    (((1, 0, 12, 9), (-2, -1, 7, 6), (0, 0, -4, -3), (-1, -1, 6, 5)),
     (2, -3, 0, -1)),
    (((0, -3, -2, 0), (-1, -8, -4, -4), (1, 5, 3, 2), (0, -8, -5, -1)),
     (0, 2, -3, -1)),
    (((1, -2, 0, 1), (0, 1, 0, 0), (0, 3, 1, -1), (0, 2, 0, 1)),
     (1, 0, -3, -1)),
    (((87, -125), (16, -23)), (45, 7)),
    (((-1, 0, -2), (1, -1, 1), (-1, 0, -1)), (0, 4, 0)),
    (((0, 1, 0), (-1, 0, -1), (0, 0, -1)), (-1, 2, -1)),
    (((2, -3, 5, 0), (-1, 2, -3, -1), (2, -2, 3, -3), (0, 0, -2, -1)),
     (0, 0, 0, 0)),
    (((1, 2, 4, 0), (1, -1, -1, -1), (2, 2, 5, -2), (1, -1, -1, 0)),
     (4, 1, 8, -1)),
    (((0, -7, 24, 8), (-1, 2, -6, -2), (-1, 2, -5, -2), (-3, -2, 6, 3)),
     (-22, 5, 4, -6)),
    (((4, -1), (-3, 1)), (8, -5)),
    (((-1, 0, -1), (-2, 1, 0), (4, -2, 1)), (0, 3, -6)),
    (((-5, -2, -1), (-20, -5, -3), (136, 42, 23)), (-14, -46, 352)),
    (((8, 1, -6, -8), (5, -4, -10, -2), (-4, 1, 5, 3), (0, 2, 2, -1)),
     (8, 2, -3, 2)),
    (((5, -1, -5, -5), (-12, -8, 7, 11), (-3, 6, 5, 3), (1, 2, 1, 0)),
     (6, -12, -5, 1)),
    (((0, 1, 0, 2), (-1, -2, 0, -4), (0, 0, 1, -2), (0, -1, -1, -1)),
     (3, -5, -4, 0)),
    (((1, -1), (0, 1)), (1, 2)),
    (((8, -1, 5), (-9, 1, -6), (14, -2, 9)), (-1, -3, -2)),
    (((-1, 0, -2), (0, 1, -1), (0, 0, 1)), (0, 0, 1)),
    (((0, 0, 0, -1), (5, 1, 11, 3), (-1, 0, -1, -4), (-5, -1, -10, 0)),
     (0, -1, 0, 1)),
    (((2, 1, -2, 1), (3, -1, -1, 1), (-2, -1, 1, -1), (-4, 2, 2, -1)),
     (1, 0, -1, 0)),
    (((1, 1, -1, 0), (0, 1, -1, -1), (0, 0, -2, -3), (2, 2, -1, 2)),
     (-3, -2, -5, -4)),
]

PINNED_POINT_MAPS = [
    (((1,),), (0,)),
    (((1,),), (-4,)),
    (((-1,),), (-1,)),
    (((-1, 0), (-2, -1)), (-3, -6)),
    (((1, -4), (0, 1)), (3, -1)),
    (((-1, -1), (0, 1)), (1, -1)),
    (((-2, -1, -7), (0, 0, -1), (-1, -1, -5)), (0, 0, 0)),
    (((-2, -3, 0), (1, 2, 0), (0, 1, 1)), (0, 0, 0)),
    (((5, -5, -16), (1, -1, -3), (0, -1, -6)), (-16, -3, -7)),
]


def test_polyhedron_equivalence_flat_hulls_by_oracles():
    # hulls of dimension 1 <= e < n: the map is pinned off aff(P) by the
    # extension of aff(P)'s witness simplex; check each one by the Cramer
    # oracles, not by the set equality under test, and by its pinned map
    rng = random.Random(63)
    pinned = iter(PINNED_FLAT_MAPS)
    for _ in range(4):
        for n in (2, 3, 4):
            for h in range(1, n):
                P = flat_polyhedron(rng, n, h)
                g = rand_unimodular(rng, n, tmax=2)
                Q = [tuple(g(v) for v in s) for s in P]
                m = polyhedron_equivalence(P, Q)
                assert m is not None
                assert_carries_by_oracles(P, Q, (m.matrix, m.translation))
                assert (m.matrix, m.translation) == next(pinned)
    assert next(pinned, None) is None


def test_polyhedron_equivalence_pinned_point_maps():
    pairs = [(P, Q) for _, h, P, Q in hull_pairs(61) if h == 0]
    assert len(pairs) == len(PINNED_POINT_MAPS) == 9
    for (P, Q), want in zip(pairs, PINNED_POINT_MAPS):
        m = polyhedron_equivalence(P, Q)
        assert (m.matrix, m.translation) == want
        assert_carries_by_oracles(P, Q, want)


def normalized_volume_by_dets(P):
    """n! times the summed volume of P's simplexes, by cofactor expansion
    of their edge determinants."""
    return sum(abs(_tiny_det([[a - b for a, b in zip(v, s[0])]
                              for v in s[1:]])) for s in P)


def test_polyhedron_equivalence_freudenthal_cube_hard_negative(monkeypatch):
    # the unit 3-cube against itself less one simplex: the hulls agree, so
    # the candidate loop tries and rejects every base image (1392 candidate
    # maps, a count that does not depend on the machine) before it answers
    # None; the simplexes do not overlap, so the volumes 6/6 and 5/6
    # certify the None
    P = freudenthal_cube(3)
    assert len(P) == 6 and len(set(P)) == 6
    assert normalized_volume_by_dets(P) == 6
    assert normalized_volume_by_dets(P[:-1]) == 5
    maps = counting(monkeypatch, "UniAffMap")
    assert polyhedron_equivalence(P, P[:-1]) is None
    assert len(maps) == 1392
    g = UniAffMap(((1, 1, 0), (0, 1, 1), (0, 0, 1)), (1, 0, -1))
    Q = [tuple(g(v) for v in s) for s in P]
    m = polyhedron_equivalence(P, Q)
    assert m is not None
    assert_carries_by_oracles(P, Q, (m.matrix, m.translation))


def assert_carries_by_grid(P, Q, m, max_den=2):
    """The map m = (matrix, translation) sends every vertex of P, and every
    point of denominator <= max_den of P's union, into Q's union, by the
    Cramer oracle."""
    pts = [v for s in P for v in s]
    for x in pts + [x for x in grid_points(pts, max_den)
                    if in_union_by_dets(P, x)]:
        assert in_union_by_dets(Q, apply_affine(*m, x)), (P, Q, m, x)


def simplexwise_images(seed, count):
    """count pairs (P, Q) in R^1-R^3: Q is P's simplexes under a random
    unimodular map, each with its vertices shuffled, the list shuffled and
    one simplex repeated."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        n = 1 + i % 3
        P = [rand_simplex(rng, n, 2, 1) for _ in range(rng.randint(1, 3))]
        g = rand_unimodular(rng, n, tmax=2)
        Q = [tuple(rng.sample([g(v) for v in s], len(s))) for s in P]
        Q.append(rng.choice(Q))
        rng.shuffle(Q)
        pairs.append((P, Q))
    return pairs


def test_polyhedron_equivalence_accepts_simplexwise_images_untested(
        monkeypatch):
    # a candidate that carries P's simplexes onto Q's carries P onto Q, so
    # it is accepted before any cover test: no tester is built and nothing
    # is refined (the cover tests ran on every such pair before)
    testers = counting(monkeypatch, "simplex_tester")
    refined = counting(monkeypatch, "_refined_simplex_cells")
    for P, Q in simplexwise_images(71, 24):
        m = polyhedron_equivalence(P, Q)
        assert m is not None, (P, Q)
        assert testers == [] and refined == [], (P, Q)
        assert_carries_by_grid(P, Q, (m.matrix, m.translation))


SPLIT_SQUARE = [tri((0, 0), (1, 0), (1, 1)), tri((0, 0), (0, 1), (1, 1))]
SPLIT_SQUARE_ANTI = [tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))]


def test_polyhedron_equivalence_falls_back_to_the_cover_tests(monkeypatch):
    # the unit square split along (0,0)-(1,1) against images of the square
    # split along (1,0)-(0,1): each of the square's 8 symmetries passes the
    # hull check and carries the union, and 4 of them carry the simplexes,
    # so the first one tried is accepted; the cover tests, and only they,
    # build testers, exactly when that map does not carry the simplexes
    testers = counting(monkeypatch, "simplex_tester")
    rng = random.Random(72)
    maps = [UniAffMap(((1, 0), (0, 1)), (0, 0))]
    maps += [rand_unimodular(rng, 2, tmax=2) for _ in range(11)]
    fallbacks = 0
    for g in maps:
        Q = [tuple(g(v) for v in s) for s in SPLIT_SQUARE_ANTI]
        testers.clear()
        m = polyhedron_equivalence(SPLIT_SQUARE, Q)
        assert m is not None
        assert_carries_by_grid(SPLIT_SQUARE, Q, (m.matrix, m.translation), 4)
        image = {frozenset(apply_affine(m.matrix, m.translation, v)
                           for v in s) for s in SPLIT_SQUARE}
        simplexwise = image == set(map(frozenset, Q))
        assert bool(testers) != simplexwise, g
        fallbacks += not simplexwise
    # the identity is tried first against the square itself
    assert 3 <= fallbacks < len(maps)
    # the cube less one simplex, or with one simplex repeated in its place,
    # shares the cube's hull, and no candidate passes the cover tests
    P = freudenthal_cube(3)
    for Q in (P[:-1], P[:-1] + P[:1]):
        testers.clear()
        assert polyhedron_equivalence(P, Q) is None
        assert polyhedron_equivalence(Q, P) is None
        assert testers


def test_polyhedron_equivalence_threads_get_the_serial_maps():
    # four threads decide the same pairs at once: simplexwise images,
    # fallbacks through the cover tests and a hard negative; the testers
    # and cut caches a decision builds on first need are its own, so every
    # thread gets the serial run's maps
    pairs = simplexwise_images(73, 9) + [
        (SPLIT_SQUARE, SPLIT_SQUARE_ANTI), (SPLIT_SQUARE, SPLIT_SQUARE),
        (freudenthal_cube(3), freudenthal_cube(3)[:-1])]

    def decide():
        return [None if m is None else (m.matrix, m.translation)
                for m in (polyhedron_equivalence(P, Q) for P, Q in pairs)]

    serial = decide()
    assert serial[-1] is None and None not in serial[:-1]
    got = [None] * 4

    def worker(i):
        got[i] = decide()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * 4


def test_polyhedron_equivalence_non_integral_candidate_maps():
    # a lattice quadrilateral whose hull-vertex base (-10, 4), (-3, -1),
    # (-2, 0) has lifts of determinant 12: before the valid map is reached,
    # a candidate induces a non-integral map whose entries, rounded down or
    # toward zero, give a valid map of P onto Q that does not carry the
    # base onto that candidate; the candidate must be dropped as
    # non-integral, not answered with that map
    P = [((0, -3), (-2, 0), (-10, 4)), ((0, -3), (-10, 4), (-3, -1))]
    Q = [((1, -1), (-4, 3), (0, 3)), ((1, -1), (0, 3), (1, 0))]
    want = (((-2, -3), (1, 2)), (-8, 5))
    m = polyhedron_equivalence(P, Q)
    assert (m.matrix, m.translation) == want
    assert_carries_by_oracles(P, Q, want)


def test_polyhedron_equivalence_dimension_mismatch():
    with pytest.raises(InputError):
        polyhedron_equivalence([seg(0, 1)], [tri((0, 0), (1, 0), (0, 1))])


def test_polyhedron_normalization():
    with pytest.raises(InputError):
        polyhedron([])
    with pytest.raises(InputError):
        polyhedron([((F(0),), (F(0),))])
