import random
from fractions import Fraction
from itertools import combinations

import pytest

from afflat import convexity
from afflat.complexes import _vertex_enumeration
from afflat.convexity import (Polytope, _barycentric_solver, _equations,
                              _flat, _meet, affine_frame, hull_vertices,
                              lift_frame, simplex_tester)
from afflat.core import lift
from afflat.errors import InputError
from afflat.rationals import canon_primitive, primitive

from helpers import (_simplex_has, counting, fraction_rank, hull_coords,
                     in_span_by_minors, rand_point, rational_nullspace,
                     rational_solve)

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
        test = simplex_tester([lift(v) for v in verts])
        for x in _queries(rng, verts):
            expect = _simplex_has(verts, x)
            q = lift(x)
            assert test(q) == expect, (verts, x)
            # any positive multiple of the lift is the same point
            assert test(tuple(3 * c for c in q)) == expect
            inside += expect
            total += 1
    assert 0 < inside < total


def test_barycentric_solver_against_span_oracle():
    off = 0
    for rng, verts in _simplexes(92):
        bary = _barycentric_solver(verts)
        for x in _queries(rng, verts):
            lam = bary(x)
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


# --- hull algebra against the Fraction Gauss-Jordan oracle -------------------

def _oracle_equations(pts):
    """Canonical equations of aff(pts): the oracle's nullspace of all the
    differences to the first point, each row made primitive."""
    n = len(pts[0])
    diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
    eqs = []
    for v in rational_nullspace(diffs, n):
        a = canon_primitive(v)
        eqs.append((a, sum(x * y for x, y in zip(a, pts[0]))))
    return sorted(eqs)


def _flat_points(rng, n):
    """Random points spanning a flat of random dimension in R^n, with
    repeated and dependent points among them."""
    base = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
    pts = list(base)
    for _ in range(rng.randint(0, 3)):
        pts.append(_combination(rng, base, -3) if len(base) > 1 else base[0])
    return pts


def _flats(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        yield rng, n, _flat_points(rng, n)


def _oracle_flat(pts):
    """The oracle's canonical equations (a, c) of aff(pts) as canonical
    primitive rows (a, -c) over lifts, sorted."""
    return tuple(sorted(canon_primitive(a + (-c,))
                        for a, c in _oracle_equations(pts)))


def test_hull_key_is_canonical():
    for rng, n, pts in _flats(94, 300):
        flat = _flat([lift(p) for p in pts])
        assert flat == _oracle_flat(pts)
        assert _equations(flat) == _oracle_equations(pts)
        dim = len(affine_frame(pts)) - 1
        diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        assert dim == fraction_rank(diffs or [(0,) * n])
        assert len(flat) == n - dim
        # the same flat from shuffled points, plus points of the flat
        more = list(pts) + [_combination(rng, pts, -3) for _ in range(2)]
        rng.shuffle(more)
        assert _flat([lift(p) for p in more]) == flat


def test_hull_intersect_against_oracle():
    empty = 0
    for rng, n, pts in _flats(95, 300):
        a = _flat([lift(p) for p in pts])
        # another random flat, and a translate of a: parallel, often disjoint
        shift = rand_point(rng, n, 4, 2)
        others = [_flat_points(rng, n),
                  [tuple(s + t for s, t in zip(p, shift)) for p in pts]]
        for other in others:
            eqs = _oracle_equations(pts) + _oracle_equations(other)
            got = _meet(a, _flat([lift(p) for p in other]), n)
            if not eqs:
                assert got == ()
                continue
            x = rational_solve([e[0] for e in eqs], [e[1] for e in eqs])
            if x is None:
                assert got is None
                empty += 1
                continue
            null = rational_nullspace([e[0] for e in eqs], n)
            flat = [x] + [tuple(s + t for s, t in zip(x, v)) for v in null]
            assert got is not None
            assert len(got) == n - len(null)
            assert got == _oracle_flat(flat)
    assert empty > 0


def _hull_frame(pts):
    """(anchor, basis) of Polytope(pts)'s hull coordinates: its frame
    points v_0, ..., v_e give v_0 and the v_i - v_0."""
    frame = affine_frame(sorted(set(pts)))
    return frame[0], [tuple(a - b for a, b in zip(v, frame[0]))
                      for v in frame[1:]]


def _oracle_ambient_facets(poly, pts):
    """One Fraction solve of the Gram system per facet."""
    anchor, basis = _hull_frame(pts)
    gram = [[sum(x * y for x, y in zip(b1, b2)) for b2 in basis]
            for b1 in basis]
    out = []
    for (g, h) in poly.facets:
        a = rational_solve(gram, g)
        amb = tuple(sum(a[i] * b[j] for i, b in enumerate(basis))
                    for j in range(len(anchor)))
        row = primitive(amb)
        factor = next(F(x) / y for x, y in zip(row, amb) if y)
        off = h + sum(x * y for x, y in zip(amb, anchor))
        out.append((row, off * factor))
    return sorted(out)


def test_ambient_facets_against_gram_oracle():
    for _, _, pts in _flats(96, 200):
        poly = Polytope(pts)
        facets = poly.ambient_facets()
        assert facets == _oracle_ambient_facets(poly, pts)
        # every point satisfies every facet, and each facet is tight somewhere
        for a, c in facets:
            vals = [sum(x * y for x, y in zip(a, p)) for p in pts]
            assert max(vals) == c


def _greedy_frame(vectors):
    """Indices of the vectors kept by the greedy scan: each vector whose
    Fraction rank with the kept ones exceeds their number."""
    kept = []
    for i, v in enumerate(vectors):
        if fraction_rank([vectors[j] for j in kept] + [v]) > len(kept):
            kept.append(i)
    return kept


def _rand_lifts(rng, m):
    """1-8 integer vectors of length m with many zero entries; some repeat
    an earlier one and some are integer combinations of two earlier ones."""
    out = []
    for _ in range(rng.randint(1, 8)):
        r = rng.random()
        if out and r < 0.2:
            out.append(rng.choice(out))
        elif len(out) >= 2 and r < 0.45:
            a, b = rng.sample(out, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            out.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            out.append(tuple(rng.choice((0, 0, rng.randint(-3, 3)))
                             for _ in range(m)))
    return out


def test_lift_frame_and_affine_frame_against_greedy_oracle():
    # lift_frame reads the frame off one elimination; the oracle keeps a
    # vector when the Fraction rank grows, one vector at a time
    rng = random.Random(2501)
    short = 0
    for _ in range(400):
        m = rng.randint(1, 5)
        vecs = _rand_lifts(rng, m)
        expect = _greedy_frame(vecs)
        assert lift_frame(vecs) == expect, vecs
        short += len(expect) < min(len(vecs), m)
        # the same vectors as points over a denominator, some repeated
        pts = []
        for v in vecs:
            k = rng.randint(1, 3)
            pts.append(tuple(F(x, k) for x in v))
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
        assert affine_frame(pts) == \
            [pts[i] for i in _greedy_frame([lift(p) for p in pts])], pts
    assert short >= 100, short


def test_vertex_enumeration_against_brute_force():
    rng = random.Random(97)
    nonempty = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        # a box keeps the region bounded; random cuts give other vertices
        cons = []
        for j in range(d):
            e = tuple(F(int(i == j)) for i in range(d))
            for sign in (1, -1):
                cons.append((tuple(sign * t for t in e),
                             F(rng.randint(1, 6), rng.randint(1, 3))))
        for _ in range(rng.randint(0, 3)):
            cons.append((tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(d)),
                         F(rng.randint(-2, 4), rng.randint(1, 3))))
        expect = set()
        for sub in combinations(cons, d):
            rows = [g for g, _ in sub]
            if fraction_rank(rows) != d:
                continue
            mu = rational_solve(rows, [-h for _, h in sub])
            if all(sum(x * y for x, y in zip(g, mu)) + h >= 0
                   for g, h in cons):
                expect.add(mu)
        got = _vertex_enumeration(cons, d)
        assert got == sorted(expect)
        nonempty += bool(got)
    assert nonempty > 0


def test_polytope_contains_rejects_wrong_dimension():
    tri = Polytope([(0, 0), (1, 0), (0, 1)])
    assert tri.contains((0, 0))
    for x in ((0,), (0, 0, 9)):
        with pytest.raises(InputError):
            tri.contains(x)
    # points of mixed dimension are rejected, the short one first or last
    for pts in ([(0,), (0, 0), (1, 0)], [(0, 0), (1, 0), (0, 0, 1)]):
        with pytest.raises(InputError):
            Polytope(pts)


# --- Polytope in R^4 and on flats, against brute-force oracles --------------

def _affine_dim(pts):
    return fraction_rank([[a - b for a, b in zip(p, pts[0])]
                          for p in pts[1:]] or [[0] * len(pts[0])])


def _oracle_sets(seed):
    """General point sets in R^4, point sets spanning a line, a plane or a
    3-flat of R^3 and R^4, with points repeated and off the frame, point
    sets in R^1 with interior and repeated points out of order, point sets
    in R^2 with points inside edges, vertical edges and repeated points,
    and grids on planes of R^3 on which x1 is constant or x2 a multiple of
    x1; each with probe points of its flat (inside and outside the hull)
    and off it."""
    rng = random.Random(seed)
    for _ in range(8):
        pts = [rand_point(rng, 4, 3, 2) for _ in range(rng.randint(5, 7))]
        yield pts, [_combination(rng, pts[:5], -2) for _ in range(3)]
    for n, k in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        for _ in range(8):
            base = rand_point(rng, n, 3, 2)
            dirs = _independent(rng, n, k + 1)
            dirs = [tuple(a - b for a, b in zip(d, dirs[0])) for d in dirs[1:]]
            pts = []
            for _ in range(rng.randint(k + 1, k + 5)):
                t = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in dirs]
                pts.append(tuple(b + sum(ti * d[j] for ti, d in zip(t, dirs))
                                 for j, b in enumerate(base)))
            pts.append(rng.choice(pts))
            yield pts, ([_combination(rng, pts, -2) for _ in range(3)]
                        + [rand_point(rng, n, 3, 2)])
    for pts in ([(F(3, 2),), (0,), (F(1, 2),), (0,), (-1,), (F(3, 2),)],
                [(F(1, 3),), (-2,), (F(1, 3),), (F(-5, 4),), (3,), (-2,)],
                [(F(7, 2),), (F(-1, 3),), (F(7, 2),)]):
        yield pts, [(F(1, 4),), (-1,), (-2,), (F(7, 2),), (4,)]
    for _ in range(8):
        # some of a box's corners and points inside its edges, the left and
        # right edges vertical (ties in x1), random points and the midpoint
        # of two of the points, one point repeated
        lo = [F(rng.randint(-6, 0), rng.randint(1, 2)) for _ in range(2)]
        hi = [x + rng.randint(1, 3) for x in lo]
        mid = [(a + b) / 2 for a, b in zip(lo, hi)]
        box = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], mid[1], hi[1])]
        pts = rng.sample(box + [(mid[0], lo[1]), (mid[0], hi[1])],
                         rng.randint(3, 6))
        pts += [rand_point(rng, 2, 2, 2) for _ in range(rng.randint(0, 3))]
        p, q = rng.sample(pts, 2)
        pts += [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2), rng.choice(pts)]
        yield pts, ([_combination(rng, pts, -2) for _ in range(3)]
                    + [rand_point(rng, 2, 3, 2)])
    for const in (True, False) * 4:
        # x1 = c0 or x2 = c x1 + c0 on the plane, so point order sorts by a
        # later coordinate or reads x1 and x2 in step; small integer grid
        # steps put points inside edges
        c, c0 = (F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
        frame = []
        while len(frame) < 3 or _affine_dim(frame) < 2:
            x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
            if const:
                x[0] = c0
            else:
                x[1] = c * x[0] + c0
            frame = frame[-2:] + [tuple(x)]
        base, dirs = frame[0], [[a - b for a, b in zip(v, frame[0])]
                                for v in frame[1:]]
        pts = []
        for _ in range(rng.randint(4, 8)):
            t, u = rng.randint(-2, 2), rng.randint(-2, 2)
            pts.append(tuple(b + t * d + u * e
                             for b, d, e in zip(base, *dirs)))
        pts.append(rng.choice(pts))
        yield pts, ([_combination(rng, pts, -2) for _ in range(3)]
                    + [rand_point(rng, 3, 3, 2)])


def test_polytope_against_oracles_in_r4_and_on_flats():
    flat = 0
    for pts, probes in _oracle_sets(98):
        poly = Polytope(pts)
        dim = _affine_dim(pts)
        flat += dim < len(pts[0])
        assert poly.dim == dim
        def in_hull(x, points):
            # Caratheodory: x lies in a simplex of at most dim + 1 points
            return any(_simplex_has(sub, x) for r in range(1, dim + 2)
                       for sub in combinations(sorted(set(points)), r))

        # a vertex lies in no simplex of the other points
        verts = [p for p in sorted(set(pts)) if not in_hull(p, set(pts) - {p})]
        assert poly.vertices == verts
        assert hull_vertices({lift(p) for p in pts}) == (
            dim, [lift(v) for v in verts])
        # each facet holds every point on its closed side and is tight on
        # dim affinely independent points, in hull and ambient coordinates
        anchor, basis = _hull_frame(pts)
        coords = {p: hull_coords(anchor, basis, p) for p in pts}
        for j, (g, h) in enumerate(poly.facets):
            vals = {p: sum(x * y for x, y in zip(g, c))
                    for p, c in coords.items()}
            assert max(vals.values()) == h
            tight = sorted(p for p, v in vals.items() if v == h)
            assert tight == poly.on_facet(j)
            assert _affine_dim(tight) == dim - 1
        for a, c in poly.ambient_facets():
            vals = [sum(x * y for x, y in zip(a, p)) for p in pts]
            assert max(vals) == c
            assert _affine_dim([p for p, v in zip(pts, vals)
                                if v == c]) == dim - 1
        for x in probes:
            assert poly.contains(x) == in_hull(x, pts), (pts, x)
    assert flat == 48


def test_planar_hull_vertices_take_no_nullspace(monkeypatch):
    # 6 points of a plane, one inside an edge and one inside the hull, in
    # R^2 and on a plane of R^3: one monotone-chain pass, where a facet
    # scan takes a nullspace for each of the 15 pairs
    calls = counting(monkeypatch, "nullspace", convexity)
    square, others = [(0, 0), (0, 2), (2, 0), (2, 2)], [(1, 0), (1, 1)]
    for embed in ((lambda p: p), (lambda p: (F(1, 2), p[1], p[0]))):
        corners = sorted(map(embed, square))
        lifts = [lift(embed(p)) for p in others + square]
        assert hull_vertices(lifts) == (2, [lift(p) for p in corners])
    assert not calls


def test_polytope_pivot_pass_reads_the_frame_lifts_only(monkeypatch):
    # 5 points in R^3: lift_frame reads the 4 rows of their lifts taken as
    # columns, and the pivot pass the 4 frame lifts, not all 5 lifts
    passes = counting(monkeypatch, "_bareiss", convexity)
    poly = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                     (F(1, 4), F(1, 4), F(1, 4))])
    assert [len(a) for a, *_ in passes] == [4, 4]
    assert poly.dim == 3 and len(poly.vertices) == 4


def test_polytope_lifts_each_point_once(monkeypatch):
    # the affine hull is set up from the polytope's own lifts
    calls = counting(monkeypatch, "lift_point", convexity)
    poly = Polytope([(F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, 1), (1, 1, 1)])
    assert len(calls) == 4
    assert poly.dim == 3 and len(poly.vertices) == 4
