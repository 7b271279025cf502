"""Exact convex geometry: flats, frames, polytopes, cells,
triangulations.

Everything is fraction-free and works on the homogeneous integer lifts
(num, k) of points num/k.  A flat (an affine subspace) is one value, the
sorted canonical primitive rows over lifts of its hull's equations: the
flat of some points is one integer Gauss-Jordan pass over their lifts
(`_flat`, a `nullspace`), and the meet of two flats one pass over their
stacked rows (`_meet`), empty when the rows force k = 0.  The lifts of a
frame of points (`lift_frame`) have the points' flat, and
`affine.AffineSpace` and `Polytope` keep only those; each row reads as one
equation a.x = c (`_equations`).  A polytope's facets come from one scan
over its points' lifts, projected onto coordinates where their span
projects injectively: the normal of each independent e-subset is
sign-tested on every lift, and the points on each facet are recorded as a
bitmask, so facet witnesses are read off integer tightness, and a point is
a vertex when the AND of the masks of its facets holds it alone.
`hull_vertices`, which needs no facets, reads the vertices of a planar
hull off Andrew's monotone chain instead: one pass each way over the lifts
in point order, each turn the sign of a 3x3 integer determinant of
projected lifts.  num/k lies in a polytope iff its lift vanishes on the
rows of the hull's flat and satisfies the scan's facet rows.  Coordinates
over affinely independent points come from one `span_solver` over their
lifts: a simplex contains num/k iff (num, k) is a nonnegative combination
of its vertex lifts, and the same solve gives barycentric coordinates.
Simplex clipping, the step of the one arrangement refiner, maps vertex
lifts to lifts: signs are integer rows on them, edge crossings integer
combinations of two, and each closed half of a simplex of any dimension,
in ambient coordinates, is covered by simplexes of its dimension.  Facets
are enumerated by brute force over point subsets, which is fine at the
scale this package targets and keeps every predicate exact.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from operator import and_, mul

from .errors import InputError
from .intlinalg import _bareiss, nullspace, span_solver
from .rationals import (canon_primitive, content, lift, lift_point, point,
                        primitive, vdot, vsub)


def _point_lifts(points, empty):
    """(pts, lifts): the distinct points, normalized and sorted, and their
    lifts, each point lifted once.  Raises InputError with the message empty
    when there is no point, and when the points' dimensions differ."""
    pts = sorted({point(p) for p in points})
    if not pts:
        raise InputError(empty)
    if any(len(p) != len(pts[0]) for p in pts):
        raise InputError("mixed ambient dimensions")
    return pts, [lift_point(p) for p in pts]


def _lift_in(p, n):
    """lift(p), raising InputError unless p is a point of R^n."""
    q = lift(p)
    if len(q) != n + 1:
        raise InputError("point of dimension %d given to a hull in R^%d"
                         % (len(q) - 1, n))
    return q


def _flat(lifts):
    """The flat spanned by points, given by their lifts: the sorted tuple of
    the canonical primitive rows r over lifts, r = (a, -c) up to a positive
    factor, of the canonical equations a.x = c of the points' affine hull
    (() for all of R^n).  One nullspace over the lifts with the k column
    moved first: k is a pivot, the other pivots are the greedy pivots of
    the directions, so each vector, k moved back last, is a canonical
    normal a of the directions with -a.anchor in place of k."""
    null = nullspace([q[-1:] + q[:-1] for q in lifts], len(lifts[0]))
    return tuple(sorted(canon_primitive(v[1:] + v[:1]) for v in null))


def _equations(flat):
    """The canonical equations (a, c) of a flat (see _flat), a.x = c with a
    primitive, sorted: a row r over lifts is t (a, -c) for t > 0, the
    content of r[:-1]."""
    eqs = []
    for r in flat:
        t = content(r[:-1])
        eqs.append((tuple(x // t for x in r[:-1]), Fraction(-r[-1], t)))
    return sorted(eqs)


def _meet(f, g, n):
    """The flat f /\\ g of two flats of R^n (see _flat), or None when they
    are disjoint.  One Gauss-Jordan pass over the stacked rows, with the
    coordinate columns reversed and k last: the reduced rows are then the
    canonical rows of the intersection, and they force k = 0, so no point,
    when k is a pivot column."""
    a = [r[n - 1::-1] + r[n:] for r in f + g]
    pivots = _bareiss(a, n + 1)[0]
    if pivots and pivots[-1] == n:
        return None
    return tuple(sorted(canon_primitive(r[n - 1::-1] + r[n:])
                        for r in a[:len(pivots)]))


def affine_frame(points):
    """The greedy affinely independent prefix of the points, in their
    order."""
    return [points[i] for i in lift_frame([lift(p) for p in points])]


def lift_frame(lifts):
    """Indices of the greedy independent prefix of the lifts, in their
    order: a lift is kept when it is off the span of those kept before it.
    These are the pivot columns of one _bareiss pass below the pivots over
    the lifts taken as columns, as a column of a row echelon form has a
    pivot exactly when it is off the span of the columns before it."""
    return _bareiss(list(zip(*lifts)), len(lifts), reduce=False)[0]


def _facet_scan(lifts, pivots):
    """(facets, vertices) for the lifts of distinct points and the pivot
    columns of one Bareiss pass below the pivots over them, e + 1 of them
    for a hull of dimension e.  Restricting the lifts to the pivots is
    injective on their span, so it keeps the cone over the points' hull.
    facets is {r: mask}, r a primitive integer row with r.q <= 0 for every
    restricted lift q and mask having bit i set when r is 0 on lift i; the
    candidate rows are the normals of the independent e-subsets (the row of
    their e x e minors up to scale, here their one nullspace vector), each
    hyperplane sign-tested once.  vertices are the indices i whose facets'
    masks AND to 1 << i: a vertex is the intersection of its facets, and
    any other point lies on none or in a face holding two or more points."""
    proj = [tuple(q[j] for j in pivots) for q in lifts]
    e = len(pivots) - 1
    facets, seen = {}, set()
    for sub in combinations(proj, e) if e else ():
        null = nullspace(sub, e + 1)
        if len(null) != 1:
            continue
        g = content(null[0])
        r = tuple(x // g for x in null[0])
        if r in seen:
            continue
        neg = tuple(-x for x in r)
        seen.update((r, neg))
        vals = [sum(map(mul, r, q)) for q in proj]
        if min(vals) < 0 < max(vals):
            continue
        facets[neg if max(vals) > 0 else r] = sum(
            1 << i for i, v in enumerate(vals) if not v)
    every = (1 << len(proj)) - 1
    return facets, [
        i for i in range(len(proj))
        if reduce(and_, (on for on in facets.values() if on >> i & 1),
                  every) == 1 << i]


def _polygon_vertices(lifts, pivots):
    """The vertex lifts, in point order, of the polygon spanned by lifts in
    point order, given the 3 pivot columns of one Bareiss pass below the
    pivots over them: Andrew's monotone chain, forward and in reverse.
    Restricted to the pivots the lifts keep their span injectively, so the
    determinant of three restricted lifts is the orientation of their
    points times the positive product of their last entries and one fixed
    sign.  Each pass drops its last kept point while that and the one
    before it make no strict turn of that sign towards the new point; if
    the sign is negative the passes keep the other chains, and the union is
    still the vertex set.  Point order is lexicographic, which sweeps any
    plane: by its first coordinate not constant on it, ties by the first
    one independent of that."""
    a, b, c = pivots
    proj = [(q[a], q[b], q[c]) for q in lifts]
    kept = set()
    for order in (range(len(proj)), range(len(proj) - 1, -1, -1)):
        chain = []
        for i in order:
            x, y, z = proj[i]
            while len(chain) > 1:
                u0, u1, u2 = proj[chain[-2]]
                v0, v1, v2 = proj[chain[-1]]
                if (u0 * (v1 * z - v2 * y) - u1 * (v0 * z - v2 * x)
                        + u2 * (v0 * y - v1 * x)) > 0:
                    break
                chain.pop()
            chain.append(i)
        kept.update(chain)
    return [lifts[i] for i in sorted(kept)]


def hull_vertices(lifts):
    """(e, vertices) for the lifts of distinct points, in any order: the
    dimension e of the points' convex hull and the lifts of its vertices
    in point order (that of their numerators scaled to the lcm of their
    last entries).  One _bareiss pass gives the pivots: independent points
    are all vertices, collinear ones the first and last (point order is
    line order), planar ones come from one monotone-chain pass
    (_polygon_vertices), and the rest are read off one _facet_scan."""
    k = lcm(*(q[-1] for q in lifts))
    lifts = sorted(lifts, key=lambda q: [k // q[-1] * x for x in q[:-1]])
    pivots = _bareiss(list(lifts), len(lifts[0]), reduce=False)[0]
    if len(pivots) == len(lifts):
        return len(lifts) - 1, lifts
    if len(pivots) == 2:
        return 1, [lifts[0], lifts[-1]]
    if len(pivots) == 3:
        return 2, _polygon_vertices(lifts, pivots)
    return len(pivots) - 1, [lifts[i] for i in _facet_scan(lifts, pivots)[1]]


class Polytope:
    """Convex hull of finitely many rational points with exact V- and H-data.

    Each point is lifted once, and the lifts of its lift_frame points are
    kept: they span what all the lifts span, so one _bareiss pass over these
    e + 1 lifts gives the pivot columns, and their flat, built on first
    use, the hull's equations.  One _facet_scan over all the lifts gives the
    facet rows, each with the set of points on it (a bitmask over the
    sorted points).  A row r over the projected lifts is the inequality
    g.x <= h in the hull coordinates over the frame points v_0, ..., v_e
    (anchor v_0, basis v_i - v_0), g_i = r.proj(v_i - v_0, 0) and
    h = -r.proj(v_0, 1) scaled to a primitive integer g.
    """

    def __init__(self, points):
        pts, lifts = _point_lifts(points, "polytope of an empty set")
        frame = lift_frame(lifts)
        self.dim = len(frame) - 1
        self._pts = pts
        self._frame = [lifts[i] for i in frame]
        self._eqs = None
        self._pivots = _bareiss(list(self._frame), len(lifts[0]),
                                reduce=False)[0]
        facets, vertices = _facet_scan(lifts, self._pivots)
        self.vertices = [pts[i] for i in vertices]
        v0 = pts[frame[0]]
        anchor = [(v0 + (1,))[j] for j in self._pivots]
        basis = [[(vsub(pts[i], v0) + (0,))[j] for j in self._pivots]
                 for i in frame[1:]]
        rows = []
        for r, on in facets.items():
            g = [sum(map(mul, r, b)) for b in basis]
            a = primitive(g)
            i = next(i for i, x in enumerate(a) if x)
            rows.append((a, -sum(map(mul, r, anchor)) * a[i] / g[i], on, r))
        rows.sort()
        self.facets = [row[:2] for row in rows]
        self._on = [row[2] for row in rows]
        self._rows = [row[3] for row in rows]

    def on_facet(self, j):
        """The points that lie on facet j, in sorted order."""
        on = self._on[j]
        return [p for i, p in enumerate(self._pts) if on >> i & 1]

    def _hull_flat(self):
        """The flat of the points (see _flat), built from the frame lifts on
        first use."""
        if self._eqs is None:
            self._eqs = _flat(self._frame)
        return self._eqs

    def equations(self):
        """The canonical equations (a, c) of the affine hull, a.x = c."""
        return _equations(self._hull_flat())

    def contains_lift(self, q):
        """Membership of num/k for q = (num_1, ..., num_n, k), k > 0: the
        rows of the hull's flat vanish on q, and the facet rows are <= 0 on
        its projection."""
        p = [q[j] for j in self._pivots]
        return (not any(sum(map(mul, r, q)) for r in self._hull_flat())
                and all(sum(map(mul, r, p)) <= 0 for r in self._rows))

    def contains(self, p):
        return self.contains_lift(_lift_in(p, len(self._pts[0])))

    def ambient_facets(self):
        """Facet inequalities (a, c) in ambient coordinates, a.x <= c within
        the affine hull: a is the primitive integer normal of the facet in
        the hull's direction space, the one nullspace vector of the hull's
        equation normals and the facet's edge directions, and c is a.v for
        a point v on the facet."""
        normals = [a for a, _ in self.equations()]
        out = []
        for j in range(len(self.facets)):
            on = self.on_facet(j)
            rows = normals + [primitive(vsub(p, on[0])) for p in on[1:]]
            a = primitive(nullspace(rows, len(on[0]))[0])
            c = vdot(a, on[0])
            if any(vdot(a, p) > c for p in self._pts):
                a, c = tuple(-x for x in a), -c
            out.append((a, c))
        return sorted(out)


def _barycentric_solver(vertices):
    """bary(x) -> barycentric coordinates of x over the affinely independent
    vertices, or None when x is off their span.  One span_solver over the
    vertex lifts L_i answers every query: lift(x) = sum_i mu_i L_i gives
    lambda_i = mu_i den(v_i) / den(x)."""
    lifts = [lift(v) for v in vertices]
    solve = span_solver(lifts)
    dens = [q[-1] for q in lifts]

    def bary(x):
        q = lift(x)
        sol = solve(q)
        if sol is None:
            return None
        y, d = sol
        k = d * q[-1]
        return tuple(Fraction(t * e, k) for t, e in zip(y, dens))

    return bary


def simplex_tester(lifts):
    """Membership predicate for the simplex with the given vertex lifts:
    tester((num_1, ..., num_n, k)) is True iff num/k (k > 0) lies in it,
    that is iff the lift is a nonnegative combination of the vertex lifts.
    One span_solver, built once, gives the coefficients times its nonzero
    determinant d; a query costs integer dot products only."""
    solve = span_solver(lifts)

    def contains(q):
        sol = solve(q)
        if sol is None:
            return False
        y, d = sol
        return all(t * d >= 0 for t in y)

    return contains


def _clip(lifts, vals):
    """Sorted tuples of primitive lifts of simplexes covering the closed
    half where vals >= 0 of the simplex with the sorted vertex lifts, vals
    being the integer values of one row on them.

    Recursive cone construction: pick the least lift w of positive value
    and cone it over the boundary faces of the half that miss w: the
    clipped facet opposite w, and the hyperplane slice.  Seen from w, the
    facet's other half maps onto the slice, so the slice is triangulated
    by projecting that half's pieces onto the hyperplane: a lift L_q of
    value s_q < 0 goes to the crossing s_w L_q - s_q L_w, whose last entry
    is positive.  Every output is a simplex of the input's dimension with
    vertices among the input vertices and edge crossings, and the outputs
    meet only in boundary points.
    """
    if all(v >= 0 for v in vals):
        return [lifts]
    if all(v <= 0 for v in vals):
        return []
    wi = next(i for i, v in enumerate(vals) if v > 0)
    lw, sw = lifts[wi], vals[wi]
    facet = lifts[:wi] + lifts[wi + 1:]
    fvals = vals[:wi] + vals[wi + 1:]
    negative = {q: s for q, s in zip(facet, fvals) if s < 0}

    def seen(q):
        # where the segment from w to q meets the hyperplane; zero vertices
        # and crossings stay
        if q not in negative:
            return q
        c = [sw * b - negative[q] * a for a, b in zip(lw, q)]
        g = content(c)
        return tuple(x // g for x in c)

    base = _clip(facet, fvals)
    base += [tuple(map(seen, t)) for t in _clip(facet, [-v for v in fvals])]
    return sorted(tuple(sorted((lw,) + t)) for t in base)


def placing_triangulation(pts):
    """Triangulate conv(pts) by coning from the lexicographically least
    vertex onto recursively triangulated facets.

    pts live in R^e with full-dimensional hull (dim == affine rank).  Returns
    a list of simplexes, each a tuple of points.  Facet triangulations depend
    only on the facet's vertex set, so adjacent cells glue compatibly.
    """
    poly = Polytope(pts)
    verts = sorted(poly.vertices)
    d = poly.dim
    if d == 0:
        return [tuple(verts)]
    if len(verts) == d + 1:
        return [tuple(verts)]
    v0 = verts[0]
    out = []
    for j in range(len(poly.facets)):
        on = poly.on_facet(j)
        if v0 in on:
            continue
        fverts = [v for v in on if v in verts]
        for cell in placing_triangulation(fverts):
            out.append(tuple(sorted((v0,) + cell)))
    return sorted(set(out))
