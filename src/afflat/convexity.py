"""Exact convex geometry: affine hulls, polytopes, cells, triangulations.

Everything is fraction-free and works on the homogeneous integer lifts
(num, k) of points num/k.  Hull equations and intersections come from one
integer Gauss-Jordan pass (`nullspace`).  A polytope's facets come from
one scan over its points' lifts, projected onto coordinates where their
span projects injectively: the normal of each independent e-subset is
sign-tested on every lift, and the points on each facet are recorded as a
bitmask, so facet witnesses are read off integer tightness, and a point is
a vertex when the AND of the masks of its facets holds it alone.  num/k lies
in a polytope iff its lift satisfies the hull's equation rows and the
scan's facet rows.  Coordinates over affinely independent points come
from one `span_solver` over their lifts: a simplex contains num/k iff
(num, k) is a nonnegative combination of its vertex lifts, and the same
solve gives barycentric coordinates and a hull's coordinates.  Simplex
clipping, the step of the one arrangement refiner, maps vertex lifts to
lifts: signs are integer rows on them, edge crossings integer combinations
of two, and each closed half of a simplex of any dimension, in ambient
coordinates, is covered by simplexes of its dimension.  Facets are
enumerated by brute force over point subsets, which is fine at the scale
this package targets and keeps every predicate exact.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from operator import and_, mul

from .core import unlift
from .errors import InputError
from .intlinalg import _bareiss, nullspace, span_solver
from .rationals import (canon_primitive, content, lift, point, primitive, rat,
                        vadd, vdot, vsub)


class AffineHull:
    """Affine span of rational points: an anchor plus a rational direction
    basis, with derived coordinates and integer equations."""

    def __init__(self, points):
        pts = sorted({point(p) for p in points})
        if not pts:
            raise InputError("affine hull of an empty set")
        self.ambient = len(pts[0])
        if any(len(p) != self.ambient for p in pts):
            raise InputError("mixed ambient dimensions")
        frame = affine_frame(pts)
        self.anchor = frame[0]
        self.basis = [vsub(p, self.anchor) for p in frame[1:]]
        self.dim = len(self.basis)
        self._frame = frame
        self._equations = None
        self._bary = None

    def coords(self, p):
        """Coordinates of p in the direction basis, or None if p is off-hull:
        the barycentric coordinates of p over the anchor and the points
        the basis was taken from, less the anchor's."""
        self.check_dim(p)
        if self._bary is None:
            self._bary = _barycentric_solver(self._frame)
        lam = self._bary(p)
        return None if lam is None else lam[1:]

    def embed(self, coords):
        if len(coords) != self.dim:
            raise InputError("%d coordinates given to a %d-dimensional hull"
                             % (len(coords), self.dim))
        p = self.anchor
        for c, b in zip(coords, self.basis):
            p = vadd(p, tuple(c * x for x in b))
        return p

    def check_dim(self, p):
        """Raise InputError unless p is a point of the ambient space."""
        if len(p) != self.ambient:
            raise InputError("point of dimension %d given to a hull in R^%d"
                             % (len(p), self.ambient))

    def contains(self, p):
        # the equations cut out exactly the hull, so no solve is needed
        p = point(p)
        self.check_dim(p)
        return all(vdot(a, p) == c for (a, c) in self.equations())

    def equations(self):
        """Integer equations (a, c) with the hull equal to {x : a.x = c}."""
        if self._equations is None:
            if self.dim == self.ambient:
                self._equations = []
            else:
                rows = [primitive(b) for b in self.basis]
                eqs = []
                for nrm in nullspace(rows, self.ambient):
                    a = canon_primitive(nrm)
                    eqs.append((a, vdot(a, self.anchor)))
                self._equations = sorted(eqs)
        return self._equations

    def intersect(self, other):
        """Intersection with another hull: a new AffineHull, or None if empty.

        The solutions (num, k) of the stacked lifted equations form a
        nullspace; the flat is nonempty iff k is a free column, whose vector
        lifts the solution with the free coordinates at 0.  The vectors of
        the other free columns, with k = 0, are directions."""
        eqs = self.equations() + other.equations()
        if not eqs:
            return self  # both are the full space
        null = nullspace([_lift_row(a, c) for (a, c) in eqs], self.ambient + 1)
        if not null or not null[-1][-1]:
            return None
        *dirs, sol = null
        k = sol[-1]
        pts = [tuple(Fraction(x, k) for x in sol[:-1])]
        pts += [tuple(Fraction(x + y, k) for x, y in zip(sol, d[:-1]))
                for d in dirs]
        return AffineHull(pts)

    def key(self):
        """Canonical hashable identity: the sorted canonical equations, or
        ("full", n) for all of R^n."""
        eqs = tuple(self.equations())
        if self.dim == self.ambient:
            return ("full", self.ambient)
        return eqs


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


def hull_vertices(table):
    """(e, vertices) for a {point: lift} table: the dimension e of the
    points' convex hull and the lifts of its vertices in point order (that
    of their numerators scaled to the lcm of their last entries).  One
    _bareiss pass gives the pivots: independent points are all vertices,
    collinear ones the first and last (point order is line order), and the
    rest are read off one _facet_scan."""
    k = lcm(*(q[-1] for q in table.values()))
    lifts = sorted(table.values(),
                   key=lambda q: [k // q[-1] * x for x in q[:-1]])
    pivots = _bareiss(list(lifts), len(lifts[0]), reduce=False)[0]
    if len(pivots) == len(lifts):
        return len(lifts) - 1, lifts
    if len(pivots) == 2:
        return 1, [lifts[0], lifts[-1]]
    return len(pivots) - 1, [lifts[i] for i in _facet_scan(lifts, pivots)[1]]


class Polytope:
    """Convex hull of finitely many rational points with exact V- and H-data.

    Each point is lifted once.  The affine hull is that of the lifts'
    lift_frame points, and one _facet_scan over the lifts gives the facet
    rows, each with the set of points on it (a bitmask over the sorted
    points).  A row r over the projected lifts is the inequality g.x <= h
    in the coordinates of the affine hull, g_i = r.proj(basis_i, 0) and
    h = -r.proj(anchor, 1) scaled to a primitive integer g.
    """

    def __init__(self, points):
        pts = sorted({point(p) for p in points})
        if not pts:
            raise InputError("polytope of an empty set")
        if any(len(p) != len(pts[0]) for p in pts):
            raise InputError("mixed ambient dimensions")
        lifts = [lift(p) for p in pts]
        self.hull = AffineHull([pts[i] for i in lift_frame(lifts)])
        self.dim = self.hull.dim
        self._pts = pts
        self._eqs = None
        self._pivots = _bareiss(list(lifts), len(lifts[0]), reduce=False)[0]
        facets, vertices = _facet_scan(lifts, self._pivots)
        self.vertices = [pts[i] for i in vertices]
        anchor = [(self.hull.anchor + (1,))[j] for j in self._pivots]
        basis = [[(b + (0,))[j] for j in self._pivots]
                 for b in self.hull.basis]
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

    def contains_lift(self, q):
        """Membership of num/k for q = (num_1, ..., num_n, k), k > 0: the
        integer rows of the hull's equations, built on first use, vanish on
        q, and the facet rows are <= 0 on its projection."""
        if self._eqs is None:
            self._eqs = [_lift_row(a, c) for (a, c) in self.hull.equations()]
        p = [q[j] for j in self._pivots]
        return (not any(sum(map(mul, r, q)) for r in self._eqs)
                and all(sum(map(mul, r, p)) <= 0 for r in self._rows))

    def contains(self, p):
        self.hull.check_dim(p)
        return self.contains_lift(lift(p))

    def ambient_facets(self):
        """Facet inequalities (a, c) in ambient coordinates, a.x <= c within
        the affine hull: a is the primitive integer normal of the facet in
        the hull's direction space, the one nullspace vector of the hull's
        equation normals and the facet's edge directions, and c is a.v for
        a point v on the facet."""
        normals = [a for a, _ in self.hull.equations()]
        out = []
        for j in range(len(self.facets)):
            on = self.on_facet(j)
            rows = normals + [primitive(vsub(p, on[0])) for p in on[1:]]
            a = primitive(nullspace(rows, self.hull.ambient)[0])
            c = vdot(a, on[0])
            if any(vdot(a, p) > c for p in self._pts):
                a, c = tuple(-x for x in a), -c
            out.append((a, c))
        return sorted(out)


def _lift_row(a, c):
    """Primitive integer row r over lifts: r.(num, k) is a positive multiple
    of k (a.x - c) for x = num/k."""
    return primitive(tuple(a) + (-rat(c),))


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


def simplex_barycentric(vertices, x):
    """Barycentric coordinates of x w.r.t. affinely independent vertices,
    or None when x is outside the affine span."""
    return _barycentric_solver(vertices)(x)


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


def clip_simplex(simp, g, h, side):
    """Simplexes covering simp /\\ {side*(g.x - h) >= 0} (closed half): _clip
    on the sorted vertex lifts, its pieces unlifted."""
    lifts = tuple(sorted(lift(v) for v in simp))
    row = _lift_row(g, h)
    vals = [side * sum(map(mul, row, q)) for q in lifts]
    return [tuple(map(unlift, t)) for t in _clip(lifts, vals)]


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
