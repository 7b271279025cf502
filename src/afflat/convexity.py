"""Exact convex geometry: affine hulls, polytopes, cells, triangulations.

Everything is fraction-free and built once per object: hull equations and
intersections come from one integer Gauss-Jordan pass (`nullspace`),
ambient facet rows from one `span_solver` per polytope, and the facets in
hull coordinates from integer cross products.  The predicates the
polyhedron decision asks at every grid point and cell vertex work on
homogeneous integer lifts (num, k) of num/k.  A polytope is cached as
integer rows r, and num/k is inside iff r.(num, k) == 0 for every equation
row and r.(num, k) <= 0 for every inequality row.  Coordinates over
affinely independent points come from one `span_solver` over their lifts:
a simplex contains num/k iff (num, k) is a nonnegative combination of its
vertex lifts, and the same solve gives barycentric coordinates and a
hull's coordinates.  Simplex clipping, the one arrangement refiner, takes
its signs and edge crossings from the same lifts and covers each closed
half of a simplex by simplexes of its dimension.  Facets are enumerated by
brute force over vertex subsets, which is fine at the scale this package
targets and keeps every predicate exact.  The integer scan that accepts a
facet also records which points lie on it, so a polytope's vertices and
facet witnesses come from that table, with no dot product over Fractions.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .errors import InputError
from .intlinalg import det_int, integer_rank, nullspace, span_solver
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

    def restrict_functional(self, a, c):
        """Rewrite a.x <=/=? c in hull coordinates: returns (g, h) with
        g.l <=/=? h for x = anchor + basis.l."""
        g = tuple(vdot(a, b) for b in self.basis)
        h = rat(c) - vdot(a, self.anchor)
        return g, h

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
    order: a point is kept when its lift is off the span of the lifts kept
    so far."""
    frame, lifts = [], []
    for p in points:
        q = lift(p)
        if integer_rank(lifts + [q]) > len(lifts):
            frame.append(p)
            lifts.append(q)
            if len(lifts) == len(q):
                break
    return frame


def affine_rank(points):
    """Affine rank (dimension of the affine span) of a point set: one less
    than the rank of its lifts."""
    return integer_rank([lift(p) for p in points]) - 1


def _facets_in_coords(pts, e):
    """(scale, facets) of conv(pts) in R^e, full-dim: the lcm `scale` of
    the coordinate denominators, and {(g, h): mask} for the facet
    inequalities g.x <= h / scale, g primitive and h an integer, mask having
    bit i set when pts[i] is on the facet.

    Candidate hyperplanes come from e-subsets via the generalized integer
    cross product (fraction-free) over the points times scale; a hyperplane
    found before is not scanned again.
    """
    scale = 1
    for p in pts:
        for c in p:
            scale = lcm(scale, c.denominator)
    ipts = [tuple(int(c * scale) for c in p) for p in pts]
    facets = {}
    for sub in combinations(range(len(pts)), e):
        base = ipts[sub[0]]
        diffs = [tuple(a - b for a, b in zip(ipts[i], base)) for i in sub[1:]]
        n = []
        for j in range(e):
            cols = [d[:j] + d[j + 1:] for d in diffs]
            n.append(det_int(cols) if j % 2 == 0 else -det_int(cols))
        g0 = content(n)
        if g0 == 0:
            continue
        n = tuple(t // g0 for t in n)
        h = sum(map(mul, n, base))
        neg = tuple(-a for a in n)
        if (n, h) in facets or (neg, -h) in facets:
            continue
        lo = hi = False
        mask = 0
        for i, q in enumerate(ipts):
            s = sum(map(mul, n, q)) - h
            if s > 0:
                hi = True
            elif s < 0:
                lo = True
            else:
                mask |= 1 << i
            if lo and hi:
                break
        if lo and hi:
            continue
        facets[(neg, -h) if hi else (n, h)] = mask
    return scale, facets


class Polytope:
    """Convex hull of finitely many rational points with exact V- and H-data.

    Handles lower-dimensional hulls by working in affine-hull coordinates.
    The facets come with the set of points on each (a bitmask over the
    sorted points), so vertices and facet witnesses are read off integer
    tightness, with no dot product over Fractions.
    """

    def __init__(self, points):
        pts = sorted({point(p) for p in points})
        if not pts:
            raise InputError("polytope of an empty set")
        self.hull = AffineHull(pts)
        self.dim = self.hull.dim
        self._pts = pts
        self._rows = None
        if self.dim == 0:
            self.facets = []
            self._on = []
            self.vertices = [pts[0]]
            return
        scale, facets = _facets_in_coords(
            [self.hull.coords(p) for p in pts], self.dim)
        keys = sorted(facets)
        self.facets = [(g, Fraction(h, scale)) for g, h in keys]
        self._on = [facets[k] for k in keys]
        self.vertices = [
            p for i, p in enumerate(pts)
            if integer_rank([g for (g, _), on in zip(keys, self._on)
                             if on >> i & 1]) == self.dim]

    def on_facet(self, j):
        """The points that lie on facet j, in sorted order."""
        on = self._on[j]
        return [p for i, p in enumerate(self._pts) if on >> i & 1]

    def contains_lift(self, q):
        """Membership of num/k for q = (num_1, ..., num_n, k), k > 0, by
        integer rows from the hull's equations and the ambient facets,
        built on first use."""
        if self._rows is None:
            self._rows = ([_lift_row(a, c) for (a, c) in self.hull.equations()],
                          [_lift_row(a, c) for (a, c) in self.ambient_facets()])
        return _rows_hold(*self._rows, q)

    def contains(self, p):
        self.hull.check_dim(p)
        return self.contains_lift(lift(p))

    def ambient_facets(self):
        """Facet inequalities (a, c) in ambient coordinates (a integer,
        meaningful within the affine hull).

        The row a = sum_i a_i basis_i with Gram . a = g gives
        a.(x - anchor) = g.coords(x) on the hull.  Over the integer rows
        b_i = s_i basis_i of the basis lifts (num, s) it is sum_i y_i b_i
        with G y = (s_i g_i) for the integer Gram matrix G of the b_i, one
        span_solver for every facet; c is a.v for the first point v on the
        facet."""
        if not self.facets:
            return []
        lifts = [lift(b) for b in self.hull.basis]
        rows = [q[:-1] for q in lifts]
        solve = span_solver([[vdot(r1, r2) for r2 in rows] for r1 in rows])
        out = []
        for (g, _), on in zip(self.facets, self._on):
            y, d = solve([q[-1] * t for q, t in zip(lifts, g)])
            # y / d solves G y = (s_i g_i); d y is a positive multiple of it
            a = primitive([d * sum(map(mul, y, col)) for col in zip(*rows)])
            v = self._pts[(on & -on).bit_length() - 1]
            out.append((a, vdot(a, v)))
        return sorted(out)


def _lift_row(a, c):
    """Primitive integer row r over lifts: r.(num, k) is a positive multiple
    of k (a.x - c) for x = num/k."""
    return primitive(tuple(a) + (-rat(c),))


def _rows_hold(eqs, ineqs, q):
    """r.q == 0 for every equation row and r.q <= 0 for every inequality."""
    for r in eqs:
        if sum(map(mul, r, q)):
            return False
    for r in ineqs:
        if sum(map(mul, r, q)) > 0:
            return False
    return True


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


def simplex_tester(vertices):
    """Membership predicate for one simplex, over homogeneous lifts:
    tester((num_1, ..., num_n, k)) is True iff num/k (k > 0) lies in it,
    that is iff the lift is a nonnegative combination of the vertex lifts.
    One span_solver, built once, gives the coefficients times its nonzero
    determinant d; a query costs integer dot products only."""
    solve = span_solver([lift(v) for v in vertices])

    def contains(q):
        sol = solve(q)
        if sol is None:
            return False
        y, d = sol
        return all(t * d >= 0 for t in y)

    return contains


def clip_simplex(simp, g, h, side):
    """Simplexes covering simp /\\ {side*(g.x - h) >= 0} (closed half).

    Recursive cone construction: pick the least strictly-positive vertex w
    and cone it over the boundary faces of the half that miss w: the
    clipped facet opposite w, and the hyperplane slice.  Seen from w, the
    facet's other half maps onto the slice, so the slice is triangulated
    by projecting that half's pieces onto the hyperplane.  Every output is
    a simplex of the input's dimension with vertices among the input
    vertices and edge crossings, and the outputs meet only in boundary
    points.
    """
    lifts = [lift(v) for v in simp]
    row = _lift_row(g, h)
    vals = [side * sum(map(mul, row, q)) for q in lifts]
    return _clip(tuple(simp), lifts, vals)


def _clip(simp, lifts, vals):
    """clip_simplex on the vertex lifts and the integer values
    side*row.lift (signed like side*(g.v - h)), which the facet recursion
    takes from here instead of recomputing."""
    if all(v >= 0 for v in vals):
        return [simp]
    if all(v <= 0 for v in vals):
        return []
    w = min(v for v, val in zip(simp, vals) if val > 0)
    wi = simp.index(w)
    lw, sw = lifts[wi], vals[wi]
    facet = simp[:wi] + simp[wi + 1:]
    flifts = lifts[:wi] + lifts[wi + 1:]
    fvals = vals[:wi] + vals[wi + 1:]
    negative = {v: (q, s) for v, q, s in zip(facet, flifts, fvals) if s < 0}

    def seen(y):
        # where the segment from w to y meets the hyperplane: the point of
        # the lift s_w L_y - s_y L_w; zero vertices and crossings stay
        if y not in negative:
            return y
        ly, sy = negative[y]
        c = [sw * b - sy * a for a, b in zip(lw, ly)]
        k = c.pop()
        return tuple(Fraction(x, k) for x in c)

    base = _clip(facet, flifts, fvals)
    base += [tuple(map(seen, t))
             for t in _clip(facet, flifts, [-v for v in fvals])]
    return sorted(tuple(sorted((w,) + t)) for t in base)


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
