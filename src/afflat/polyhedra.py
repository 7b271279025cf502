"""Rational polyhedra: exact triangulation, point-set equality, and the
orbit decision procedure with witness map.

A polyhedron is a finite list of rational simplexes of arbitrary dimensions,
possibly overlapping.  One refiner serves triangulation and set equality:
it clips each simplex, cut by cut, into simplex cells along affine hulls of
faces and records on which side of each cut a cell lies.  Triangulation
cuts along the intersection-closed hulls of all faces and places each
arrangement cell.  One cover test per side (_cover_test) decides whether
the other side lies in its union: it rejects a vertex outside it at once,
accepts whole each simplex inside one of its simplexes, by integer tests
of vertex lifts, cuts the rest along its facet hulls only and tests each
cell by its barycenter.  The orbit decision tries the images of an
affinely independent base of hull vertices among the target's hull
vertices; a map phi passes when phi(P) lies in Q and phi^-1(Q) in P, asked
of cover tests built once per decision; for the right map every simplex
is accepted whole.  Each map is built once, in integers, from the
adjugate of the base's homogeneous lifts; a flat hull's base is completed
by the extension of the witness simplex of the source's affine span.
Hulls of different dimensions, or hull segments of different lambda_1,
are answered before any enumeration.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from operator import and_, mul
from typing import NamedTuple

from .affine import AffineSpace, affine_equivalence, c_invariant
from .complexes import Triangulation
from .cones import desingularize, fan_rays
from .convexity import (AffineHull, Polytope, _clip, _lift_row, affine_frame,
                        placing_triangulation, simplex_tester)
from .core import UniAffMap, is_regular, lift, simplex, unlift
from .errors import InputError, InternalCheckError
from .intlinalg import _det_adj, integer_rank, mat_mul
from .rationals import canon_primitive
from .segments import _den_runs, lambda1

__all__ = [
    "polyhedron", "convex_hull", "Hull", "desingularize", "fan_rays",
    "triangulate", "poly_set_equal", "regular_simplex_in",
    "polyhedron_equivalence",
]


def polyhedron(simplexes):
    """Normalize a polyhedron: nonempty list of simplexes, common ambient."""
    simps = [simplex(s) for s in simplexes]
    if not simps:
        raise InputError("polyhedron needs at least one simplex")
    n = len(simps[0][0])
    if any(len(s[0]) != n for s in simps):
        raise InputError("mixed ambient dimensions")
    return simps


def poly_vertices(P):
    out = set()
    for s in P:
        out.update(s)
    return sorted(out)


class Hull(NamedTuple):
    vertices: tuple
    equations: tuple  # (a, c): a.x = c on the hull
    facets: tuple     # (a, c): a.x <= c within the hull


def convex_hull(points):
    """Exact V- and H-representations of the convex hull (within its own
    affine hull)."""
    poly = Polytope(points)
    eqs = tuple(poly.hull.equations())
    facets = []
    for (a, c) in poly.ambient_facets():
        scale = c.denominator if isinstance(c, Fraction) else 1
        facets.append((tuple(t * scale for t in a), int(c * scale)))
    return Hull(tuple(sorted(poly.vertices)), eqs, tuple(sorted(facets)))


def _face_hulls(polys, facets_only=False):
    """Affine hulls of faces of every simplex, deduplicated.

    facets_only keeps each simplex's own hull and its codimension-one face
    hulls; that is enough for membership-uniform refinement, since every
    boundary point of a simplex lies on a facet hull.
    """
    hulls = {}
    for P in polys:
        for s in P:
            if facets_only:
                sizes = {len(s), len(s) - 1} - {0}
            else:
                sizes = range(1, len(s) + 1)
            for r in sizes:
                for face in combinations(s, r):
                    h = AffineHull(face)
                    hulls.setdefault(h.key(), h)
    return hulls


def _close_under_intersection(hulls):
    """Close a family of affine subspaces under pairwise intersection."""
    family = dict(hulls)
    frontier = list(family.values())
    while frontier:
        new = []
        items = list(family.values())
        for a in frontier:
            for b in items:
                i = a.intersect(b)
                if i is not None and i.key() not in family:
                    family[i.key()] = i
                    new.append(i)
        frontier = new
    return family


def _cuts_for(hull, family):
    """Hyperplanes (g, h) in hull coordinates along which cells must split
    so that every family subspace meets cells only in faces."""
    cuts = set()
    for sub in family.values():
        j = hull.intersect(sub)
        if j is None or j.dim == hull.dim:
            continue
        for (a, c) in j.equations():
            g, h = hull.restrict_functional(a, c)
            if all(t == 0 for t in g):
                continue
            key = canon_primitive(tuple(g) + (h,))
            cuts.add((key[:-1], Fraction(key[-1])))
    return sorted(cuts)


def _refined_simplex_cells(P, family):
    """Per input simplex s: simplex cells covering it, each inside one
    closed side of every cut of s's hull (clip recursion in hull
    coordinates).  Returns (hull, sides, cell) triples, sides holding +1 or
    -1 per cut; the cells of one hull with equal sides tile one convex cell
    of the arrangement, s cut down to those closed halves.  Each cut's row
    and each cell's lifts and values are computed once for both sides."""
    out = []
    for s in P:
        hull = AffineHull(s)
        cells = {tuple(sorted(hull.coords(v) for v in s)): ()}
        for (g, h) in _cuts_for(hull, family):
            row = _lift_row(g, h)
            nxt = {}
            for cell, sides in cells.items():
                lifts = [lift(v) for v in cell]
                vals = [sum(map(mul, row, q)) for q in lifts]
                for side, svals in ((1, vals), (-1, [-v for v in vals])):
                    for piece in _clip(cell, lifts, svals):
                        nxt[piece] = sides + (side,)
            cells = nxt
        out.extend((hull, sides, cell) for cell, sides in sorted(cells.items()))
    return out


def poly_set_equal(P, Q):
    """Exact point-set equality of two polyhedra: each side lies in the
    union of the other's simplexes, by one _cover_test per side."""
    P = polyhedron(P)
    Q = polyhedron(Q)
    if len(P[0][0]) != len(Q[0][0]):
        raise InputError("ambient dimensions differ")
    return (_cover_test(Q)(_simplex_lifts(P))
            and _cover_test(P)(_simplex_lifts(Q)))


def _simplex_lifts(P):
    return [tuple(lift(v) for v in s) for s in P]


def _cover_test(Q):
    """covered(S) -> whether the simplexes S, given by their vertex lifts,
    lie in the union of Q's simplexes.  Q's testers are built here, its
    facet-hull family on first need; both live as long as covered does.

    covered answers False at once when a vertex lies in no simplex of Q.
    A simplex whose vertices all lie in one simplex of Q lies in it
    (simplexes are convex), so it is accepted whole.  The rest is refined
    against the hulls of Q's simplexes and of their facets only: each cell
    then lies in one closed half of every cut, so for every simplex t of Q
    the relative interior of the cell is either inside t or disjoint from
    it, and the barycenter decides whether the cell lies in Q."""
    tests = [simplex_tester(s) for s in Q]
    family = None

    def covered(S):
        nonlocal family
        masks = {}
        for s in S:
            for q in s:
                if q not in masks:
                    masks[q] = sum(1 << i for i, t in enumerate(tests)
                                   if t(q))
                    if not masks[q]:
                        return False
        rest = [tuple(unlift(q) for q in s) for s in S
                if not reduce(and_, (masks[q] for q in s))]
        if not rest:
            return True
        if family is None:
            family = _face_hulls([Q], facets_only=True)
        for hull, _, cell in _refined_simplex_cells(rest, family):
            k = len(cell)
            q = lift(hull.embed(tuple(sum(c) / k for c in zip(*cell))))
            if not any(t(q) for t in tests):
                return False
        return True

    return covered


def triangulate(P):
    """A simplicial complex with rational vertices whose support equals P.

    Cuts every simplex along the (intersection-closed) affine hulls of all
    faces of all simplexes, then triangulates each arrangement cell by
    placing from the lexicographically least vertex.  The cells come from
    the clip refinement: the pieces of one input simplex on the same sides
    of every cut span one cell.
    """
    P = polyhedron(P)
    family = _close_under_intersection(_face_hulls([P]))
    groups = {}
    for hull, sides, cell in _refined_simplex_cells(P, family):
        groups.setdefault((hull, sides), set()).update(cell)
    tris = set()
    for (hull, _), pts in groups.items():
        for t in placing_triangulation([hull.embed(p) for p in pts]):
            tris.add(tuple(sorted(t)))
    return Triangulation(sorted(tris))


def regular_simplex_in(points):
    """A regular e-simplex with vertices inside conv(points), e the hull's
    dimension: desingularize the cone over the lifts of a spanning simplex
    and return the cell with the smallest denominators."""
    poly = Polytope(points)
    e = poly.dim
    base = affine_frame(sorted(poly.vertices))
    if len(base) != e + 1:
        raise InputError("degenerate input: hull has no spanning simplex")
    fan = desingularize([lift(v) for v in base])
    cell = min(fan, key=lambda c: (max(g[-1] for g in c), c))
    out = simplex(sorted(unlift(g) for g in cell))
    if not is_regular(out):
        raise InternalCheckError("desingularized cell is not regular")
    for v in out:
        if not poly.contains(v):
            raise InternalCheckError("regular cell left the hull")
    return out


def polyhedron_equivalence(P, Q):
    """A unimodular affine map of P onto Q, or None.

    A valid map bijects the hull vertices, so it is pinned on aff(P) by the
    images of an affinely independent base of P's hull vertices: every
    matched tuple of Q's hull vertices is tried, and the map phi it induces
    passes when phi(P) lies in Q and phi^-1(Q) in P, asked of one
    _cover_test per side built before the enumeration.  With L the matrix
    of the base's lifts, the map of a candidate is L' adj(L) / det(L), L'
    the lifts of the images: one integer product, kept when det(L) divides
    it and the result has det +-1.  When the hulls span R^n no AffineSpace
    is built; else L is completed to a square matrix by the lifts of the
    extension of aff(P)'s witness simplex, sent where the spans' witness
    map sends them.  Hulls of different dimensions answer None at once,
    and so do hull segments of different lambda_1 (read off the chain's
    runs, with no scan).
    """
    P = polyhedron(P)
    Q = polyhedron(Q)
    n = len(P[0][0])
    if len(Q[0][0]) != n:
        raise InputError("ambient dimensions differ")
    CP = Polytope(poly_vertices(P))
    CQ = Polytope(poly_vertices(Q))
    e = CP.dim
    if CQ.dim != e:
        return None
    if e == 1 and lambda1(*CP.vertices) != lambda1(*CQ.vertices):
        return None
    if e == n:
        ext, g_ext = [], []
    else:
        FP = AffineSpace(poly_vertices(P))
        gamma = affine_equivalence(FP, AffineSpace(poly_vertices(Q)))
        if gamma is None:
            return None
        ext = [lift(p) for p in c_invariant(FP)[1][e + 1:]]
        g_ext = [gamma.map_lift(q) for q in ext]
    base = affine_frame(sorted(CP.vertices))
    # columns of L: the lifts of the base, then of the extension; the map
    # of a candidate is B = L' adj(L) / det(L), L' the lifts of the images
    cols = [lift(v) for v in base] + ext
    d, adj = _det_adj([[c[i] for c in cols] for i in range(n + 1)])
    if not d:
        raise InternalCheckError("base and extension lifts are dependent")
    hull_q = [(u, lift(u)) for u in sorted(CQ.vertices)]
    hull_lifts_p = [lift(v) for v in CP.vertices]
    hull_lifts_q = {lu for _, lu in hull_q}
    lifts_p = _simplex_lifts(P)
    lifts_q = _simplex_lifts(Q)
    covered_by_p = _cover_test(P)
    covered_by_q = _cover_test(Q)

    # chain denominator sequences, compared run-encoded
    ref_dens = {(j, i): _den_runs(base[j], base[i])
                for i in range(e + 1) for j in range(i)}
    pair_dens = cache(_den_runs)

    def check_candidate(lifts):
        # images match the base's denominators, so B fixes the last
        # coordinate; B is in the group iff it is integral with det +-1
        imgs = lifts + g_ext
        b = mat_mul([[m[i] for m in imgs] for i in range(n)], adj)
        if any(x % d for r in b for x in r):
            return None
        try:
            phi = UniAffMap(tuple(tuple(x // d for x in r[:n]) for r in b),
                            tuple(r[n] // d for r in b))
        except InputError:
            return None
        if {phi.map_lift(q) for q in hull_lifts_p} != hull_lifts_q:
            return None
        # phi(P) = Q iff phi(P) lies in Q and phi^-1(Q) in P
        if not covered_by_q([tuple(map(phi.map_lift, s)) for s in lifts_p]):
            return None
        phi_inv = phi.inverse()
        if not covered_by_p([tuple(map(phi_inv.map_lift, s))
                             for s in lifts_q]):
            return None
        if any(phi.map_lift(c) != m for c, m in zip(cols, imgs)):
            raise InternalCheckError("candidate map failed re-application "
                                     "check")
        return phi

    def enum_images(chosen, lifts):
        if len(chosen) == e + 1:
            return check_candidate(lifts)
        i = len(chosen)
        for u, lu in hull_q:
            if u in chosen:
                continue
            if lu[-1] != cols[i][-1]:
                continue
            if integer_rank(lifts + [lu]) != i + 1:
                continue
            if any(pair_dens(chosen[j], u) != ref_dens[(j, i)]
                   for j in range(i)):
                continue
            res = enum_images(chosen + [u], lifts + [lu])
            if res is not None:
                return res
        return None

    return enum_images([], [])
