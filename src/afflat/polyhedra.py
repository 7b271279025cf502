"""Rational polyhedra: exact triangulation, point-set equality, and the
orbit decision procedure with witness map.

A polyhedron is a finite list of rational simplexes of arbitrary dimensions,
possibly overlapping.  One refiner serves triangulation and set equality:
it clips each simplex, cut by cut, into simplex cells along affine hulls of
faces and records on which side of each cut a cell lies, all on vertex
lifts in ambient coordinates.  The hulls are flats, sorted canonical
integer rows over lifts (convexity._flat): a face's flat, the meet of two
flats (convexity._meet), the key of a span's cut set and the cuts
themselves are all such rows, so the arrangement builds no Fraction.
Triangulation cuts along the intersection-closed flats of all faces and
places each arrangement cell.  One cover test per side (_cover_test)
decides whether the other side lies in its union, by integer tests of
vertex lifts: it rejects a vertex outside it, accepts whole a simplex
inside one of its simplexes, rejects a simplex whose barycenter is outside
it, and cuts the rest along its facet flats only, testing each cell by its
barycenter; both barycenter tests are one integer probe on the lifts.  The
normalization (polyhedron) lifts each vertex once and returns the set of
distinct vertex lifts and each simplex's lifts with the simplexes.  The
orbit decision reads the hull vertices off those lifts, and tries the
images of an affinely independent base of them among the target's hull
vertices; each map is built once, in integers, from the adjugate of the
base's lifts.  A map that carries the source's simplexes onto the
target's, compared as sets of sorted lift tuples, is accepted with no
cover test; any other map passes when both cover tests accept it, the
target's first and the inverse map's only after that.  A decision holds
one cover test per side, and each builds its testers on its first call.
"""

from functools import reduce
from itertools import combinations
from math import lcm
from operator import and_, mul
from typing import NamedTuple

from .affine import AffineSpace, affine_equivalence, c_invariant
from .complexes import Triangulation
from .cones import _plane_runs, desingularize, fan_rays
from .convexity import (Polytope, _clip, _flat, _meet, affine_frame,
                        hull_vertices, lift_frame, placing_triangulation,
                        simplex_tester)
from .core import UniAffMap, lift, simplex_lifts, unlift
from .errors import InputError, InternalCheckError
from .intlinalg import _det_adj, integer_rank, is_part_of_basis, mat_mul
from .rationals import canon_primitive
from .segments import _runs_lambda1

__all__ = [
    "polyhedron", "convex_hull", "Hull", "desingularize", "fan_rays",
    "triangulate", "poly_set_equal", "regular_simplex_in",
    "polyhedron_equivalence",
]


def polyhedron(simplexes):
    """Normalize a polyhedron: nonempty list of simplexes, common ambient.
    Returns (simplexes, vertices, lifts): the simplexes as tuples of points,
    the set of distinct vertex lifts and the vertex lifts of each simplex,
    each vertex lifted once, by its simplex's normalization."""
    simps, verts, lifts = [], set(), []
    for s in simplexes:
        pts, ls = simplex_lifts(s)
        simps.append(pts)
        verts.update(ls)
        lifts.append(ls)
    if not simps:
        raise InputError("polyhedron needs at least one simplex")
    n = len(simps[0][0])
    if any(len(s[0]) != n for s in simps):
        raise InputError("mixed ambient dimensions")
    return simps, verts, lifts


class Hull(NamedTuple):
    vertices: tuple
    equations: tuple  # (a, c): a.x = c on the hull
    facets: tuple     # (a, c): a.x <= c within the hull


def convex_hull(points):
    """Exact V- and H-representations of the convex hull (within its own
    affine hull)."""
    poly = Polytope(points)
    eqs = tuple(poly.equations())
    facets = sorted((tuple(t * c.denominator for t in a), c.numerator)
                    for a, c in poly.ambient_facets())
    return Hull(tuple(sorted(poly.vertices)), eqs, tuple(facets))


def _face_hulls(lifts, facets_only=False):
    """The flats (convexity._flat) of the faces of every simplex, given by
    its vertex lifts, as a set.

    facets_only keeps each simplex's own flat and its codimension-one face
    flats; that is enough for membership-uniform refinement, since every
    boundary point of a simplex lies on a facet hull.
    """
    flats = set()
    for s in lifts:
        if facets_only:
            sizes = {len(s), len(s) - 1} - {0}
        else:
            sizes = range(1, len(s) + 1)
        for r in sizes:
            flats.update(map(_flat, combinations(s, r)))
    return flats


def _close_under_intersection(flats, n):
    """Close a set of flats of R^n under pairwise intersection (_meet)."""
    family = set(flats)
    frontier = list(family)
    while frontier:
        new = []
        items = list(family)
        for f in frontier:
            for g in items:
                m = _meet(f, g, n)
                if m is not None and m not in family:
                    family.add(m)
                    new.append(m)
        frontier = new
    return family


def _cuts_for(f, family, n):
    """The rows of the proper intersections of the flat f of R^n with the
    family's flats: the hyperplanes along which cells of f must split so
    that every family flat meets cells only in faces."""
    cuts = set()
    for g in family:
        m = _meet(f, g, n)
        if m is not None and len(m) > len(f):
            cuts.update(m)
    return cuts


def _span_cuts(family_of):
    """cuts_of(s) -> _cuts_for(_flat(s), family_of(), n) for a simplex s of
    R^n given by its vertex lifts, kept per flat of the lifts; family_of
    runs once, on the first miss."""
    family, cuts = [], {}

    def cuts_of(s):
        key = _flat(s)
        if key not in cuts:
            if not family:
                family.append(family_of())
            cuts[key] = _cuts_for(key, family[0], len(s[0]) - 1)
        return cuts[key]

    return cuts_of


def _refined_simplex_cells(S, cuts_of):
    """Per simplex s of S, given by its vertex lifts: simplex cells covering
    s, each inside one closed side of every cut of s's hull, cuts_of(s)
    giving the cuts as rows over lifts.  A cut is kept when its values on
    s's lifts take both strict signs, as only such a cut splits a cell of
    s, and is keyed by those values made canonical: they fix its trace on
    aff(s).  Returns (i, sides, cell) triples, i the index of s, sides
    holding +1 or -1 per kept cut and cell a tuple of lifts; the cells of
    one s with equal sides tile one convex cell of the arrangement, s cut
    down to those closed halves.  Each cell's values on a cut's row are
    computed once for both sides."""
    out = []
    for i, s in enumerate(S):
        cuts = {}
        for row in cuts_of(s):
            vals = [sum(map(mul, row, q)) for q in s]
            if min(vals) < 0 < max(vals):
                cuts.setdefault(canon_primitive(vals), row)
        cells = {tuple(sorted(s)): ()}
        for _, row in sorted(cuts.items()):
            nxt = {}
            for cell, sides in cells.items():
                vals = [sum(map(mul, row, q)) for q in cell]
                for side in (1, -1):
                    for piece in _clip(cell, [side * v for v in vals]):
                        nxt[piece] = sides + (side,)
            cells = nxt
        out.extend((i, sides, cell) for cell, sides in sorted(cells.items()))
    return out


def poly_set_equal(P, Q):
    """Exact point-set equality of two polyhedra: each side lies in the
    union of the other's simplexes, by one _cover_test per side."""
    P, _, lp = polyhedron(P)
    Q, _, lq = polyhedron(Q)
    if len(P[0][0]) != len(Q[0][0]):
        raise InputError("ambient dimensions differ")
    return _cover_test(lq)(lp) and _cover_test(lp)(lq)


def _cover_test(lifts):
    """covered(S) -> whether the simplexes S, given by their vertex lifts,
    lie in the union of the simplexes Q whose vertex lifts are lifts.  Q's
    testers are built on the first call, its facet-flat family and the cuts
    of each span on first need (_span_cuts); all live as long as covered
    does, so a decision that never calls covered builds none of them.

    covered answers False at once when a vertex lies in no simplex of Q.
    A simplex whose vertices all lie in one simplex of Q lies in it
    (simplexes are convex), so it is accepted whole.  For the rest, a
    barycenter in no simplex of Q answers False; else they are refined
    against the hulls of Q's simplexes and of their facets only: each cell
    then lies in one closed half of every cut, so for every simplex t of Q
    the relative interior of the cell is either inside t or disjoint from
    it, and the barycenter decides whether the cell lies in Q."""
    tests = []
    cuts_of = _span_cuts(lambda: _face_hulls(lifts, facets_only=True))

    def inside(s):
        # whether the barycenter of s, lifted up to the positive factor
        # len(s), lies in a simplex of Q
        k = lcm(*(q[-1] for q in s))
        b = [sum(k // q[-1] * q[i] for q in s) for i in range(len(s[0]))]
        return any(t(b) for t in tests)

    def covered(S):
        if not tests:
            tests.extend(map(simplex_tester, lifts))
        masks = {}
        for s in S:
            for q in s:
                if q not in masks:
                    masks[q] = sum(1 << i for i, t in enumerate(tests)
                                   if t(q))
                    if not masks[q]:
                        return False
        rest = [s for s in S if not reduce(and_, (masks[q] for q in s))]
        if not rest:
            return True
        if not all(map(inside, rest)):
            return False
        cells = _refined_simplex_cells(rest, cuts_of)
        return all(inside(cell) for _, _, cell in cells)

    return covered


def triangulate(P):
    """A simplicial complex with rational vertices whose support equals P.

    Cuts every simplex along the (intersection-closed) affine hulls of all
    faces of all simplexes, then triangulates each arrangement cell by
    placing from the lexicographically least vertex.  The cells come from
    the clip refinement: the pieces of one input simplex on the same sides
    of every cut span one cell.  Simplexes with one span share their cuts
    (_span_cuts).
    """
    P, _, lifts = polyhedron(P)
    groups = {}
    n = len(P[0][0])
    for i, sides, cell in _refined_simplex_cells(lifts, _span_cuts(
            lambda: _close_under_intersection(_face_hulls(lifts), n))):
        groups.setdefault((i, sides), set()).update(cell)
    tris = set()
    for pts in groups.values():
        for t in placing_triangulation(list(map(unlift, pts))):
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
    out, lifts = simplex_lifts(sorted(unlift(g) for g in cell))
    if not is_part_of_basis(lifts, len(lifts[0])):
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
    passes when it carries P's simplexes onto Q's (so phi(P) = Q as a
    union, and no cover test runs), or else when phi(P) lies in Q and
    phi^-1(Q) in P.  With L the matrix of the base's lifts, the map of a
    candidate is L' adj(L) / det(L), L' the lifts of the images, kept when
    it is integral with det +-1.  When the hulls are flat, L is completed
    to a square matrix by the lifts of the extension of aff(P)'s witness
    simplex, sent where the spans' witness map sends them.  Hulls of
    different dimensions or vertex counts answer None at once, and so do
    hull segments of different lambda_1 (read off the chain's runs).  Each
    side's vertices are lifted once, by the normalization; the hull scan
    and the frame read the distinct lifts, and the simplex match and the
    cover tests each simplex's lifts.
    """
    P, verts_p, lifts_p = polyhedron(P)
    Q, verts_q, lifts_q = polyhedron(Q)
    n = len(P[0][0])
    if len(Q[0][0]) != n:
        raise InputError("ambient dimensions differ")
    e, hull_p = hull_vertices(verts_p)
    e_q, hull_q = hull_vertices(verts_q)
    if e_q != e or len(hull_q) != len(hull_p):
        return None
    if e == 1 and (_runs_lambda1(_plane_runs(*hull_p))
                   != _runs_lambda1(_plane_runs(*hull_q))):
        return None
    if e == n:
        ext, g_ext = [], []
    else:
        FP = AffineSpace(map(unlift, verts_p))
        gamma = affine_equivalence(FP, AffineSpace(map(unlift, verts_q)))
        if gamma is None:
            return None
        ext = [lift(p) for p in c_invariant(FP)[1][e + 1:]]
        g_ext = [gamma.map_lift(q) for q in ext]
    # columns of L: the lifts of the base, then of the extension; the map
    # of a candidate is B = L' adj(L) / det(L), L' the lifts of the images
    cols = [hull_p[i] for i in lift_frame(hull_p)] + ext
    d, adj = _det_adj([[c[i] for c in cols] for i in range(n + 1)])
    if not d:
        raise InternalCheckError("base and extension lifts are dependent")
    hull_set_q = set(hull_q)
    simps_q = {tuple(sorted(s)) for s in lifts_q}
    covered_by_p = _cover_test(lifts_p)
    covered_by_q = _cover_test(lifts_q)

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
        # phi is injective and the hulls have equally many vertices
        if not all(phi.map_lift(q) in hull_set_q for q in hull_p):
            return None
        # phi(P) = Q when phi carries P's simplexes onto Q's; else iff
        # phi(P) lies in Q and phi^-1(Q) in P
        mapped = [tuple(map(phi.map_lift, s)) for s in lifts_p]
        if {tuple(sorted(s)) for s in mapped} != simps_q:
            if not covered_by_q(mapped):
                return None
            phi_inv = phi.inverse()
            if not covered_by_p([tuple(map(phi_inv.map_lift, s))
                                 for s in lifts_q]):
                return None
        if any(phi.map_lift(c) != m for c, m in zip(cols, imgs)):
            raise InternalCheckError("candidate map failed re-application "
                                     "check")
        return phi

    def enum_images(lifts):
        if len(lifts) == e + 1:
            return check_candidate(lifts)
        i = len(lifts)
        for lu in hull_q:
            if lu in lifts:
                continue
            if lu[-1] != cols[i][-1]:
                continue
            if integer_rank(lifts + [lu]) != i + 1:
                continue
            res = enum_images(lifts + [lu])
            if res is not None:
                return res
        return None

    return enum_images([])
