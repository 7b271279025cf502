"""Rational polyhedra: exact triangulation, point-set equality, and the
orbit decision procedure with witness map.

A polyhedron is a finite list of rational simplexes of arbitrary dimensions,
possibly overlapping.  One refiner serves triangulation and set equality:
it clips each simplex, cut by cut, into simplex cells along affine hulls of
faces and records on which side of each cut a cell lies.  Triangulation
cuts along the intersection-closed hulls of all faces and places each
arrangement cell.  Set equality accepts whole each simplex that lies in
one simplex of the other side, by an integer test of its vertices; it cuts
the rest along the other side's facet hulls only and tests each cell by
its barycenter.  The orbit decision enumerates the finite candidate set of
matched regular frames in the target hull and tests each candidate map by
set equality; for the right map every simplex is accepted whole.
"""

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from . import budget
from .affine import (AffineSpace, affine_equivalence, affine_invariant,
                     extend_frame)
from .complexes import Triangulation
from .cones import desingularize, fan_rays
from .convexity import (AffineHull, Polytope, affine_rank, clip_simplex,
                        placing_triangulation, simplex_barycentric,
                        simplex_tester)
from .core import (UniAffMap, den, is_regular, lattice_lifts_at, lift,
                   simplex, simplex_map, unlift)
from .errors import InputError, InternalCheckError
from .intlinalg import invert_unimodular, mat_mul, minor_gcd
from .rationals import canon_primitive
from .segments import _den_runs

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
    of the arrangement, s cut down to those closed halves."""
    out = []
    for s in P:
        hull = AffineHull(s)
        cells = {tuple(sorted(hull.coords(v) for v in s)): ()}
        for (g, h) in _cuts_for(hull, family):
            nxt = {}
            for cell, sides in cells.items():
                for side in (1, -1):
                    for piece in clip_simplex(cell, g, h, side):
                        nxt[piece] = sides + (side,)
            cells = nxt
        out.extend((hull, sides, cell) for cell, sides in sorted(cells.items()))
    return out


def poly_set_equal(P, Q):
    """Exact point-set equality of two polyhedra: each side lies in the
    union of the other's simplexes.

    A simplex of P whose vertices all lie in one simplex of Q lies in it
    (simplexes are convex), so it is accepted whole.  The rest of P is
    refined against the hulls of Q's simplexes and of their facets only:
    each cell then lies in one closed half of every cut, so for every
    simplex t of Q the relative interior of the cell is either inside t or
    disjoint from it, and the barycenter decides whether the cell lies in
    Q.  The same for Q against P."""
    P = polyhedron(P)
    Q = polyhedron(Q)
    if len(P[0][0]) != len(Q[0][0]):
        raise InputError("ambient dimensions differ")
    return _covered(P, Q) and _covered(Q, P)


def _covered(P, Q):
    """P lies in the union of Q's simplexes."""
    tests_q = [simplex_tester(s) for s in Q]
    rest = []
    for s in P:
        lifts = [lift(v) for v in s]
        if not any(all(map(t, lifts)) for t in tests_q):
            rest.append(s)
    if not rest:
        return True
    family = _face_hulls([Q], facets_only=True)
    for hull, _, cell in _refined_simplex_cells(rest, family):
        k = len(cell)
        bary = hull.embed(tuple(sum(c) / k for c in zip(*cell)))
        if not _covers(tests_q, lift(bary)):
            return False
    return True


def _covers(tests, q):
    """Some simplex tester accepts the lift q."""
    return any(t(q) for t in tests)


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
    verts = sorted(poly.vertices)
    base = [verts[0]]
    for v in verts[1:]:
        if affine_rank(base + [v]) > affine_rank(base):
            base.append(v)
        if len(base) == e + 1:
            break
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


def _min_den_regular_frame(poly, e, d_f):
    """Smallest-denominator regular e-frame inside the Polytope, searched in
    (denominator, coords)-lexicographic DFS order; round d adds the points
    of denominator d to those already found.  Only multiples d of d_f, the
    least denominator of the polytope's affine hull, have points there."""
    lifts = []
    d = 0
    while True:
        d += d_f
        budget.check(d, "regular frame search")
        lifts += lattice_lifts_at(poly, d)
        found = _frame_dfs([], lifts, e + 1)
        if found is not None:
            return tuple(unlift(q) for q in found)


def _frame_dfs(prefix, lifts, size):
    """The first size-tuple of the lifts, extending prefix, that is part of
    a lattice basis, in DFS order; None when there is none."""
    if len(prefix) == size:
        return list(prefix)
    if not lifts:
        return None
    m = len(lifts[0])
    for q in lifts:
        if q in prefix:
            continue
        if minor_gcd(prefix + [q], m) != 1:
            continue
        res = _frame_dfs(prefix + [q], lifts, size)
        if res is not None:
            return res
    return None


def polyhedron_equivalence(P, Q):
    """A unimodular affine map of P onto Q, or None.

    Implements the decision procedure: match the affine hulls, fix a regular
    frame of conv(P) extended to a regular simplex, then try every matched
    tuple of equal-denominator points of conv(Q) (a finite set) and test the
    induced map by exact set equality.
    """
    P = polyhedron(P)
    Q = polyhedron(Q)
    if len(P[0][0]) != len(Q[0][0]):
        raise InputError("ambient dimensions differ")
    FP = AffineSpace(poly_vertices(P))
    FQ = AffineSpace(poly_vertices(Q))
    gamma = affine_equivalence(FP, FQ)
    if gamma is None:
        return None
    e = FP.dim
    CP = Polytope(poly_vertices(P))
    CQ = Polytope(poly_vertices(Q))
    frame = _min_den_regular_frame(CP, e, affine_invariant(FP).d)
    _, ext = extend_frame(frame)
    V = frame + ext
    g_rest = tuple(gamma(p) for p in ext)
    hullP = set(CP.vertices)
    hullQ = sorted(CQ.vertices)
    tests_p = [simplex_tester(s) for s in P]
    tests_q = [simplex_tester(s) for s in Q]
    lifts_p = [lift(v) for v in poly_vertices(P)]
    lifts_q = [lift(w) for w in poly_vertices(Q)]
    hull_lifts_p = [lift(v) for v in hullP]
    hull_lifts_q = {lift(u) for u in hullQ}
    n = len(V[0])
    lv = [lift(v) for v in V]
    mv_inv = invert_unimodular([[lv[j][i] for j in range(n + 1)]
                                for i in range(n + 1)])
    last_row = tuple([0] * n + [1])

    def build_map(U):
        """phi with phi(V_i) = U_i, from the cached homogeneous inverse."""
        try:
            lu = [lift(u) for u in U]
        except InputError:
            return None
        mu = [[lu[j][i] for j in range(n + 1)] for i in range(n + 1)]
        b = mat_mul(mu, mv_inv)
        if b[n] != last_row:
            return None
        try:
            return UniAffMap(tuple(r[:n] for r in b[:n]),
                             tuple(r[n] for r in b[:n]))
        except InputError:
            return None

    # a valid map bijects hull vertices (it carries conv(P) onto conv(Q)),
    # so its restriction to aff(P) is pinned by the images of an affinely
    # independent vertex base; enumerate those images instead of raw tuples.
    base = [sorted(hullP)[0]]
    for v in sorted(hullP):
        if affine_rank(base + [v]) > affine_rank(base):
            base.append(v)
        if len(base) == e + 1:
            break
    bary = [simplex_barycentric(tuple(base), r) for r in frame]
    # chain denominator sequences, compared run-encoded
    ref_dens = {}
    for i in range(e + 1):
        for j in range(i):
            ref_dens[(j, i)] = _den_runs(base[j], base[i])
    pair_cache = {}

    def pair_dens(a, b):
        key = (a, b)
        if key not in pair_cache:
            pair_cache[key] = _den_runs(a, b)
        return pair_cache[key]

    def check_candidate(images):
        s = []
        for lam in bary:
            pt = tuple(sum(lam[t] * images[t][j] for t in range(e + 1))
                       for j in range(n))
            s.append(pt)
        for r, sv in zip(frame, s):
            if den(sv) != den(r):
                return None
        phi = build_map(tuple(s) + g_rest)
        if phi is None:
            return None
        if {phi.map_lift(q) for q in hull_lifts_p} != hull_lifts_q:
            return None
        phi_inv = phi.inverse()
        if not all(_covers(tests_q, phi.map_lift(q)) for q in lifts_p):
            return None
        if not all(_covers(tests_p, phi_inv.map_lift(q)) for q in lifts_q):
            return None
        imP = [tuple(phi(v) for v in sx) for sx in P]
        if not poly_set_equal(imP, Q):
            return None
        if simplex_map(V, tuple(s) + g_rest) != phi:
            raise InternalCheckError("fast map construction diverged")
        return phi

    def enum_images(chosen):
        if len(chosen) == e + 1:
            return check_candidate(chosen)
        i = len(chosen)
        for u in hullQ:
            if u in chosen:
                continue
            if den(u) != den(base[i]):
                continue
            if affine_rank(chosen + [u]) != i:
                continue
            if any(pair_dens(chosen[j], u) != ref_dens[(j, i)]
                   for j in range(i)):
                continue
            res = enum_images(chosen + [u])
            if res is not None:
                return res
        return None

    return enum_images([])
