"""Finite simplicial complexes with rational vertices, and Farey blow-ups."""

from itertools import combinations

from .convexity import AffineHull, _simplex_rows, simplex_contains
from .core import farey_mediant, simplex
from .errors import InputError
from .intlinalg import rational_rank, rational_solve
from .rationals import vdot


class Triangulation:
    """A simplicial complex, stored by its maximal simplexes.

    Faces are implicit (every vertex subset of a simplex spans a face).
    """

    def __init__(self, simplexes):
        cells = sorted({tuple(sorted(simplex(s))) for s in simplexes})
        if not cells:
            raise InputError("empty triangulation")
        maximal = []
        for c in cells:
            cs = set(c)
            if not any(cs < set(d) for d in cells if d != c):
                maximal.append(c)
        self.maximal = tuple(sorted(maximal))

    def simplexes(self):
        """All simplexes of the complex (faces included)."""
        out = set()
        for m in self.maximal:
            for r in range(1, len(m) + 1):
                out.update(combinations(m, r))
        return sorted(out)

    def vertices(self):
        out = set()
        for m in self.maximal:
            out.update(m)
        return sorted(out)

    def support(self):
        """The underlying polyhedron (list of maximal simplexes)."""
        return [tuple(m) for m in self.maximal]

    def has_simplex(self, s):
        verts = set(simplex(s))
        return any(verts <= set(m) for m in self.maximal)

    def is_valid_complex(self):
        """Exact check that any two simplexes meet in a common face."""
        for a, b in combinations(self.maximal, 2):
            if not _meet_in_common_face(a, b):
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.maximal == other.maximal

    def __hash__(self):
        return hash(self.maximal)

    def __repr__(self):
        return "Triangulation(%d maximal simplexes)" % len(self.maximal)


def _meet_in_common_face(a, b):
    """True iff conv(a) /\\ conv(b) equals conv of the shared vertices."""
    common = sorted(set(a) & set(b))
    ha, hb = AffineHull(a), AffineHull(b)
    inter = ha.intersect(hb)
    if inter is None:
        return not common
    d = inter.dim
    # -r.(x, 1) >= 0 for every inequality row r of either simplex (positive
    # multiples of barycentric coordinates), in x = anchor + basis . mu
    cons = []
    for r in _simplex_rows(a)[1] + _simplex_rows(b)[1]:
        w = r[:-1]
        g = tuple(-vdot(w, bvec) for bvec in inter.basis)
        h = -vdot(w, inter.anchor) - r[-1]
        cons.append((g, h))  # g.mu + h >= 0
    verts = _vertex_enumeration(cons, d)
    pts = [inter.embed(v) for v in verts]
    if not pts:
        return not common
    if not common:
        return False
    return all(simplex_contains(tuple(common), p) for p in pts)


def _vertex_enumeration(cons, d):
    """Vertices of {mu in R^d : g.mu + h >= 0 for (g,h) in cons} (bounded)."""
    if d == 0:
        return [()] if all(h >= 0 for (_, h) in cons) else []
    verts = set()
    for sub in combinations(range(len(cons)), d):
        rows = [list(cons[i][0]) for i in sub]
        rhs = [-cons[i][1] for i in sub]
        if rational_rank(rows) != d:
            continue
        mu = rational_solve(rows, rhs)
        if mu is None:
            continue
        if all(sum(g[j] * mu[j] for j in range(d)) + h >= 0 for (g, h) in cons):
            verts.add(tuple(mu))
    return sorted(verts)


def blow_up(tri, s):
    """Blow-up of a regular triangulation at the Farey mediant of a member
    simplex: every simplex containing the mediant is replaced by its joins
    with it.  Keeps regularity and the support."""
    s = tuple(sorted(simplex(s)))
    if not tri.has_simplex(s):
        raise InputError("simplex is not a member of the triangulation")
    c = farey_mediant(s)
    sverts = set(s)
    new = []
    for m in tri.maximal:
        if sverts <= set(m):
            for v in s:
                new.append(tuple(sorted((set(m) - {v}) | {c})))
        else:
            new.append(m)
    return Triangulation(new)
