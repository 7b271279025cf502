"""Finite simplicial complexes with rational vertices, and Farey blow-ups.

The face-to-face check meets the flats of two simplexes (convexity._meet)
and reads a point and a direction basis of the meet off one nullspace of
its rows."""

from fractions import Fraction
from itertools import combinations
from operator import mul

from .convexity import _barycentric_solver, _flat, _meet, simplex_tester
from .core import farey_mediant, simplex
from .errors import InputError
from .intlinalg import nullspace, span_solver
from .rationals import lift, vadd


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
        cells = [(m, _flat([lift(v) for v in m]), _barycentric_solver(m))
                 for m in self.maximal]
        return all(_meet_in_common_face(a, b) for a, b in combinations(cells, 2))

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.maximal == other.maximal

    def __hash__(self):
        return hash(self.maximal)

    def __repr__(self):
        return "Triangulation(%d maximal simplexes)" % len(self.maximal)


def _meet_in_common_face(a, b):
    """True iff conv(a) /\\ conv(b) equals conv of the shared vertices; a and
    b are (vertices, flat, barycentric solver) triples."""
    (va, fa, bary_a), (vb, fb, bary_b) = a, b
    common = sorted(set(va) & set(vb))
    n = len(va[0])
    meet = _meet(fa, fb, n)
    if meet is None:
        return not common
    # the intersection is x = anchor + dirs . mu: k is a free column of its
    # rows, so the last nullspace vector lifts a point and the others, with
    # k = 0, are directions.  Every barycentric coordinate of either simplex
    # is >= 0; on the intersection they are affine in mu, read off at the
    # anchor and at the points anchor + dirs_j
    *dirs, q = nullspace(meet, n + 1)
    anchor = tuple(Fraction(x, q[-1]) for x in q[:-1])
    dirs = [d[:-1] for d in dirs]
    base = [anchor] + [vadd(anchor, d) for d in dirs]
    cons = []
    for bary in (bary_a, bary_b):
        lam0, *lams = [bary(p) for p in base]
        for i, h in enumerate(lam0):
            cons.append((tuple(lam[i] - h for lam in lams), h))  # g.mu + h >= 0
    pts = [vadd(anchor, tuple(sum(m * d[j] for m, d in zip(mu, dirs))
                              for j in range(n)))
           for mu in _vertex_enumeration(cons, len(dirs))]
    if not pts:
        return not common
    if not common:
        return False
    inside = simplex_tester([lift(v) for v in common])
    return all(inside(lift(p)) for p in pts)


def _vertex_enumeration(cons, d):
    """Vertices of {mu in R^d : g.mu + h >= 0 for (g,h) in cons} (bounded):
    each nonsingular d-subset of the constraints, scaled to integers, is
    solved at equality by one span_solver over its columns."""
    if d == 0:
        return [()] if all(h >= 0 for (_, h) in cons) else []
    # (g, h) times the lcm of its denominators
    rows = [lift(tuple(g) + (h,))[:-1] for g, h in cons]
    verts = set()
    for sub in combinations(rows, d):
        try:
            solve = span_solver(list(zip(*sub))[:-1])
        except InputError:
            continue
        y, k = solve([-r[-1] for r in sub])
        mu = tuple(Fraction(t, k) for t in y)
        if all(sum(map(mul, r, mu + (1,))) >= 0 for r in rows):
            verts.add(mu)
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
