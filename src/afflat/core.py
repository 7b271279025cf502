"""Homogeneous lifts, Farey regularity, and integer-affine maps.

A rational point x in Q^n lifts to the primitive integer vector
(den(x)*x, den(x)) in Z^{n+1}; a simplex is regular when its vertex lifts
extend to a basis of Z^{n+1}.  All other modules build on these notions.
A simplex's normalization (simplex_lifts) lifts each vertex once, checks
affine independence as the rank of the lifts, and returns the lifts with
the points, so the regularity test, the Farey mediant and the simplex map
read them.  Dual rows u with u.p = 1 (dual_vector, one xgcd chain each)
give plane lattices in closed form (plane_basis, angles); other spans are
saturated by column echelon forms.
"""

from fractions import Fraction
from operator import mul

from .errors import InputError, InternalCheckError
from .intlinalg import (complete_basis, det_int, integer_kernel, integer_rank,
                        invert_unimodular, is_part_of_basis, mat_mul, mat_vec,
                        span_solver, xgcd)
from .rationals import content, den, intvec, lift, lift_point, point, vadd

# the public names, lift and den among them: the package imports its lifts
# from here
__all__ = [
    "unlift", "lift", "den", "extends_to_basis", "simplex_lifts", "simplex",
    "is_regular", "farey_mediant", "complete_to_lattice_basis", "UniAffMap",
    "apply", "simplex_map", "dual_vector", "plane_basis",
    "saturated_span_basis", "lattice_coords", "coords_in_lattice_basis",
]


def unlift(q):
    """Affine correspondent of a primitive integer vector with positive last
    entry; inverse of lift."""
    v = intvec(q)
    if len(v) < 2:
        raise InputError("homogeneous vectors need at least two entries")
    if v[-1] <= 0:
        raise InputError("last entry must be positive: %s" % (v,))
    if content(v) != 1:
        raise InputError("vector is not primitive: %s" % (v,))
    d = v[-1]
    return tuple(Fraction(a, d) for a in v[:-1])


def extends_to_basis(vectors):
    """True iff the integer vectors extend to a basis of Z^m.

    Decided via the gcd of all maximal minors; linear dependence raises.
    """
    vecs = [intvec(v) for v in vectors]
    if not vecs:
        return True
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise InputError("mixed vector lengths")
    return is_part_of_basis(vecs, m)


def simplex_lifts(vertices):
    """(points, lifts): a vertex sequence normalized to a tuple of points,
    and the tuple of their lifts, each vertex normalized once and its point
    lifted.  The points are affinely independent iff their lifts are
    linearly independent, which is checked."""
    verts = tuple(point(v) for v in vertices)
    if not verts:
        raise InputError("a simplex needs at least one vertex")
    n = len(verts[0])
    if any(len(v) != n for v in verts):
        raise InputError("mixed ambient dimensions")
    lifts = tuple(lift_point(v) for v in verts)
    if integer_rank(lifts) != len(lifts):
        raise InputError("vertices are not affinely independent")
    return verts, lifts


def simplex(vertices):
    """Normalize a vertex sequence to a tuple of points, checking affine
    independence."""
    return simplex_lifts(vertices)[0]


def is_regular(s):
    """True iff the vertex lifts of the simplex extend to a basis of Z^{n+1}."""
    lifts = simplex_lifts(s)[1]
    return is_part_of_basis(lifts, len(lifts[0]))


def farey_mediant(s):
    """Affine correspondent of the sum of the vertex lifts of a regular simplex."""
    lifts = simplex_lifts(s)[1]
    if not is_part_of_basis(lifts, len(lifts[0])):
        raise InputError("Farey mediant needs a regular simplex")
    total = lifts[0]
    for l in lifts[1:]:
        total = vadd(total, l)
    return unlift(total)


def complete_to_lattice_basis(vectors):
    """Complete part of a basis of Z^m to a full basis of Z^m; the input
    vectors come first in the result."""
    vecs = [intvec(v) for v in vectors]
    if not vecs:
        raise InputError("nothing to complete")
    return complete_basis(vecs, len(vecs[0]))


class UniAffMap:
    """Element x -> A x + t of GL(n,Z) |x Z^n; validated at construction."""

    def __init__(self, matrix, translation):
        self.matrix = tuple(intvec(r) for r in matrix)
        self.translation = intvec(translation)
        n = len(self.translation)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("matrix/translation shapes disagree")
        if det_int(self.matrix) not in (1, -1):
            raise InputError("matrix determinant must be +-1")

    @property
    def dim(self):
        return len(self.translation)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)), (0,) * n)

    def __call__(self, x):
        p = point(x)
        if len(p) != self.dim:
            raise InputError("dimension mismatch")
        return tuple(sum(r[j] * p[j] for j in range(self.dim)) + t
                     for r, t in zip(self.matrix, self.translation))

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        if self.dim != other.dim:
            raise InputError("dimension mismatch")
        m = mat_mul(self.matrix, other.matrix)
        t = vadd(mat_vec(self.matrix, other.translation), self.translation)
        return UniAffMap(m, t)

    def inverse(self):
        inv = invert_unimodular(self.matrix)
        t = tuple(-a for a in mat_vec(inv, self.translation))
        return UniAffMap(inv, t)

    def map_lift(self, q):
        """Image (A num + t k, k) of a homogeneous lift q = (num, k); it is
        the lift of the image point, primitive when q is."""
        k = q[-1]
        return tuple(sum(map(mul, r, q)) + t * k
                     for r, t in zip(self.matrix, self.translation)) + (k,)

    def map_direction(self, v):
        """Image of a direction vector (no translation)."""
        return mat_vec(self.matrix, v)

    def __eq__(self, other):
        return (isinstance(other, UniAffMap)
                and self.matrix == other.matrix
                and self.translation == other.translation)

    def __hash__(self):
        return hash((self.matrix, self.translation))

    def __repr__(self):
        return "UniAffMap(%r, %r)" % (self.matrix, self.translation)


def apply(g, obj):
    """Apply a UniAffMap to a point, a simplex (tuple of points), or a
    polyhedron (list of simplexes); dispatch is structural."""
    if isinstance(obj, tuple) and obj and isinstance(obj[0], (Fraction, int)):
        return g(obj)
    if isinstance(obj, (tuple, list)) and obj and isinstance(obj[0], tuple) \
            and obj[0] and isinstance(obj[0][0], (Fraction, int)):
        mapped = tuple(g(v) for v in obj)
        return mapped if isinstance(obj, tuple) else list(mapped)
    if isinstance(obj, (tuple, list)):
        return [apply(g, s) for s in obj]
    raise InputError("cannot apply a map to %r" % (obj,))


def simplex_map(V, W):
    """The unique g in GL(n,Z) |x Z^n with g(v_i) = w_i for matched regular
    n-simplexes V, W whose vertex denominators are pairwise equal.  g is
    checked to carry each vertex lift of V onto that of W (map_lift): two
    primitive lifts are equal exactly when their points are."""
    vs, lv = simplex_lifts(V)
    ws, lw = simplex_lifts(W)
    n = len(vs[0])
    if len(vs) != n + 1 or len(ws) != n + 1 or len(ws[0]) != n:
        raise InputError("need two (n+1)-tuples of points of R^n")
    for v, w in zip(vs, ws):
        if den(v) != den(w):
            raise InputError("vertex denominators are not pairwise equal")
    if not is_part_of_basis(lv, n + 1):
        raise InputError("first simplex is not regular")
    if not is_part_of_basis(lw, n + 1):
        raise InputError("second simplex is not regular")
    # columns of M_V are the lifts; B = M_W M_V^-1 is integer unimodular and
    # fixes the last coordinate row, so it encodes A and t directly.
    mv = tuple(tuple(lv[j][i] for j in range(n + 1)) for i in range(n + 1))
    mw = tuple(tuple(lw[j][i] for j in range(n + 1)) for i in range(n + 1))
    b = mat_mul(mw, invert_unimodular(mv))
    if b[n] != tuple([0] * n + [1]):
        raise InternalCheckError("homogeneous map does not fix the hyperplane at infinity")
    g = UniAffMap(tuple(r[:n] for r in b[:n]), tuple(r[n] for r in b[:n]))
    for v, w in zip(lv, lw):
        if g.map_lift(v) != w:
            raise InternalCheckError("simplex map failed re-application check")
    return g


def dual_vector(p):
    """An integer u with u.p = 1 for a primitive integer p, from an xgcd
    chain over p's entries."""
    u, c = [], 0
    for x in p:
        c, s, t = xgcd(c, x)
        u = [s * y for y in u]
        u.append(t)
    if c != 1:
        raise InternalCheckError("dual vector of a non-primitive vector")
    return u


def plane_basis(p, q):
    """(b, a, g): (p, b) is a basis of the saturated lattice of the plane
    of p and q, with q = a p + g b and g > 0, for a primitive integer p
    and an integer q off p's line.

    With u = dual_vector(p), x -> x - (u.x) p maps the plane's lattice
    onto its points with u.x = 0, the lattice of a line, so with b a
    generator of that line's lattice, p and b are a basis.  q - a p,
    a = u.q, lies on the line: it is g b, g its content.
    """
    u = dual_vector(p)
    a = sum(map(mul, u, q))
    r = [y - a * x for x, y in zip(p, q)]
    g = content(r)
    if g == 0:
        raise InternalCheckError("plane basis of vectors on one line")
    return tuple(y // g for y in r), a, g


def saturated_span_basis(vectors):
    """Basis of span_Q(vectors) /\\ Z^m (the saturation of the span)."""
    vecs = [intvec(v) for v in vectors]
    if not vecs:
        raise InputError("empty span")
    m = len(vecs[0])
    ann = integer_kernel(vecs, cols=m)
    return integer_kernel(ann, cols=m)


def lattice_coords(basis):
    """coords(v) -> the integer coordinates of v in the given lattice basis
    (exact), from one span_solver built here for every query.  coords
    raises InputError when v is off the span or off the lattice."""
    solve = span_solver(basis)

    def coords(v):
        sol = solve(v)
        if sol is None:
            raise InputError("vector outside the lattice span")
        y, d = sol
        if any(c % d for c in y):
            raise InputError("vector not in the lattice generated by the basis")
        return tuple(c // d for c in y)

    return coords


def coords_in_lattice_basis(basis, v):
    """Integer coordinates of v in the given lattice basis (exact)."""
    return lattice_coords(basis)(v)
