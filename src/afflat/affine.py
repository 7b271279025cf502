"""Rational affine spaces and their complete orbit invariant (dim, d, c).

d is the least denominator of a rational point of the space; c the least
denominator of an apex completing a regular frame of the space to a regular
simplex one dimension up (1 except possibly in codimension one).  Equality of
the triple decides orbit equivalence, and matched witness simplexes produce
the witness map.
"""

import math
from fractions import Fraction
from itertools import product
from operator import mul
from typing import NamedTuple

from . import budget
from .convexity import _equations, _flat, _lift_in, _point_lifts, lift_frame
from .core import (coords_in_lattice_basis, den, dual_vector, lift,
                   saturated_span_basis, simplex_lifts, simplex_map, unlift)
from .errors import InputError, InternalCheckError
from .intlinalg import (complete_basis, det_int, integer_kernel,
                        is_part_of_basis, minor_gcd, solve_integer, xgcd)
from .rationals import content, point, primitive, vsub


class AffineInvariant(NamedTuple):
    dim: int
    d: int
    c: int


class AffineSpace:
    """Affine span of rational points, given by the lifts of its frame.

    Each point is lifted once, and the lifts of the lift_frame points are
    kept: their flat gives the integer equations, so x lies in the space
    iff no row of the flat is nonzero on lift(x), and the primitive frame
    differences span the direction lattice, of which dirs is a saturated
    integer basis."""

    def __init__(self, points):
        pts, lifts = _point_lifts(points,
                                  "affine space needs at least one point")
        frame = lift_frame(lifts)
        self.points = pts
        self.n = len(pts[0])
        self.dim = len(frame) - 1
        self.anchor = pts[frame[0]]
        self._frame = [lifts[i] for i in frame]
        self._flat = _flat(self._frame)
        # integer rows (a, c) with the space equal to {x : a.x = c}
        self.equations = _equations(self._flat)
        dirs = [primitive(vsub(pts[i], self.anchor)) for i in frame[1:]]
        self.dirs = list(saturated_span_basis(dirs)) if dirs else []

    def contains(self, x):
        q = _lift_in(x, self.n)
        return not any(sum(map(mul, r, q)) for r in self._flat)

    def __repr__(self):
        return "AffineSpace(dim=%d, n=%d)" % (self.dim, self.n)


def affine_span(points):
    return AffineSpace(points)


def _size_reduce(F, p):
    """Shift p by integer direction-lattice vectors of F to shrink its
    coordinates (denominator is unchanged, membership preserved)."""
    for _ in range(4):
        moved = False
        for b in F.dirs:
            bb = sum(t * t for t in b)
            m = round(Fraction(sum(pc * bc for pc, bc in zip(p, b)), bb))
            if m:
                p = tuple(pc - m * bc for pc, bc in zip(p, b))
                moved = True
        if not moved:
            break
    return p


def min_den_point(F):
    """A point of F of least denominator d_F.

    A point of F whose denominator divides k lifts to a vector of the
    saturated lattice span(lifts of F's points) /\\ Z^{n+1} with last
    coordinate k, so d_F is the gcd of the last coordinates of a basis of
    that lattice, saturated here from F's frame lifts, which span what all
    the lifts span.  One integer solve of the system d_F x in Z^n, a.x = c
    gives the point, which is size-reduced along the direction lattice to
    keep its coordinates small.  No search runs, so nothing is charged to
    the search budget.
    """
    if not F.equations:
        return tuple(Fraction(0) for _ in range(F.n))
    k = 0
    for b in saturated_span_basis(F._frame):
        k = math.gcd(k, b[-1])
    rhs = [k * c for _, c in F.equations]
    if any(t.denominator != 1 for t in rhs):
        raise InternalCheckError("least denominator misses the equations")
    y = solve_integer([list(a) for a, _ in F.equations],
                      [t.numerator for t in rhs])
    if y is None:
        raise InternalCheckError("no point at the least denominator")
    p = _size_reduce(F, tuple(Fraction(t, k) for t in y))
    if not F.contains(p):
        raise InternalCheckError("solver left the space")
    return p


def regular_frame(F, v0):
    """A regular dim(F)-simplex inside F with v0 as a vertex and every
    vertex denominator equal to den(v0) = d_F.

    Complete lift(v0) to a basis of the saturated homogeneous lattice of F,
    spanned by lift(v0) and F's directions as v0 lies in F, whose last
    coordinates have gcd d_F (as in min_den_point); every basis vector
    shifted by multiples of lift(v0) into last coordinate (0, d] lands
    exactly at d, and the shifted basis stays part of a basis of Z^{n+1},
    so its affine correspondents are the frame.
    """
    v0 = point(v0)
    if not F.contains(v0):
        raise InputError("v0 does not lie in the space")
    e = F.dim
    if e == 0:
        return (v0,)
    d = den(v0)
    l0 = lift(v0)
    dir0 = [tuple(b) + (0,) for b in F.dirs]
    lam = saturated_span_basis([l0] + dir0)
    if math.gcd(*(b[-1] for b in lam)) != d:
        raise InputError("v0 does not have the minimal denominator of the space")
    c0 = coords_in_lattice_basis(lam, l0)
    lifts = []
    for cz in complete_basis([c0], e + 1)[1:]:
        w = [sum(map(mul, cz, col)) for col in zip(*lam)]
        k = -((w[-1] - 1) // d)  # bring last coordinate into (0, d]
        w = tuple(wc + k * lc for wc, lc in zip(w, l0))
        if w[-1] != d:
            raise InternalCheckError("frame vector landed off the minimal denominator")
        lifts.append(w)
    if not is_part_of_basis([l0] + lifts, len(l0)):
        raise InternalCheckError("frame lost regularity")
    frame = (v0,) + tuple(unlift(l) for l in lifts)
    for w in frame:
        if not F.contains(w) or den(w) != d:
            raise InternalCheckError("frame vertex left the space")
    return frame


def _cube_candidates(center, radius, skip_radius):
    """Yield the integer points of the cube of the given radius around
    center, in coordinate order; points inside the skip_radius cube were
    yielded in an earlier round and are suppressed."""
    ranges = [range(math.ceil(c - radius), math.floor(c + radius) + 1)
              for c in center]
    for combo in product(*ranges):
        p = tuple(Fraction(t) for t in combo)
        if skip_radius is not None and \
                all(abs(a - b) <= skip_radius for a, b in zip(p, center)):
            continue
        yield p


def _search_completion(center, lifts):
    """(s, lift(s)) for an integer point s whose lift extends the given
    vertex lifts to part of a basis; center is the first vertex.

    Once some vertex has denominator 1 such a point is available in closed
    form (complete the lattice basis, then shift the new vector's last
    coordinate to 1 by that vertex).  Otherwise scan the integer points of
    expanding cubes around center in coordinate order; a candidate extends
    iff its image in the quotient by the current (saturated) span, read off
    the lifts' integer kernel, is primitive: one gcd per candidate."""
    m = len(lifts[0])
    unit = next((l for l in lifts if l[-1] == 1), None)
    if unit is not None:
        b = complete_basis(lifts, m)[len(lifts)]
        t = 1 - b[-1]
        p = unlift(tuple(bc + t * uc for bc, uc in zip(b, unit)))
        lp = lift(p)
        if minor_gcd(lifts + [lp], m) != 1:
            raise InternalCheckError("constructed completion is not unimodular")
        return p, lp
    quot = integer_kernel(lifts)
    radius = Fraction(1)
    skip = None
    rounds = 0
    while True:
        rounds += 1
        budget.check(rounds, "expanding cube search")
        for s in _cube_candidates(center, radius, skip):
            l = lift(s)
            g = 0
            for row in quot:
                g = math.gcd(g, sum(r * t for r, t in zip(row, l)))
                if g == 1:
                    break
            if g == 1:
                return s, l
        skip = radius
        radius *= 2


def _bezout_combination(values, target):
    """Integer coefficients k with sum k_i * values_i = target (the gcd of
    the values must divide target)."""
    g = values[0]
    coeffs = [1] + [0] * (len(values) - 1)
    for i in range(1, len(values)):
        g2, x, y = xgcd(g, values[i])
        coeffs = [c * x for c in coeffs]
        coeffs[i] = y
        g = g2
    q, r = divmod(target, g)
    if r:
        raise InternalCheckError("Bezout target not divisible by the gcd")
    return [c * q for c in coeffs]


def _frame_lifts(frame):
    """The lifts of a regular frame, checked to be part of a basis."""
    pts, lifts = simplex_lifts(frame)
    if not is_part_of_basis(lifts, len(pts[0]) + 1):
        raise InputError("frame is not regular")
    return pts, lifts


def _codim_one_completion(lifts, u):
    """(c, eps) for the lifts of a regular frame of codimension one and a
    vector u completing them to a lattice basis: eps*u plus an integer
    combination of the lifts is a completion of least last coordinate c.
    The last coordinates of eps*u plus combinations are the integers
    congruent to eps*u_last modulo the gcd of the lifts' last coordinates,
    so c depends only on +-u modulo the lifts' lattice, and every u that
    completes them gives the same c."""
    g = 0
    for l in lifts:
        g = math.gcd(g, l[-1])
    c, neg_eps = min((((eps * u[-1] - 1) % g) + 1, -eps) for eps in (1, -1))
    return c, -neg_eps


def _maximal_minors(rows):
    """The integer vector m with det(rows + [x]) = m.x for k rows of length
    k + 1: m_j is (-1)^(k+j) times the minor of the rows without column j.
    For two rows (a segment's cell in the plane) m is their cross product."""
    k = len(rows)
    if k == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    return [(-1) ** (k + j) * det_int([r[:j] + r[j + 1:] for r in rows])
            for j in range(k + 1)]


def _completion_den_of_lifts(lifts):
    """completion_den of the frame with the given vertex lifts, with no
    point built.  In codimension one, the maximal minors m of the lifts
    give det(lifts + [x]) = m.x, so the frame is regular iff content(m) is
    1, and then u = dual_vector(m), with m.u = 1, completes the lifts to a
    lattice basis; any other frame is checked by the gcd of its minors."""
    m = len(lifts[0])
    if len(lifts) == m - 1:
        minors = _maximal_minors(lifts)
        if content(minors) != 1:
            raise InputError("frame is not regular")
        return _codim_one_completion(lifts, dual_vector(minors))[0]
    if not is_part_of_basis(lifts, m):
        raise InputError("frame is not regular")
    return 1


def completion_den(frame):
    """c of the frame's affine span, as extend_frame(frame)[0] but with no
    extension built: in codimension one, the least last coordinate of the
    completions +-u + (integer combinations of the lifts), for the u that
    core.dual_vector gives from the lifts' vector of maximal minors; else 1.
    Each vertex is normalized and lifted once (core.simplex_lifts)."""
    return _completion_den_of_lifts(simplex_lifts(frame)[1])


def extend_frame(frame):
    """Extend a regular e-frame to a regular n-simplex by n-e points, all of
    denominator c of the frame's affine span.  Returns (c, extension).

    Codimension one is closed-form: completions are +-u + integer
    combinations of the frame lifts for any lattice-basis completion u, so
    the least achievable last coordinate is a modular expression.
    """
    pts, lifts = _frame_lifts(frame)
    n = len(pts[0])
    e = len(pts) - 1
    if e == n:
        return 1, ()
    if e == n - 1:
        u = complete_basis(lifts, n + 1)[-1]
        c, eps = _codim_one_completion(lifts, u)
        ks = _bezout_combination([l[-1] for l in lifts], c - eps * u[-1])
        stilde = tuple(eps * uc + sum(k * l[i] for k, l in zip(ks, lifts))
                       for i, uc in enumerate(u))
        s = unlift(stilde)
        if den(s) != c or minor_gcd(lifts + (stilde,), n + 1) != 1:
            raise InternalCheckError("closed-form completion failed")
        return c, (s,)
    # codimension >= 2: c = 1, integer apexes found greedily
    cur = list(lifts)
    ext = []
    while len(cur) < n + 1:
        s, l = _search_completion(pts[0], cur)
        cur.append(l)
        ext.append(s)
    return 1, tuple(ext)


def _invariant_with_witness(F):
    if getattr(F, "_inv_cache", None) is None:
        v0 = min_den_point(F)
        frame = regular_frame(F, v0)
        c, ext = extend_frame(frame)
        witness = frame + ext
        inv = AffineInvariant(F.dim, den(v0), c)
        if inv.dim != F.n - 1 and inv.c != 1:
            raise InternalCheckError("c must be 1 away from codimension one")
        if inv.dim == F.n - 1:
            if not (1 <= inv.c <= max(1, inv.d // 2)) or math.gcd(inv.c, inv.d) != 1:
                raise InternalCheckError("codimension-one c out of range")
        F._inv_cache = (inv, witness)
    return F._inv_cache


def c_invariant(F):
    """(c, witness): the completion denominator of F together with a regular
    n-simplex whose first dim(F)+1 vertices span F at denominator d and
    whose remaining vertices have denominator c."""
    inv, witness = _invariant_with_witness(F)
    return inv.c, witness


def affine_invariant(F):
    """The complete orbit invariant (dim, d, c) of a rational affine space."""
    return _invariant_with_witness(F)[0]


def affine_equivalence(F, G):
    """A unimodular affine map of F onto G, or None when the invariants
    differ.  The returned map is verified on the defining points."""
    if F.n != G.n:
        raise InputError("ambient dimensions differ")
    inv_f, wit_f = _invariant_with_witness(F)
    inv_g, wit_g = _invariant_with_witness(G)
    if inv_f != inv_g:
        return None
    g = simplex_map(wit_f, wit_g)
    ginv = g.inverse()
    for p in F.points:
        if not G.contains(g(p)):
            raise InternalCheckError("witness map missed the target space")
    for p in G.points:
        if not F.contains(ginv(p)):
            raise InternalCheckError("witness map inverse missed the source")
    return g
