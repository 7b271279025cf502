"""Rational oriented angles and triangles: the farthest regular point of a
half-line, the minimal-denominator completion point of an angle, the complete
sextuple invariant, the side-angle-side triangle invariant, and their orbit
decisions with witness maps.

As for segments, each kind is computed once as (invariant, witness simplex,
marks).  An angle's witness is (v, q_H, p_HK) extended to a regular simplex,
whose extension denominator is c of its plane; a triangle uses the witness of
its angle at v.  The marks are the points a witness map must carry: q_K, and
for triangles both side chains and the vertices.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .affine import extend_frame
from .convexity import simplex_barycentric
from .core import (den, lattice_coords, lift, plane_basis,
                   saturated_span_basis, unlift)
from .errors import InputError, InternalCheckError, NotInClass
from .intlinalg import complete_basis, integer_rank, span_solver, xgcd
from .rationals import point, primitive, vadd, vscale, vsub
from .segments import SideInvariant, _side_with_witness, _witness_decision


class HalfLine:
    """Rational half-line: origin plus a primitive integer direction."""

    def __init__(self, origin, direction=None, through=None):
        self.origin = point(origin)
        if (direction is None) == (through is None):
            raise InputError("give exactly one of direction or through")
        if through is not None:
            d = vsub(point(through), self.origin)
        else:
            d = point(direction)
        self.direction = primitive(d)
        if len(self.direction) != len(self.origin):
            raise InputError("direction dimension mismatch")

    @property
    def dim(self):
        return len(self.origin)

    def parameter(self, x):
        """t >= 0 with x = origin + t*direction, or None off the half-line."""
        t = None
        for xc, oc, dc in zip(point(x), self.origin, self.direction):
            if dc == 0:
                if xc != oc:
                    return None
            else:
                s = Fraction(xc - oc, dc)
                if t is None:
                    t = s
                elif s != t:
                    return None
        return t if t is not None and t >= 0 else None

    def contains(self, x):
        return self.parameter(x) is not None

    def __eq__(self, other):
        return (isinstance(other, HalfLine) and self.origin == other.origin
                and self.direction == other.direction)

    def __hash__(self):
        return hash((self.origin, self.direction))


class Angle(NamedTuple):
    h: HalfLine
    k: HalfLine


class AngleInvariant(NamedTuple):
    den_v: int
    den_q: int
    den_p: int
    bary: tuple
    c: int


class TriangleInvariant(NamedTuple):
    side_vu: SideInvariant
    angle: AngleInvariant
    side_vw: SideInvariant


def angle(h, k):
    """A nontrivial rational oriented angle (common origin, distinct spans)."""
    if not isinstance(h, HalfLine):
        h = HalfLine(*h)
    if not isinstance(k, HalfLine):
        k = HalfLine(*k)
    if h.dim != k.dim:
        raise InputError("half-line dimensions differ")
    if h.dim < 2:
        raise NotInClass("angles need ambient dimension >= 2")
    if h.origin != k.origin:
        raise InputError("half-lines have different origins")
    if integer_rank([h.direction, k.direction]) != 2:
        raise NotInClass("trivial angle: the half-lines span the same line")
    return Angle(h, k)


def max_regular_point(h):
    """The farthest point of the half-line forming a regular segment with
    its origin; equivalently the one of minimal denominator.

    In the basis (lift(v), b) of the saturated lattice of the plane of
    lift(v) and the direction lift w = (direction, 0), w = a lift(v) + g b
    with g > 0 (core.plane_basis).  The partners of lift(v) in a basis of
    that lattice on the half-line's side are k lift(v) + b, whose last
    entry den(v) (k - a/g) must be positive, and the point moves towards
    v as k grows; so k = floor(a/g) + 1.
    """
    lv = lift(h.origin)
    b, a, g = plane_basis(lv, tuple(h.direction) + (0,))
    q = unlift(vadd(vscale(a // g + 1, lv), b))
    if h.parameter(q) is None:
        raise InternalCheckError("computed point left the half-line")
    return q


def _span_coords(coords, v):
    """coords(v) for a lattice_coords function coords and a vector v that
    must lie in its lattice."""
    try:
        return coords(v)
    except InputError:
        raise InternalCheckError("vector outside the sublattice span")


def min_den_completion(ang):
    """The minimal-denominator rational point of the angle's convex region
    that completes (v, q_H) to a regular triangle, nearest to the second arm.

    Candidate lifts are +-s + alpha*lift(v) + beta*lift(q_H) for a basis
    completion s of the rank-3 sublattice of the angle's plane; the region
    pins the sign, the minimal achievable last coordinate pins the
    denominator, and distance to K is monotone along the candidate line, so
    the nearest candidate is the first admissible one.
    """
    return _completion(ang, max_regular_point(ang.h))


def _completion(ang, q):
    """min_den_completion of the angle, given q = max_regular_point(H)."""
    h, k = ang
    v = h.origin
    lv, lq = lift(v), lift(q)
    wh = tuple(h.direction) + (0,)
    wk = tuple(k.direction) + (0,)
    basis = saturated_span_basis([lv, wh, wk])
    if len(basis) != 3:
        raise InternalCheckError("angle plane has the wrong homogeneous rank")
    coords = lattice_coords(basis)
    cv = coords(lv)
    cq = coords(lq)
    s = complete_basis([cv, cq], 3)[2]

    cwh = _span_coords(coords, wh)
    cwk = _span_coords(coords, wk)

    frame = span_solver([cv, cwh, cwk])

    def frame_coords(z3):
        sol = frame(z3)
        if sol is None:
            raise InternalCheckError("frame decomposition failed")
        y, d = sol
        # (a, b, c) over (lift(v), dir H, dir K)
        return tuple(Fraction(c, d) for c in y)

    a_s, b_s, c_s = frame_coords(s)
    if c_s == 0:
        raise InternalCheckError("completion vector lies in the half-line plane")
    eps = 1 if c_s > 0 else -1
    dv, dq = den(v), den(q)
    s_amb = vadd(vadd(vscale(s[0], basis[0]), vscale(s[1], basis[1])),
                 vscale(s[2], basis[2]))
    sl = s_amb[-1]
    _, b_q, _ = frame_coords(cq)
    if b_q <= 0:
        raise InternalCheckError("q_H decomposes with a nonpositive H-coefficient")
    beta_min = math.ceil(Fraction(-eps * b_s, b_q))
    g = math.gcd(dv, dq)
    r = (eps * sl) % g
    D = r if r >= 1 else g
    # beta solves dq*beta = D - eps*sl (mod dv)
    target = D - eps * sl
    step = dv // g
    _, inv, _ = xgcd(dq // g, step)
    beta0 = ((target // g) * inv) % step if step > 1 else 0
    beta = beta0 + step * math.ceil(Fraction(beta_min - beta0, step))
    alpha_num = D - eps * sl - beta * dq
    if alpha_num % dv:
        raise InternalCheckError("congruence bookkeeping failed")
    alpha = alpha_num // dv
    z = tuple(eps * s[i] + alpha * cv[i] + beta * cq[i] for i in range(3))
    amb = vadd(vadd(vscale(z[0], basis[0]), vscale(z[1], basis[1])),
               vscale(z[2], basis[2]))
    p = unlift(amb)
    if den(p) != D:
        raise InternalCheckError("completion point has the wrong denominator")
    return p


def _angle_with_witness(ang):
    """(angle invariant, witness simplex, marks) of an angle."""
    h, k = ang
    v = h.origin
    q_h = max_regular_point(h)
    q_k = max_regular_point(k)
    r = (v, q_h, _completion(ang, q_h))
    lam = simplex_barycentric(r, q_k)
    if lam is None:
        raise InternalCheckError("q_K left the angle plane")
    c, ext = extend_frame(r)
    inv = AngleInvariant(den(v), den(q_h), den(r[2]), (lam[0], lam[1]), c)
    return inv, r + ext, {"the second arm": (q_k,)}


def angle_invariant(ang):
    """The complete sextuple: denominators of the origin, of q_H and of
    p_HK, the first two barycentric coordinates of q_K w.r.t. the ordered
    triangle (v, q_H, p_HK), and c of the angle's plane."""
    return _angle_with_witness(ang)[0]


def angle_equivalence(a1, a2):
    """A map theta with theta(H) = H' and theta(K) = K', or None when the
    angle invariants differ."""
    if a1.h.dim != a2.h.dim:
        raise InputError("ambient dimensions differ")
    return _witness_decision(_angle_with_witness(a1), _angle_with_witness(a2))


def triangle(u, v, w):
    """Oriented rational triangle u -> v -> w; the angle vertex is v."""
    pu, pv, pw = point(u), point(v), point(w)
    if len({len(pu), len(pv), len(pw)}) != 1:
        raise InputError("vertex dimensions differ")
    if integer_rank([lift(pu), lift(pv), lift(pw)]) != 3:
        raise NotInClass("degenerate triangle: vertices are collinear")
    return (pu, pv, pw)


def _triangle_with_witness(tri):
    """(triangle invariant, witness simplex, marks), from the sides v->u,
    v->w and the angle at v; the witness is the angle's, so the sides'
    c is computed with no extension built."""
    u, v, w = triangle(*tri)
    side_vu, _, marks_vu = _side_with_witness(v, u, witness=False)
    ang, wit, marks = _angle_with_witness(
        angle(HalfLine(v, through=u), HalfLine(v, through=w)))
    side_vw, _, marks_vw = _side_with_witness(v, w, witness=False)
    marks.update({"the first side": marks_vu["the chain"],
                  "the second side": marks_vw["the chain"],
                  "the vertices": (u, v, w)})
    return TriangleInvariant(side_vu, ang, side_vw), wit, marks


def triangle_invariant(tri):
    """Side-angle-side invariant (side v->u, angle at v, side v->w)."""
    return _triangle_with_witness(tri)[0]


def triangle_equivalence(t1, t2):
    """A map carrying (u, v, w) onto (u', v', w'), or None when the triangle
    invariants differ."""
    u1, v1, w1 = triangle(*t1)
    u2, v2, w2 = triangle(*t2)
    if len(u1) != len(u2):
        raise InputError("ambient dimensions differ")
    return _witness_decision(_triangle_with_witness((u1, v1, w1)),
                             _triangle_with_witness((u2, v2, w2)))
