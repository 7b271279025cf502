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
from operator import mul
from typing import NamedTuple

from .affine import completion_den, extend_frame
from .convexity import simplex_barycentric
from .core import den, dual_vector, lift, plane_basis, unlift
from .errors import InputError, InternalCheckError, NotInClass
from .intlinalg import integer_rank
from .rationals import content, point, primitive, vadd, vscale, vsub
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
        if len(x) != self.dim:
            raise InputError("point dimension mismatch")
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


def min_den_completion(ang):
    """The minimal-denominator rational point of the angle's convex region
    that completes (v, q_H) to a regular triangle, nearest to the second
    arm: the least admissible beta of _completion."""
    return _completion(ang, max_regular_point(ang.h))


def _completion(ang, q):
    """min_den_completion of the angle, given q = max_regular_point(H).

    (lv, l), l = lq - t lv, is a basis of the lattice of H's plane, and
    rows u1, u2 dual to it (core.dual_vector) give the projection
    x -> x - (u1.x) lv - (u2.x) l of Z^{n+1} onto a complement of that
    lattice.  It sends wk = (dir K, 0) to pk = wk - a lv - b l; s = pk
    over its content c generates the image of the angle plane's lattice,
    on K's side, so the completions on K's side lift to
    s + alpha lv + beta lq.  Their H-coefficient is a positive multiple of
    beta - b/c, so the region asks beta >= ceil(b/c); the least last
    coordinate D pins the denominator, and distance to K grows with beta,
    so the nearest completion takes the least admissible beta.
    """
    lv, lq = lift(ang.h.origin), lift(q)
    wk = tuple(ang.k.direction) + (0,)
    u1 = dual_vector(lv)
    t = sum(map(mul, u1, lq))
    l = [y - t * x for x, y in zip(lv, lq)]
    w = dual_vector(l)
    wv = sum(map(mul, w, lv))
    u2 = [y - wv * x for x, y in zip(u1, w)]
    a, b = sum(map(mul, u1, wk)), sum(map(mul, u2, wk))
    pk = [z - a * x - b * y for x, y, z in zip(lv, l, wk)]
    c = content(pk)
    if c == 0:
        raise InternalCheckError("the second arm lies in the first arm's plane")
    s = [z // c for z in pk]
    dv, dq = lv[-1], lq[-1]
    g = math.gcd(dv, dq)
    step = dv // g
    D = (s[-1] - 1) % g + 1
    # beta solves dq*beta = D - s_last (mod dv); the least one >= ceil(b/c)
    lo = -(-b // c)
    beta = lo + ((D - s[-1]) // g * pow(dq // g, -1, step) - lo) % step
    alpha, r = divmod(D - s[-1] - beta * dq, dv)
    if r:
        raise InternalCheckError("congruence bookkeeping failed")
    p = unlift(tuple(x + alpha * y + beta * z for x, y, z in zip(s, lv, lq)))
    if den(p) != D:
        raise InternalCheckError("completion point has the wrong denominator")
    return p


def _angle_with_witness(ang, witness=True):
    """(angle invariant, witness simplex, marks) of an angle.  With witness
    False, for callers that drop the witness, c is computed with no
    extension built and the witness is the triangle (v, q_H, p_HK) alone."""
    h, k = ang
    v = h.origin
    q_h = max_regular_point(h)
    q_k = max_regular_point(k)
    r = (v, q_h, _completion(ang, q_h))
    lam = simplex_barycentric(r, q_k)
    if lam is None:
        raise InternalCheckError("q_K left the angle plane")
    if witness:
        c, ext = extend_frame(r)
    else:
        c, ext = completion_den(r), ()
    inv = AngleInvariant(den(v), den(q_h), den(r[2]), (lam[0], lam[1]), c)
    return inv, r + ext, {"the second arm": (q_k,)}


def angle_invariant(ang):
    """The complete sextuple: denominators of the origin, of q_H and of
    p_HK, the first two barycentric coordinates of q_K w.r.t. the ordered
    triangle (v, q_H, p_HK), and c of the angle's plane."""
    return _angle_with_witness(ang, witness=False)[0]


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
