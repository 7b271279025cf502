"""Rational oriented angles and triangles: the farthest regular point of a
half-line, the minimal-denominator completion point of an angle, the complete
sextuple invariant, the side-angle-side triangle invariant, and their orbit
decisions with witness maps.

As for segments, each kind is computed once as (invariant, witness simplex,
marks).  An angle's witness is (v, q_H, p_HK) extended to a regular simplex,
whose extension denominator is c of its plane; a triangle uses the witness of
its angle at v.  The marks are what a witness map must carry: q_K, and for
triangles both side chains and the vertices.

Marks and intermediate points are homogeneous lifts (core.lift): the
farthest regular point (_farthest_lift) and the completion (_completion)
take and give lifts and check them in integers, the barycentric
coordinates of q_K come from one span_solver over the lifts of
(v, q_H, p_HK), and c from the lift form of completion_den.  Points are
built only where a public result needs them: max_regular_point and
min_den_completion, and the witness simplex when one is asked for.  A
decision over many triangles that share vertices (conics) keeps their
sides, angles and farthest points in one _TriangleParts, local to it and
keyed by the vertices' lifts.
"""

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .affine import _completion_den_of_lifts, extend_frame
from .core import dual_vector, plane_basis, unlift
from .errors import InputError, InternalCheckError, NotInClass
from .intlinalg import integer_rank, span_solver
from .rationals import (content, lift_point, point, primitive, vadd, vscale,
                        vsub)
from .segments import SideInvariant, _side_of_lifts, _witness_decision


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
    its origin; equivalently the one of minimal denominator."""
    return unlift(_farthest_lift(lift_point(h.origin), h.direction))


def _farthest_lift(lv, d):
    """The lift of max_regular_point of the half-line from the point of
    lift lv along the primitive direction d.

    In the basis (lv, b) of the saturated lattice of the plane of lv and
    the direction lift w = (d, 0), w = a lv + g b with g > 0
    (core.plane_basis).  The partners of lv in a basis of that lattice on
    the half-line's side are k lv + b, whose last entry den(v) (k - a/g)
    must be positive, and the point moves towards v as k grows; so
    k = floor(a/g) + 1.  The lift q is checked to be on the half-line in
    integers: its last entry is positive and q d_v - lv d_q, which is
    d_v d_q (q's point - v), is a positive multiple of d.
    """
    b, a, g = plane_basis(lv, d + (0,))
    q = vadd(vscale(a // g + 1, lv), b)
    dv, dq = lv[-1], q[-1]
    w = [x * dv - y * dq for x, y in zip(q, lv)]
    t = content(w)
    if dq <= 0 or t == 0 or any(x != t * y for x, y in zip(w, d)):
        raise InternalCheckError("computed point left the half-line")
    return q


def min_den_completion(ang):
    """The minimal-denominator rational point of the angle's convex region
    that completes (v, q_H) to a regular triangle, nearest to the second
    arm: the least admissible beta of _completion."""
    h, k = ang
    lv = lift_point(h.origin)
    return unlift(_completion(lv, _farthest_lift(lv, h.direction),
                              k.direction))


def _completion(lv, lq, dk):
    """The lift of min_den_completion of the angle at the point of lift lv
    whose second arm has the primitive direction dk, given the lift lq of
    q = max_regular_point(H).

    (lv, l), l = lq - t lv, is a basis of the lattice of H's plane, and
    rows u1, u2 dual to it (core.dual_vector) give the projection
    x -> x - (u1.x) lv - (u2.x) l of Z^{n+1} onto a complement of that
    lattice.  It sends wk = (dk, 0) to pk = wk - a lv - b l; s = pk
    over its content c generates the image of the angle plane's lattice,
    on K's side, so the completions on K's side lift to
    s + alpha lv + beta lq.  Their H-coefficient is a positive multiple of
    beta - b/c, so the region asks beta >= ceil(b/c); the least last
    coordinate D pins the denominator, and distance to K grows with beta,
    so the nearest completion takes the least admissible beta.  The lift
    is checked to have last entry D and content 1.
    """
    wk = dk + (0,)
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
    p = tuple(x + alpha * y + beta * z for x, y, z in zip(s, lv, lq))
    if p[-1] != D:
        raise InternalCheckError("completion point has the wrong denominator")
    if content(p) != 1:
        raise InternalCheckError("completion lift is not primitive")
    return p


def _angle_lifts(lv, dh, dk, far=_farthest_lift):
    """(angle invariant, lifts of (v, q_H, p_HK), lift of q_K) of the angle
    at the point of lift lv whose arms have the primitive directions dh and
    dk; far(lv, d) gives the farthest regular point of an arm.  q_K's
    barycentric coordinates come from one span_solver over the three lifts:
    sum_i y_i L_i = d lift(q_K) gives lambda_i = y_i den_i / (d den(q_K))."""
    q_h, q_k = far(lv, dh), far(lv, dk)
    r = (lv, q_h, _completion(lv, q_h, dk))
    sol = span_solver(r)(q_k)
    if sol is None:
        raise InternalCheckError("q_K left the angle plane")
    y, d = sol
    k = d * q_k[-1]
    bary = (Fraction(y[0] * lv[-1], k), Fraction(y[1] * q_h[-1], k))
    inv = AngleInvariant(lv[-1], q_h[-1], r[2][-1], bary,
                         _completion_den_of_lifts(r))
    return inv, r, q_k


def _angle_witness(r, c):
    """The points of the lifts r of (v, q_H, p_HK) extended to a regular
    simplex by points of denominator c of the angle's plane."""
    pts = tuple(map(unlift, r))
    c_ext, ext = extend_frame(pts)
    if c_ext != c:
        raise InternalCheckError("witness extension disagrees with c")
    return pts + ext


def _angle_with_witness(ang, witness=True):
    """(angle invariant, witness simplex, marks) of an angle.  With witness
    False, for callers that drop the witness, c is computed from the lifts,
    no point is built, and the witness is None."""
    h, k = ang
    inv, r, q_k = _angle_lifts(lift_point(h.origin), h.direction,
                               k.direction)
    wit = _angle_witness(r, inv.c) if witness else None
    return inv, wit, {"the second arm": (q_k,)}


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
    pts, lifts = _triangle_lifts(u, v, w)
    _check_triangle(lifts)
    return pts


def _triangle_lifts(u, v, w):
    """(points, lifts) of the vertices u, v, w, each normalized and lifted
    once; their rank is left to the caller (_check_triangle)."""
    pts = (point(u), point(v), point(w))
    if len({len(p) for p in pts}) != 1:
        raise InputError("vertex dimensions differ")
    return pts, tuple(map(lift_point, pts))


def _check_triangle(lifts):
    """Raise NotInClass unless the lifts of three points are independent,
    that is, unless the points form a triangle."""
    if integer_rank(lifts) != 3:
        raise NotInClass("degenerate triangle: vertices are collinear")


def _direction(lv, lu):
    """The primitive direction from the point of lift lv to that of lu:
    u - v scaled by den(u) den(v) > 0, then by its content."""
    dv, du = lv[-1], lu[-1]
    return primitive(tuple(x * dv - y * du for x, y in zip(lu[:-1], lv[:-1])))


class _TriangleParts:
    """The sides, angles and farthest regular points of the triangles
    (u, v, w) met by one call, each computed once.  A decision that ranks
    triangles by their side v -> u, angle at v and side v -> w, one field
    at a time, builds the witness of the triangle it keeps from the parts
    it has already computed, and angles at one vertex share the farthest
    regular point of each half-line.  Vertices are given, and parts keyed,
    by their lifts (rationals.lift_point): sides come from
    segments._side_of_lifts, an angle checks its triangle's rank on the
    lifts, and points are built only for a witness simplex.  An instance
    lives only as long as the call that makes it, so nothing is kept
    between calls."""

    def __init__(self):
        self._sides = {}
        self._angles = {}
        self._far = {}

    def _side(self, lv, lx):
        found = self._sides.get((lv, lx))
        if found is None:
            found = self._sides[lv, lx] = _side_of_lifts(lv, lx)
        return found

    def _farthest(self, lv, d):
        q = self._far.get((lv, d))
        if q is None:
            q = self._far[lv, d] = _farthest_lift(lv, d)
        return q

    def _angle(self, lu, lv, lw):
        """(angle invariant, lifts of (v, q_H, p_HK), lift of q_K) of the
        triangle's angle at v."""
        found = self._angles.get((lu, lv, lw))
        if found is None:
            _check_triangle((lu, lv, lw))
            found = self._angles[lu, lv, lw] = _angle_lifts(
                lv, _direction(lv, lu), _direction(lv, lw), self._farthest)
        return found

    def side_vu(self, lu, lv, lw):
        return self._side(lv, lu)[0]

    def angle_at_v(self, lu, lv, lw):
        return self._angle(lu, lv, lw)[0]

    def side_vw(self, lu, lv, lw):
        return self._side(lv, lw)[0]

    def invariant(self, lu, lv, lw):
        """The triangle invariant; the angle first, as it checks that the
        vertices form a triangle."""
        ang = self.angle_at_v(lu, lv, lw)
        return TriangleInvariant(self.side_vu(lu, lv, lw), ang,
                                 self.side_vw(lu, lv, lw))

    def triangle(self, lu, lv, lw):
        """(triangle invariant, witness simplex, marks); the witness is the
        angle's, so the sides' c is computed with no extension built."""
        ang, r, q_k = self._angle(lu, lv, lw)
        side_vu, _, marks_vu = self._side(lv, lu)
        side_vw, _, marks_vw = self._side(lv, lw)
        marks = {"the second arm": (q_k,),
                 "the first side": marks_vu["the chain"],
                 "the second side": marks_vw["the chain"],
                 "the vertices": (lu, lv, lw)}
        return (TriangleInvariant(side_vu, ang, side_vw),
                _angle_witness(r, ang.c), marks)


def _triangle_with_witness(tri):
    """(triangle invariant, witness simplex, marks), from the sides v->u,
    v->w and the angle at v."""
    return _TriangleParts().triangle(*_triangle_lifts(*tri)[1])


def triangle_invariant(tri):
    """Side-angle-side invariant (side v->u, angle at v, side v->w)."""
    return _TriangleParts().invariant(*_triangle_lifts(*tri)[1])


def triangle_equivalence(t1, t2):
    """A map carrying (u, v, w) onto (u', v', w'), or None when the triangle
    invariants differ.  Each triangle is normalized, lifted and ranked
    once; the witness simplexes have the ambient dimensions."""
    found1, found2 = _triangle_with_witness(t1), _triangle_with_witness(t2)
    if len(found1[1][0]) != len(found2[1][0]):
        raise InputError("ambient dimensions differ")
    return _witness_decision(found1, found2)
