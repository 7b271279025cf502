"""Rational conics and ellipses: classification, rational points via the
Legendre equation, conjugate diameters, the minimal-index semi-diameter
pairs, the complete ellipse invariant, and orbit decision.

Ambient dimension is 2 throughout.  Whether an ellipse has a rational
point is Legendre's theorem on one factorization of its coefficients; the
point itself comes from a Holzer-box scan, run only when one exists, that
visits only the x of each row whose congruence class modulo the third
coefficient can complete a solution.
Rational points are enumerated one denominator at a time, in integers
(one isqrt per x of the ellipse's range), so the minimal-index search adds
denominator j's points and tests, by integer dot products, only the pairs
that involve them.  As for the other kinds, the invariant and its witness
come from one pass: the minimal-index pairs are found once, and the witness
is that of the first sorted pair with the least invariant.  The decision
compares areas first, builds only the first ellipse's least triangle, cut
down field by field, and walks the second ellipse's pairs only up to that
witness pair.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from . import budget
from .angles import _TriangleParts
from .core import den
from .segments import _witness_decision
from .errors import InputError, InternalCheckError, NotInClass
from .rationals import point, rat, vdot, vsub


class Conic(NamedTuple):
    """Coefficients of a x^2 + b xy + c y^2 + d x + e y + f."""
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def __call__(self, p):
        x, y = point(p)
        return (self.a * x * x + self.b * x * y + self.c * y * y
                + self.d * x + self.e * y + self.f)

    def scaled(self, s):
        s = rat(s)
        return Conic(*(s * t for t in self))


def conic(a, b, c, d, e, f):
    co = Conic(rat(a), rat(b), rat(c), rat(d), rat(e), rat(f))
    if co.a == co.b == co.c == 0:
        raise InputError("quadratic part is zero")
    return co


ELLIPSE = "ellipse-in-E"
ELLIPSE_NO_POINT = "ellipse-no-rational-point"
NOT_ELLIPSE = "not-an-ellipse"


def legendre_solve(p, q, r):
    """A primitive integer solution of p x^2 + q y^2 + r z^2 = 0, or None.

    The decision is Legendre's theorem: |p|, |q|, |r| are factored once, the
    squarefree, pairwise coprime triple (a, b, c) with the same solutions is
    read off the factors, and it has a solution iff its signs are mixed and
    -bc, -ca, -ab are squares modulo every odd prime of a, b, c in turn.
    Only a solvable triple is scanned, over the Holzer box
    |x| <= sqrt|bc|, |y| <= sqrt|ac|, for the first point in scan order;
    each row visits only the x with c | a x^2 + b y^2.
    """
    if p == 0 or q == 0 or r == 0:
        raise InputError("all three coefficients must be nonzero")
    sol = _legendre_point(p, q, r)
    if sol is None:
        return None
    g = math.gcd(*sol)
    x, y, z = ints = tuple(t // g for t in sol)
    if p * x * x + q * y * y + r * z * z != 0 or (x, y, z) == (0, 0, 0):
        raise InternalCheckError("Legendre solution failed verification")
    return ints


def _factor(n):
    """{prime: exponent} of n >= 1, by trial division by 2 and odd k."""
    out = {}
    k = 2
    while k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1 if k == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _legendre_point(p, q, r):
    """A nonzero nonnegative integer solution, or None when there is none.

    Per prime l with exponents e = (e_p, e_q, e_r), dividing out a common
    l, a square l^2, or moving l from two coefficients onto the third
    changes e mod 2 by 0 or (1, 1, 1); so the reduced triple holds l in the
    one coefficient (or none) whose parity differs from the other two.
    With v that 0/1 vector, the scales t_i = l^f_i, where e_i + 2 f_i - v_i
    is the same for every i, carry a solution of the reduced triple to one
    of (p, q, r).
    """
    g = math.gcd(p, q, r)  # free to divide out, and never factored
    coeffs = (p // g, q // g, r // g)
    if all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
        return None
    exps = {}
    for i, c in enumerate(coeffs):
        for ell, e in _factor(abs(c)).items():
            exps.setdefault(ell, [0, 0, 0])[i] = e
    reduced = [1 if c > 0 else -1 for c in coeffs]
    scale = [1, 1, 1]
    primes = ([], [], [])
    for ell, e in exps.items():
        v = [x % 2 for x in e]
        if sum(v) >= 2:
            v = [1 - x for x in v]
        top = max(x - y for x, y in zip(e, v))
        for i in range(3):
            scale[i] *= ell ** ((top - e[i] + v[i]) // 2)
            if v[i]:
                reduced[i] *= ell
                primes[i].append(ell)
    # Legendre's theorem; Euler's criterion at each odd prime, 2 is free
    for i in range(3):
        other = -reduced[i - 1] * reduced[i - 2]
        for ell in primes[i]:
            if ell != 2 and pow(other, (ell - 1) // 2, ell) != 1:
                return None
    sol = _holzer_search(*reduced, primes[2])
    if sol is None:
        raise InternalCheckError("Legendre's theorem promises a point the "
                                 "Holzer box does not hold")
    return tuple(s * t for s, t in zip(sol, scale))


def _holzer_search(p, q, r, r_primes):
    """The first point in the Holzer box of a squarefree, pairwise coprime,
    mixed-sign triple that Legendre's theorem declares solvable, scanning y
    then x; None when the box holds none.  r_primes are the primes of r.

    r divides p x^2 + q y^2 exactly when x = s y (mod |r|) for a square root
    s of -q/p modulo |r|, which Legendre's conditions guarantee; so each row
    visits only those classes of x, in increasing order.
    """
    bx = math.isqrt(abs(q * r))
    by = math.isqrt(abs(p * r))
    mod = abs(r)
    roots = _sqrts_mod(-q * pow(p, -1, mod), r_primes)
    for y in range(0, by + 1):
        classes = sorted({s * y % mod for s in roots})
        for base in range(0, bx + 1, mod):
            for c in classes:
                x = base + c
                if x > bx:
                    break
                if x == 0 and y == 0:
                    continue
                t = -(p * x * x + q * y * y)
                if t % r:
                    raise InternalCheckError("Holzer scan left the residue classes")
                w = t // r
                if w < 0:
                    continue
                z = math.isqrt(w)
                if z * z == w:
                    return (x, y, z)
    return None


def _sqrts_mod(a, primes):
    """All square roots of a modulo the product of distinct primes, a being
    a nonzero square modulo each: a root and its negative per prime (by
    Tonelli-Shanks), joined by the Chinese remainder theorem."""
    roots, mod = [0], 1
    for ell in primes:
        s = _sqrt_mod_prime(a, ell)
        inv = pow(mod, -1, ell)
        roots = [x + mod * ((t - x) * inv % ell)
                 for x in roots for t in {s, ell - s}]
        mod *= ell
    return roots


def _sqrt_mod_prime(a, ell):
    """A square root of a, a nonzero square modulo the prime ell."""
    a %= ell
    if ell == 2:
        return a
    q, e = ell - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    n = 2
    while pow(n, (ell - 1) // 2, ell) == 1:
        n += 1
    c, t, x = pow(n, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % ell, i + 1
        b = pow(c, 1 << (e - i - 1), ell)
        e, c, t, x = i, b * b % ell, t * b * b % ell, x * b % ell
    if x * x % ell != a:
        raise InternalCheckError("Tonelli-Shanks root is not a root")
    return x


def _center_and_form(co):
    """(O, Q, m): center, quadratic-part matrix, and the positive level m
    with the conic equal to (p-O)^T Q (p-O) = m; sign-normalized so Q is
    positive definite.  Raises NotInClass when the zeroset is not an ellipse."""
    disc = co.b * co.b - 4 * co.a * co.c
    if disc >= 0:
        raise NotInClass(NOT_ELLIPSE)
    if co.a < 0:
        co = co.scaled(-1)
    ox_oy = _solve2(((2 * co.a, co.b), (co.b, 2 * co.c)), (-co.d, -co.e))
    o = tuple(ox_oy)
    m = -co(o)
    if m <= 0:
        raise NotInClass(NOT_ELLIPSE)
    qmat = ((co.a, co.b / 2), (co.b / 2, co.c))
    return o, qmat, m, co


def _solve2(rows, rhs):
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    x = (rhs[0] * rows[1][1] - rows[0][1] * rhs[1]) / det
    y = (rows[0][0] * rhs[1] - rhs[0] * rows[1][0]) / det
    return (x, y)


def classify(co):
    """One of ellipse-in-E / ellipse-no-rational-point / not-an-ellipse."""
    try:
        return _classify_with_witness(co)[0]
    except NotInClass:
        return NOT_ELLIPSE


def _classify_with_witness(co):
    o, qmat, m, co = _center_and_form(co)
    # rational point iff alpha u^2 + beta v^2 = m has one, u = X + bY/2a
    alpha = co.a
    beta = (4 * co.a * co.c - co.b * co.b) / (4 * co.a)
    scale = math.lcm(alpha.denominator, beta.denominator, m.denominator)
    A = int(alpha * scale)
    B = int(beta * scale)
    C = int(m * scale)
    sol = legendre_solve(A, B, -C)
    if sol is None:
        return ELLIPSE_NO_POINT, None, (o, qmat, m, co)
    x0, y0, z0 = sol
    if z0 == 0:
        raise InternalCheckError("homogeneous solution with z = 0 on a definite form")
    u = Fraction(x0, z0)
    v = Fraction(y0, z0)
    X = u - co.b * v / (2 * co.a)
    w = (o[0] + X, o[1] + v)
    if co(w) != 0:
        raise InternalCheckError("Legendre witness does not lie on the conic")
    return ELLIPSE, w, (o, qmat, m, co)


class RationalEllipse:
    """An ellipse with rational coefficients and a rational witness point."""

    def __init__(self, co):
        cls, witness, (o, qmat, m, normalized) = _classify_with_witness(co)
        if cls != ELLIPSE:
            raise NotInClass(cls)
        self.conic = normalized
        self.center = o
        self.qmat = qmat
        self.level = m
        self.witness = witness

    def has_conjugate_pairs(self):
        """Whether any rational conjugate semi-diameter pair exists.

        The conjugate diameter of the one through a rational point x has
        endpoints +-t rot90(Q x) with t^2 = 1/det(Q), independently of x,
        so rational pairs exist iff det(Q) is the square of a rational.
        """
        detq = self.qmat[0][0] * self.qmat[1][1] - self.qmat[0][1] * self.qmat[1][0]
        return _rational_sqrt(detq) is not None

    def on_curve(self, p):
        return self.conic(p) == 0

    def conjugacy_product(self, x, y):
        dx = vsub(point(x), self.center)
        dy = vsub(point(y), self.center)
        qdy = (self.qmat[0][0] * dy[0] + self.qmat[0][1] * dy[1],
               self.qmat[1][0] * dy[0] + self.qmat[1][1] * dy[1])
        return vdot(dx, qdy)


def ellipse(co):
    return RationalEllipse(co)


def center(ell):
    return ell.center


def rational_points(ell, max_den):
    """All rational points of the ellipse of denominator <= max_den,
    sorted by (denominator, x, y)."""
    if max_den < 0:
        raise InputError("max_den must be nonnegative")
    return [p for j in range(1, max_den + 1) for p in _rational_points_at(ell, j)]


def _rational_points_at(ell, j):
    """The rational points of the ellipse of denominator exactly j, sorted."""
    return [(Fraction(i, j), Fraction(k, j)) for i, k in _numerators_at(ell, j)]


def _numerators_at(ell, j):
    """The (i, k) with (i/j, k/j) on the ellipse and gcd(i, k, j) = 1, sorted.
    With the conic scaled to integer coefficients, k solves
    c k^2 + B k + C = 0 for B = b i + e j and C = a i^2 + d j i + f j^2,
    and c > 0, so each i of the ellipse's x-range needs one isqrt."""
    o, qmat, m = ell.center, ell.qmat, ell.level
    detq = qmat[0][0] * qmat[1][1] - qmat[0][1] * qmat[1][0]
    xspread2 = m * qmat[1][1] / detq  # max (x - Ox)^2 on the ellipse
    s = math.isqrt(math.floor(j * j * xspread2)) + 1
    base = o[0] * j
    scale = math.lcm(*(t.denominator for t in ell.conic))
    a, b, c, d, e, f = (int(t * scale) for t in ell.conic)
    found = []
    for i in range(math.ceil(base - s), math.floor(base + s) + 1):
        B = b * i + e * j
        disc = B * B - 4 * c * ((a * i + d * j) * i + f * j * j)
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for n in ((-B,) if r == 0 else (-B - r, -B + r)):
            k, rem = divmod(n, 2 * c)
            if rem == 0 and math.gcd(i, k, j) == 1:
                found.append((i, k))
    return found


def _rational_sqrt(f):
    f = rat(f)
    if f < 0:
        return None
    n = math.isqrt(f.numerator)
    d = math.isqrt(f.denominator)
    if n * n == f.numerator and d * d == f.denominator:
        return Fraction(n, d)
    return None


def conjugate_diameter(ell, diameter):
    """The conjugate of a rational diameter (pair of opposite curve points
    through the center); its endpoints are rational again."""
    p1, p2 = (point(p) for p in diameter)
    o = ell.center
    if vsub(p1, o) != vsub(o, p2):
        raise InputError("diameter is not centered")
    if not (ell.on_curve(p1) and ell.on_curve(p2)):
        raise InputError("diameter endpoints are not on the ellipse")
    u = vsub(p1, o)
    qmat = ell.qmat
    qu = (qmat[0][0] * u[0] + qmat[0][1] * u[1],
          qmat[1][0] * u[0] + qmat[1][1] * u[1])
    v = (-qu[1], qu[0])  # v with u^T Q v = 0
    vqv = (qmat[0][0] * v[0] + qmat[0][1] * v[1]) * v[0] \
        + (qmat[1][0] * v[0] + qmat[1][1] * v[1]) * v[1]
    t2 = ell.level / vqv
    t = _rational_sqrt(t2)
    if t is None:
        # happens exactly when det(Q) is not a rational square
        raise NotInClass("the conjugate diameter has irrational endpoints")
    end1 = (o[0] + t * v[0], o[1] + t * v[1])
    end2 = (o[0] - t * v[0], o[1] - t * v[1])
    first, second = sorted((end1, end2))
    return (first, second)


def ellipse_from_semidiameters(o, x, y):
    """The unique ellipse for which conv(O,x) and conv(O,y) are conjugate
    semi-diameters: (p-O)^T (M M^T)^-1 (p-O) = 1 with M = [x-O | y-O]."""
    o, x, y = point(o), point(x), point(y)
    u = vsub(x, o)
    v = vsub(y, o)
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0:
        raise InputError("semi-diameter endpoints are collinear with the center")
    mmt = ((u[0] * u[0] + v[0] * v[0], u[0] * u[1] + v[0] * v[1]),
           (u[0] * u[1] + v[0] * v[1], u[1] * u[1] + v[1] * v[1]))
    d2 = mmt[0][0] * mmt[1][1] - mmt[0][1] * mmt[1][0]
    n = ((mmt[1][1] / d2, -mmt[0][1] / d2), (-mmt[0][1] / d2, mmt[0][0] / d2))
    a = n[0][0]
    b = 2 * n[0][1]
    c = n[1][1]
    d = -2 * a * o[0] - b * o[1]
    e = -b * o[0] - 2 * c * o[1]
    f = a * o[0] ** 2 + b * o[0] * o[1] + c * o[1] ** 2 - 1
    co = conic(a, b, c, d, e, f)
    if co(x) != 0 or co(y) != 0:
        raise InternalCheckError("constructed conic misses its semi-diameters")
    return co


def _require_conjugate_pairs(ell):
    if not ell.has_conjugate_pairs():
        raise NotInClass("ellipse has no rational conjugate semi-diameter pairs")


def min_index_pairs(ell):
    """(d, pairs): the least index d = den(x) + den(y) over conjugate
    semi-diameter pairs, and all ordered pairs attaining it.

    Conjugacy (x - O)^T Q (y - O) = 0 is tested in integers: a point
    (i, k)/j gives u = od (i, k) - j On, a positive multiple of x - O for
    the center O = On/od, and Q is scaled by the lcm of its denominators.

    Raises NotInClass when the ellipse has no rational conjugate pairs at
    all (non-square det(Q)); the published termination argument silently
    assumes that case away."""
    _require_conjugate_pairs(ell)
    od = math.lcm(*(t.denominator for t in ell.center))
    on0, on1 = (int(t * od) for t in ell.center)
    qd = math.lcm(*(t.denominator for row in ell.qmat for t in row))
    (q00, q01), (_, q11) = ((int(t * qd) for t in row) for row in ell.qmat)
    pts = []  # (point, its denominator, u)
    pairs = []
    best = None
    j = 0
    while True:
        j += 1
        budget.check(j, "semi-diameter index search")
        new = [((Fraction(i, j), Fraction(k, j)), j,
                (od * i - j * on0, od * k - j * on1))
               for i, k in _numerators_at(ell, j)]
        pts.extend(new)
        # only pairs with a point of denominator j are new; Q is symmetric,
        # so (y, x) is a pair whenever (x, y) is
        for x, _, (u0, u1) in new:
            qu0, qu1 = q00 * u0 + q01 * u1, q01 * u0 + q11 * u1
            for y, dy, (v0, v1) in pts:
                if qu0 * v0 + qu1 * v1 == 0:
                    pairs.append((x, y))
                    if dy < j:
                        pairs.append((y, x))
                    if best is None or j + dy < best:
                        best = j + dy
        if best is not None and j >= best - 1:
            final = [(x, y) for x, y in pairs if den(x) + den(y) == best]
            return best, sorted(final)


def _ellipse_with_witness(ell):
    """(ellipse invariant, witness simplex, marks).  One _TriangleParts
    serves every pair, and a witness is built only for the first pair of
    each invariant."""
    _, pairs = min_index_pairs(ell)
    o = ell.center
    parts = _TriangleParts()
    first = {}
    for x, y in pairs:
        inv = parts.invariant(o, x, y)
        if inv not in first:
            first[inv] = parts.triangle(o, x, y)[1:]
    invs = tuple(sorted(first))
    return (invs,) + first[invs[0]]


def _least_triangle(ell, parts=None):
    """The least entry (invariant, witness, marks) of _ellipse_with_witness,
    with one triangle built in full.  A triangle invariant compares the side
    x -> O, then the angle at x, then the side x -> y, so the sorted pairs
    are cut to the least of each in turn; the first survivor is the pair
    whose triangle the full invariant takes as witness.  The parts of the
    keys go into parts (a new _TriangleParts by default), and the witness
    triangle is built from them."""
    if parts is None:
        parts = _TriangleParts()
    o = ell.center
    pairs = min_index_pairs(ell)[1]
    for key in (parts.side_vu, parts.angle_at_v, parts.side_vw):
        if len(pairs) == 1:
            break
        keys = [key(o, x, y) for x, y in pairs]
        least = min(keys)
        pairs = [p for p, k in zip(pairs, keys) if k == least]
    return parts.triangle(o, *pairs[0])


def ellipse_invariant(ell):
    """Sorted duplicate-free tuple of triangle invariants of the oriented
    triangles (O, x, y) over all minimal-index ordered conjugate pairs."""
    return _ellipse_with_witness(ell)[0]


def _area_squared(ell):
    """m^2 / det(Q): the squared area over pi^2, the same for every conic
    equation of the ellipse and kept by every map of determinant +-1."""
    q = ell.qmat
    return ell.level ** 2 / (q[0][0] * q[1][1] - q[0][1] * q[1][0])


def ellipse_equivalence(e1, e2):
    """A unimodular affine map of the first ellipse onto the second, or
    None when the invariants differ; verified by conic pullback.

    An ellipse is fixed by its center and one pair of conjugate
    semi-diameters, so a map carrying one minimal-index triangle (O, x, y)
    of e1 onto one of e2 carries e1 onto e2.  Once both ellipses are known
    to have conjugate pairs, differing areas answer None with no search.
    Otherwise only e1's least triangle is built (_least_triangle), and e2's
    minimal-index pairs are walked in sorted order to the first whose
    triangle invariant is that one: the pair that e2's full invariant would
    pick as witness, so the map is the same.  A pair whose side x -> O or
    angle at x already differs is passed before its triangle is built.
    When no pair matches, the invariants differ.  One _TriangleParts,
    local to the call, keeps each side, angle and farthest regular point
    computed for the keys, and the triangles are built from them.
    """
    _require_conjugate_pairs(e1)
    _require_conjugate_pairs(e2)
    if _area_squared(e1) != _area_squared(e2):
        return None
    parts = _TriangleParts()
    least = _least_triangle(e1, parts)
    inv = least[0]
    o = e2.center
    for x, y in min_index_pairs(e2)[1]:
        if (parts.side_vu(o, x, y) != inv.side_vu
                or parts.angle_at_v(o, x, y) != inv.angle):
            continue
        found = parts.triangle(o, x, y)
        if found[0] == inv:
            g = _witness_decision(least, found)
            if not conics_match_up_to_scalar(pullback(e2.conic, g), e1.conic):
                raise InternalCheckError("witness map does not carry the ellipse")
            return g
    return None


def pullback(co, g):
    """Coefficients of x -> co(g(x))."""
    (a11, a12), (a21, a22) = g.matrix
    t1, t2 = g.translation
    # substitute X = a11 x + a12 y + t1, Y = a21 x + a22 y + t2
    a = co.a * a11 * a11 + co.b * a11 * a21 + co.c * a21 * a21
    c = co.a * a12 * a12 + co.b * a12 * a22 + co.c * a22 * a22
    b = 2 * co.a * a11 * a12 + co.b * (a11 * a22 + a12 * a21) + 2 * co.c * a21 * a22
    d = (2 * co.a * a11 * t1 + co.b * (a11 * t2 + a21 * t1)
         + 2 * co.c * a21 * t2 + co.d * a11 + co.e * a21)
    e = (2 * co.a * a12 * t1 + co.b * (a12 * t2 + a22 * t1)
         + 2 * co.c * a22 * t2 + co.d * a12 + co.e * a22)
    f = co.a * t1 * t1 + co.b * t1 * t2 + co.c * t2 * t2 \
        + co.d * t1 + co.e * t2 + co.f
    return Conic(a, b, c, d, e, f)


def conics_match_up_to_scalar(c1, c2):
    ratio = None
    for u, v in zip(c1, c2):
        if (u == 0) != (v == 0):
            return False
        if u != 0:
            r = v / u
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None
