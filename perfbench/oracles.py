"""Independent result checks and non-equivalence certificates.

Nothing here calls afflat: determinants, lifts, barycentric membership and
the closed-form invariants below are the benchmark's own arithmetic, so a
wrong answer from the library cannot be confirmed by the same code path.
"""

import math
from fractions import Fraction
from itertools import product

F = Fraction


# --- integer and rational linear algebra ----------------------------------

def det(rows):
    """Exact determinant by cofactor-free Gaussian elimination over Q."""
    a = [[F(x) for x in r] for r in rows]
    n = len(a)
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return F(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    out = F(sign)
    for k in range(n):
        out *= a[k][k]
    return out


def rank(rows):
    a = [[F(x) for x in r] for r in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for j in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][j]:
                f = a[i][j] / a[r][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def solve(cols, rhs):
    """Coefficients c with sum c_i cols_i = rhs for independent columns, or
    None when rhs is outside their span."""
    k = len(cols)
    m = len(rhs)
    a = [[F(cols[j][i]) for j in range(k)] + [F(rhs[i])] for i in range(m)]
    r = 0
    where = []
    for j in range(k):
        piv = next((i for i in range(r, m) if a[i][j]), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(m):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        where.append(r)
        r += 1
    if any(a[i][k] for i in range(r, m)):
        return None
    return [a[where[j]][k] for j in range(k)]


def den(p):
    d = 1
    for c in p:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d


def lift(p):
    d = den(p)
    return tuple(int(c * d) for c in p) + (d,)


# --- unimodular affine maps ------------------------------------------------

def rand_unimodular(rng, n, steps=6, tmax=3):
    """(A, t): a random element of GL(n, Z) |x Z^n by elementary row ops."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    if n > 1 and rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return (tuple(tuple(r) for r in m),
            tuple(rng.randint(-tmax, tmax) for _ in range(n)))


def apply(g, p):
    a, t = g
    return tuple(sum(r[j] * p[j] for j in range(len(p))) + tc
                 for r, tc in zip(a, t))


def is_unimodular_map(doc, n):
    """A witness map as the CLI prints it, or as (matrix, translation):
    integer entries of the right shapes and determinant +-1."""
    if isinstance(doc, dict):
        a, t = doc.get("matrix"), doc.get("translation")
    else:
        a, t = doc
    if a is None or t is None or len(a) != n or len(t) != n:
        return False
    if any(len(r) != n for r in a):
        return False
    if not all(isinstance(x, int) for r in a for x in r) or \
            not all(isinstance(x, int) for x in t):
        return False
    return det(a) in (1, -1)


def map_of(doc):
    if isinstance(doc, dict):
        return (tuple(tuple(r) for r in doc["matrix"]),
                tuple(doc["translation"]))
    return (tuple(tuple(r) for r in doc[0]), tuple(doc[1]))


# --- certificates (group invariants) ---------------------------------------

def lattice_length(a, b):
    """t with b - a = t * v for a primitive integer vector v."""
    d = [y - x for x, y in zip(a, b)]
    scale = den(d)
    g = 0
    for c in d:
        g = math.gcd(g, int(c * scale))
    return F(g, scale)


def triangle_area2(u, v, w):
    """|det(u - v, w - v)|: twice the area of a planar triangle."""
    return abs(det([[x - y for x, y in zip(u, v)],
                    [x - y for x, y in zip(w, v)]]))


def conic_center_level(co):
    a, b, c, d, e, f = co
    dt = 4 * a * c - b * b
    ox = (b * e - 2 * c * d) / dt
    oy = (b * d - 2 * a * e) / dt
    level = -(a * ox * ox + b * ox * oy + c * oy * oy + d * ox + e * oy + f)
    return (ox, oy), level


def ellipse_area_sq(co):
    """(area / pi)^2 = level^2 / det(Q), read off the coefficients."""
    a, b, c = co[0], co[1], co[2]
    _, level = conic_center_level(co)
    return level * level / (a * c - b * b / 4)


def conic_value(co, p):
    a, b, c, d, e, f = co
    x, y = p
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def ellipse_from_semidiameters(o, u, v):
    """Integer-normalized coefficients of (p-o)^T (M M^T)^-1 (p-o) = 1 with
    M = [u | v]: the ellipse on which o+u and o+v are conjugate."""
    dt = u[0] * v[1] - u[1] * v[0]
    if dt == 0:
        raise ValueError("collinear semi-diameters")
    p00 = u[0] * u[0] + v[0] * v[0]
    p01 = u[0] * u[1] + v[0] * v[1]
    p11 = u[1] * u[1] + v[1] * v[1]
    d2 = dt * dt
    a, b, c = p11 / d2, -2 * p01 / d2, p00 / d2
    d = -2 * a * o[0] - b * o[1]
    e = -b * o[0] - 2 * c * o[1]
    f = a * o[0] ** 2 + b * o[0] * o[1] + c * o[1] ** 2 - 1
    co = [a, b, c, d, e, f]
    scale = 1
    for x in co:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return tuple(x * scale for x in co)


def ellipse_points(o, u, v):
    """Five rational points of the ellipse with conjugate semi-diameters
    u, v at o; five points determine a conic."""
    out = []
    for s, t in ((1, 0), (0, 1), (-1, 0), (0, -1), (F(3, 5), F(4, 5))):
        out.append((o[0] + s * u[0] + t * v[0], o[1] + s * u[1] + t * v[1]))
    return out


class Membership:
    """Exact closed-simplex membership by barycentric coordinates."""

    def __init__(self, simplex):
        self.verts = [tuple(F(c) for c in v) for v in simplex]
        v0 = self.verts[0]
        self.dirs = [tuple(x - y for x, y in zip(v, v0)) for v in self.verts[1:]]

    def __contains__(self, p):
        v0 = self.verts[0]
        rel = tuple(F(x) - y for x, y in zip(p, v0))
        if not self.dirs:
            return not any(rel)
        lam = solve(self.dirs, rel)
        return lam is not None and all(x >= 0 for x in lam) and sum(lam) <= 1


def _full_dim_test(s, scale):
    """Integer membership test for z/scale in a full-dimensional simplex:
    the barycentric functionals cleared of denominators."""
    v0 = s[0]
    n = len(v0)
    cols = [tuple(x - y for x, y in zip(v, v0)) for v in s[1:]]
    inv = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        inv.append(solve(cols, e))  # column i of M^-1
    rows = [[inv[i][j] for i in range(n)] for j in range(n)]
    dd = 1
    for r in rows:
        for x in r:
            dd = dd * x.denominator // math.gcd(dd, x.denominator)
    q = den(v0)
    w = [[int(x * dd) for x in r] for r in rows]
    base = [int(scale * q * c) for c in v0]  # scale*q*v0 is integral
    bound = dd * scale * q

    def test(z):
        y = [q * zc - b for zc, b in zip(z, base)]
        total = 0
        for r in w:
            lam = sum(a * b for a, b in zip(r, y))
            if lam < 0:
                return False
            total += lam
        return total <= bound

    return test


def small_den_points(P, max_den=2):
    """The points of denominator dividing max_den in the union of the
    simplexes (for max_den = 2: denominators 1 and 2), each simplex scanned
    over its bounding box by exact barycentric membership."""
    found = set()
    for s in P:
        n = len(s[0])
        if len(s) == n + 1:
            test = _full_dim_test(s, max_den)
        else:
            mem = Membership(s)

            def test(z, mem=mem):
                return tuple(F(c, max_den) for c in z) in mem
        lo = [math.ceil(min(v[i] for v in s) * max_den) for i in range(n)]
        hi = [math.floor(max(v[i] for v in s) * max_den) for i in range(n)]
        for z in product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
            if z not in found and test(z):
                found.add(z)
    return found


def in_union(P, p):
    return any(p in Membership(s) for s in P)


# --- closed-form invariants of canonical objects ----------------------------

def codim_one_c(r):
    """c of the hyperplane x_n = r: the least positive last coordinate of a
    lattice completion, min(q, d - q) for q = p^-1 mod d, r = p/d."""
    d = r.denominator
    if d <= 2:
        return 1
    q = pow(r.numerator % d, -1, d)
    return min(q, d - q)


def first_chain_den(alpha, beta):
    """Denominator of the first vertex of the canonical chain from alpha
    towards beta in R^1: the least k >= 1 with a regular partner j/k of
    alpha in (alpha, beta] (or [beta, alpha))."""
    p, q = alpha.numerator, alpha.denominator
    gap = abs(beta - alpha)
    kmin = max(1, math.ceil(1 / (q * gap)))
    if q == 1:
        return kmin
    inv = pow(p % q, -1, q)
    # right partners need p*k = -1 (mod q), left ones p*k = 1 (mod q)
    r = (-inv) % q if beta > alpha else inv % q
    r = r or q
    return r + q * max(0, math.ceil(F(kmin - r, q)))


def pair_minors_gcd(x, y):
    g = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            g = math.gcd(g, x[i] * y[j] - x[j] * y[i])
    return g


def chain_is_regular(vertices):
    """Each consecutive pair of lifts has determinant +-1 (gcd of the 2x2
    minors in higher dimension)."""
    lifts = [lift(v) for v in vertices]
    return all(pair_minors_gcd(x, y) == 1 for x, y in zip(lifts, lifts[1:]))


def chain_is_monotone(vertices, a, b):
    """Vertices lie on conv(a, b), start at a, end at b and advance."""
    if tuple(vertices[0]) != tuple(a) or tuple(vertices[-1]) != tuple(b):
        return False
    dirv = [y - x for x, y in zip(a, b)]
    i = next(i for i, c in enumerate(dirv) if c)
    last = F(-1)
    for x in vertices:
        t = (x[i] - a[i]) / dirv[i]
        if any(a[j] + t * dirv[j] != x[j] for j in range(len(a))):
            return False
        if not last < t <= 1:
            return False
        last = t
    return True


def fan_is_regular_subdivision(gens, cones):
    """Every cone is unimodular and inside pos(gens), and the cones' slice
    volumes at the level of the dual functional add up to the original's,
    so they tile it."""
    m = len(gens)

    def level(x):
        coords = solve(list(gens), x)
        if coords is None or any(c < 0 for c in coords):
            return None
        return sum(coords)

    total = F(0)
    for c in cones:
        if len(c) != m or abs(det(c)) != 1:
            return False
        lv = [level(x) for x in c]
        if any(l is None or l == 0 for l in lv):
            return False
        vol = F(1)
        for l in lv:
            vol /= l
        total += vol
    return total == abs(det(gens))
