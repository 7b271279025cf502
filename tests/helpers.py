"""Shared test utilities: random object generators and independent oracles.

The oracles deliberately avoid the package's decision routines: regularity
is checked by half-open parallelepiped enumeration, hulls by a monotone
chain, Legendre solvability by a plain triple loop and its first point by a
scan of every x of the Holzer box, x^2 + y^2 = n z^2 by the primes of n
that are 3 mod 4, point-set equality in R^1 by merged intervals, and
determinants, adjugates and ranks by permutation sums and Fraction
elimination, and rational solves and nullspaces by a Fraction Gauss-Jordan
pass.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

from afflat.core import UniAffMap, den, lift


def rand_unimodular(rng, n, steps=6, tmax=3):
    """Random element of the integer affine group via elementary row ops."""
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
    t = tuple(rng.randint(-tmax, tmax) for _ in range(n))
    return UniAffMap(tuple(tuple(r) for r in m), t)


def rand_point(rng, n, dmax=6, span=3):
    return tuple(Fraction(rng.randint(-span * dmax, span * dmax),
                          rng.randint(1, dmax)) for _ in range(n))


def rand_segment(rng, n, dmax=6, span=3):
    a = rand_point(rng, n, dmax, span)
    b = rand_point(rng, n, dmax, span)
    while b == a:
        b = rand_point(rng, n, dmax, span)
    return a, b


# --- small-matrix oracles ----------------------------------------------------

def leibniz_det(rows):
    """Determinant as the signed sum over all permutations (Leibniz)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def cofactor_adjugate(rows):
    """Adjugate as the transposed matrix of cofactors, each a Leibniz
    determinant."""
    n = len(rows)
    return [[(-1) ** (i + j) *
              leibniz_det([r[:i] + r[i + 1:] for k, r in enumerate(rows)
                           if k != j])
              for j in range(n)] for i in range(n)]


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction with row echelon form."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _rref(m, cols):
    """Gauss-Jordan elimination over the first cols columns of the Fraction
    matrix m (a list of row lists, reduced in place).  Each pivot column is
    cleared above and below its pivot, and pivot rows stay unnormalized, so
    readers divide by the pivot entry.  Returns the pivot columns; pivot i
    sits in row i."""
    pivots = []
    rank = 0
    for j in range(cols):
        if rank == len(m):
            break
        for piv in range(rank, len(m)):
            if m[piv][j]:
                break
        else:
            continue
        pr = m[piv]
        m[rank], m[piv] = pr, m[rank]
        for i, r in enumerate(m):
            if i != rank and r[j]:
                f = r[j] / pr[j]
                m[i] = [a - f * b if b else a for a, b in zip(r, pr)]
        pivots.append(j)
        rank += 1
    return pivots


def rational_solve(rows, rhs):
    """Solve rows . x = rhs over Q. Returns one solution or None.

    The system may be over- or under-determined; free variables are set to 0.
    """
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    cols = len(rows[0]) if rows else 0
    pivots = _rref(m, cols)
    for i in range(len(pivots), len(m)):
        if m[i][cols]:
            return None
    x = [Fraction(0)] * cols
    for i, j in enumerate(pivots):
        x[j] = m[i][cols] / m[i][j]
    return tuple(x)


def rational_nullspace(rows, cols=None):
    """Basis of {x : rows . x = 0} over Q (list of Fraction tuples), one
    vector per free column of the reduced row echelon form."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = _rref(m, cols)
    basis = []
    for j in range(cols):
        if j in pivots:
            continue
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -m[i][j] / m[i][pj]
        basis.append(tuple(v))
    return basis


# --- parallelepiped oracle (Minkowski criterion) -------------------------

def _tiny_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _tiny_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def parallelepiped_extends(vectors):
    """Minkowski criterion: the set extends to a basis iff the half-open
    parallelepiped contains no nonzero integer point.

    Coefficients come from an integer adjugate of k independent coordinate
    rows, with exact reconstruction of the remaining rows; no fractions.
    """
    k = len(vectors)
    m = len(vectors[0])
    corners = []
    for mask in product((0, 1), repeat=k):
        corners.append(tuple(sum(mask[i] * vectors[i][j] for i in range(k))
                             for j in range(m)))
    lo = [min(c[j] for c in corners) for j in range(m)]
    hi = [max(c[j] for c in corners) for j in range(m)]
    mat = [[vectors[j][i] for j in range(k)] for i in range(m)]  # m x k
    sel = None
    for rows in combinations(range(m), k):
        sub = [mat[i] for i in rows]
        d = _tiny_det(sub)
        if d != 0:
            sel = (rows, sub, d)
            break
    assert sel is not None, "oracle needs independent vectors"
    rows, sub, d = sel
    adj = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = [r[:i] + r[i + 1:] for t, r in enumerate(sub) if t != j]
            c = _tiny_det(minor)
            row.append(c if (i + j) % 2 == 0 else -c)
        adj.append(row)
    sign = 1 if d > 0 else -1
    dd = abs(d)
    others = [i for i in range(m) if i not in rows]
    # a point of the span is fixed by its coordinates in `rows`, so only
    # those are scanned over the box; the point lies in the parallelepiped
    # when its coefficients y / dd are in [0, 1), and then in the box too,
    # so it is a lattice point when the remaining coordinates are integers
    for xsel in product(*[range(lo[j], hi[j] + 1) for j in rows]):
        if all(t == 0 for t in xsel):
            continue
        y = [sign * sum(adj[i][j] * xsel[j] for j in range(k))
             for i in range(k)]
        if not all(0 <= yi < dd for yi in y):
            continue
        if all(sum(mat[j][i] * y[i] for i in range(k)) % dd == 0
               for j in others):
            return False
    return True


def regular_by_parallelepiped(simplex):
    return parallelepiped_extends([lift(v) for v in simplex])


# --- hull membership oracle (Caratheodory + Cramer sign tests) ------------

def _simplex_has(verts, x):
    """x in conv(verts) for affinely independent verts (False when they are
    dependent): x - v0 must kill every (d+1)-minor against the edge vectors,
    and its Cramer coefficients in a projection onto d coordinates where
    the simplex stays nondegenerate must be >= 0 and sum to <= 1."""
    n = len(x)
    d = len(verts) - 1
    diffs = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
    px = [a - b for a, b in zip(x, verts[0])]
    for cols in combinations(range(n), d):
        base = _tiny_det([[r[c] for c in cols] for r in diffs])
        if base:
            break
    else:
        return False
    if not in_span_by_minors(verts, x):
        return False
    nums = []
    for i in range(d):
        rows = [[r[c] for c in cols] for r in diffs]
        rows[i] = [px[c] for c in cols]
        nums.append(_tiny_det(rows))
    s = 1 if base > 0 else -1
    return all(t * s >= 0 for t in nums) and sum(nums) * s <= abs(base)


def in_span_by_minors(verts, x):
    """x in the affine span of affinely independent verts: x - v0 kills
    every (d+1)-minor against the d edge vectors v_i - v0."""
    diffs = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
    px = [a - b for a, b in zip(x, verts[0])]
    return not any(_tiny_det([[r[c] for c in cols] for r in diffs + [px]])
                   for cols in combinations(range(len(x)), len(verts)))


def in_hull_by_dets(points, x):
    """x in conv(points), by Caratheodory: x lies in the simplex of some
    affinely independent subset of the points."""
    pts = sorted(set(points))
    return any(_simplex_has(sub, x)
               for r in range(1, len(pts) + 1)
               for sub in combinations(pts, r))


# --- chain step oracle ----------------------------------------------------

def hj_step_oracle(x, b):
    """Smallest-denominator rational point z in conv(x, b] with conv(x, z)
    regular (regularity by the parallelepiped oracle); loops denominators
    upward until found."""
    n = len(x)
    d = tuple(bc - xc for xc, bc in zip(x, b))
    k = 0
    while True:
        k += 1
        lo = [math.ceil(min(x[i], b[i]) * k) for i in range(n)]
        hi = [math.floor(max(x[i], b[i]) * k) for i in range(n)]
        hits = []
        for combo in product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
            z = tuple(Fraction(c, k) for c in combo)
            t = None
            ok = True
            for zi, xi, di in zip(z, x, d):
                if di == 0:
                    if zi != xi:
                        ok = False
                        break
                else:
                    s = (zi - xi) / di
                    if t is None:
                        t = s
                    elif s != t:
                        ok = False
                        break
            if not ok or t is None or not (0 < t <= 1):
                continue
            if den(z) != k:
                continue
            if regular_by_parallelepiped((x, z)):
                hits.append(z)
        if hits:
            assert len(hits) == 1, "minimal-denominator successor not unique"
            return hits[0]


# --- boundary-hull oracle for 1-dimensional segments ----------------------

def _hull2d(points):
    """Monotone-chain convex hull of integer 2-d points, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hj_chain_by_hull(a, b):
    """Chain of conv(a, b) in R^1 read off the boundary of the hull of the
    nonzero integer points of the cone over the endpoint lifts."""
    la, lb = lift(a), lift(b)
    tri = (0, 0), la, lb

    def inside(p):
        # barycentric in conv(0, la, lb), exact
        det = la[0] * lb[1] - la[1] * lb[0]
        s = Fraction(p[0] * lb[1] - p[1] * lb[0], det)
        t = Fraction(la[0] * p[1] - la[1] * p[0], det)
        return s >= 0 and t >= 0 and s + t <= 1

    lo = [min(c[j] for c in tri) for j in range(2)]
    hi = [max(c[j] for c in tri) for j in range(2)]
    pts = []
    for x in product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
        if x != (0, 0) and inside(x):
            pts.append(x)
    hull = _hull2d(pts)
    if len(hull) <= 2:
        path = [la, lb]
    else:
        ia, ib = hull.index(la), hull.index(lb)
        path1 = [hull[(ia + t) % len(hull)]
                 for t in range((ib - ia) % len(hull) + 1)]
        path2 = [hull[(ia - t) % len(hull)]
                 for t in range((ia - ib) % len(hull) + 1)]
        # the far side is the single direct edge; the chain is the other walk
        path = path1 if len(path1) > len(path2) else path2
    # lattice points interior to path edges belong to the chain as well
    full = [path[0]]
    for u, w in zip(path, path[1:]):
        g = math.gcd(abs(w[0] - u[0]), abs(w[1] - u[1]))
        step = ((w[0] - u[0]) // g, (w[1] - u[1]) // g)
        for t in range(1, g + 1):
            full.append((u[0] + t * step[0], u[1] + t * step[1]))
    return tuple(Fraction(p[0], p[1]) for p in full)


# --- stellar desingularization oracle --------------------------------------

def _cramer(gens):
    """For independent integer generators: v -> (numerators, d) with the
    coefficients of v equal to numerators / d (d > 0), by Cramer's rule on
    the first invertible row subset; None when v is off their span."""
    t, m = len(gens), len(gens[0])
    for rows in combinations(range(m), t):
        sub = [[g[i] for g in gens] for i in rows]
        d = _tiny_det(sub)
        if d:
            break
    sign = 1 if d > 0 else -1
    # numerator j is the determinant of sub with column j replaced by v,
    # expanded along that column
    cof = [[sign * (-1) ** (k + j) *
            _tiny_det([r[:j] + r[j + 1:] for q, r in enumerate(sub) if q != k])
            for k in range(t)] for j in range(t)]

    def solve(v):
        vr = [v[i] for i in rows]
        nums = [sum(c * x for c, x in zip(row, vr)) for row in cof]
        if any(sum(c * g[i] for c, g in zip(nums, gens)) != abs(d) * v[i]
               for i in range(m)):
            return None
        return nums, abs(d)

    return solve


def box_parallelepiped_points(gens):
    """(coefficients, point) for every nonzero integer point of the half-open
    fundamental parallelepiped, by scanning its bounding box."""
    t, m = len(gens), len(gens[0])
    corners = [tuple(sum(mask[i] * gens[i][j] for i in range(t))
                     for j in range(m))
               for mask in product((0, 1), repeat=t)]
    lo = [min(c[j] for c in corners) for j in range(m)]
    hi = [max(c[j] for c in corners) for j in range(m)]
    solve = _cramer(gens)
    out = []
    for x in product(*[range(lo[j], hi[j] + 1) for j in range(m)]):
        sol = solve(x) if any(x) else None
        if sol is not None and all(0 <= c < sol[1] for c in sol[0]):
            out.append((tuple(Fraction(c, sol[1]) for c in sol[0]), x))
    return out


def _unit_cone(gens):
    """The generators extend to a basis: their maximal minors have gcd 1."""
    t, m = len(gens), len(gens[0])
    g = 0
    for rows in combinations(range(m), t):
        g = math.gcd(g, _tiny_det([[v[i] for v in gens] for i in rows]))
    return g == 1


def _primitive(v):
    g = math.gcd(*v)
    return tuple(a // g for a in v)


def stellar_desingularize(generators):
    """Regular fan of pos[generators] by repeated stellar subdivision at the
    box-scanned parallelepiped point with the least coefficient sum (ties by
    the point), until every cone extends to a basis."""
    fan = (tuple(sorted(_primitive(g) for g in generators)),)
    while True:
        target = next((c for c in fan if not _unit_cone(c)), None)
        if target is None:
            return fan
        p = _primitive(min(box_parallelepiped_points(target),
                           key=lambda sc: (sum(sc[0]), sc[1]))[1])
        new = set()
        for c in fan:
            sol = _cramer(c)(p)
            if sol is None or any(x < 0 for x in sol[0]):
                new.add(c)
                continue
            for i, coef in enumerate(sol[0]):
                if coef > 0:
                    new.add(tuple(sorted(c[:i] + c[i + 1:] + (p,))))
        fan = tuple(sorted(new))


# --- point sets in R^1 ------------------------------------------------------

def interval_union(P):
    """The union of a polyhedron in R^1 (points and segments) as its sorted,
    pairwise disjoint closed intervals (lo, hi), lo <= hi."""
    out = []
    for lo, hi in sorted((min(s)[0], max(s)[0]) for s in P):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# --- Legendre brute force --------------------------------------------------

def legendre_brute(p, q, r):
    """Plain triple loop over the Holzer box; returns solvability."""
    bx = math.isqrt(abs(q * r))
    by = math.isqrt(abs(p * r))
    bz = math.isqrt(abs(p * q))
    for x in range(0, bx + 1):
        for y in range(0, by + 1):
            for z in range(0, bz + 1):
                if (x, y, z) == (0, 0, 0):
                    continue
                if p * x * x + q * y * y + r * z * z == 0:
                    return True
    return False


def holzer_box_scan(p, q, r):
    """The first (x, y, z) with x, y in the Holzer box |x| <= sqrt|qr|,
    |y| <= sqrt|pr|, scanning y then every x, such that
    p x^2 + q y^2 + r z^2 = 0 with z >= 0; None when there is none."""
    bx = math.isqrt(abs(q * r))
    by = math.isqrt(abs(p * r))
    for y in range(0, by + 1):
        for x in range(0, bx + 1):
            if x == 0 and y == 0:
                continue
            t = -(p * x * x + q * y * y)
            if t % r:
                continue
            w = t // r
            if w < 0:
                continue
            z = math.isqrt(w)
            if z * z == w:
                return (x, y, z)
    return None


def trial_factor(n):
    """{prime: exponent} of n >= 1 by trial division by every k >= 2."""
    out = {}
    k = 2
    while k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_sum_of_two_squares(n):
    """Whether n >= 1 is a sum of two squares (of integers, equivalently of
    rationals): every prime 3 mod 4 divides it to an even power."""
    return all(e % 2 == 0 for p, e in trial_factor(n).items() if p % 4 == 3)


def apply_affine(matrix, translation, x):
    """x -> A x + t for a map given as plain (matrix, translation) rows."""
    return tuple(sum(a * c for a, c in zip(r, x)) + t
                 for r, t in zip(matrix, translation))
