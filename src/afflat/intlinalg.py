"""Exact integer linear algebra.

Column echelon form with a tracked unimodular transform does all the lattice
work: integer kernels, integer linear solves, basis completion, saturation.
Linear algebra over Q is fraction-free too.  One Gauss-Jordan pass on
integers (Bareiss, `_bareiss`) gives the determinant and the adjugate
together, behind `span_solver` and `invert_unimodular`, and the nullspace
of an integer matrix (`nullspace`); `det_int` and `integer_rank` read the
determinant and the rank off the same pass run below the pivots only.
"""

import math
from itertools import combinations
from operator import mul

from .errors import InputError


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a - (a // b) * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _bareiss(a, cols, reduce=True):
    """One fraction-free Gauss-Jordan pass (Bareiss), in place, over the first
    cols columns of the integer rows a; a column with no pivot left is
    skipped.  Every step divides exactly by the previous pivot, and at the
    end every pivot entry equals the last pivot d, so each pivot row is d
    times its reduced row echelon row.  Returns (pivots, d, sign): the pivot
    columns (pivot i in row i), d (1 when there is none) and the sign of
    the row permutation of the swaps.  With reduce=False only the rows
    below each pivot are eliminated, which leaves a row echelon form; the
    rows below evolve as in the full pass, so pivots, d and sign are the
    same."""
    pivots = []
    sign, prev, k = 1, 1, 0
    m = len(a)
    for j in range(cols):
        if k == m:
            break
        pk = a[k]
        if not pk[j]:
            for i in range(k + 1, m):
                if a[i][j]:
                    a[k], a[i] = a[i], pk
                    pk = a[k]
                    sign = -sign
                    break
            else:
                continue
        p = pk[j]
        for i in range(0 if reduce else k + 1, m):
            if i != k:
                r = a[i]
                f = r[j]
                a[i] = [(p * x - f * y) // prev for x, y in zip(r, pk)]
        pivots.append(j)
        prev = p
        k += 1
    return pivots, prev, sign


def _det_adj(rows):
    """(det, adj) of a square integer matrix, adj(A) A = det(A) I: the
    Bareiss pass over [A | I] ends at [det(PA) I | det(PA) A^-1] for the
    row permutation P of its swaps, so adj(A) is the right half times the
    sign of P.  A singular matrix gives (0, None)."""
    n = len(rows)
    a = [list(r) + [0] * n for r in rows]
    for i in range(n):
        a[i][n + i] = 1
    pivots, d, sign = _bareiss(a, n)
    if len(pivots) < n:
        return 0, None
    if sign < 0:
        return -d, [[-x for x in r[n:]] for r in a]
    return d, [r[n:] for r in a]


def det_int(rows):
    """Determinant of a square integer matrix: sign * d of one _bareiss pass
    below the pivots over a copy of the rows, 0 when a column has no
    pivot."""
    a = list(rows)
    pivots, d, sign = _bareiss(a, len(a), reduce=False)
    return sign * d if len(pivots) == len(a) else 0


def integer_rank(rows):
    """Rank over Q of an integer matrix given as a list of row sequences:
    the pivot count of one _bareiss pass below the pivots over a copy of
    the rows."""
    rows = list(rows)
    return len(_bareiss(rows, len(rows[0]), reduce=False)[0]) if rows else 0


def span_solver(vectors):
    """Integer coordinates, up to a common factor d, over independent vectors.

    Returns solve(v) -> (y, d) with sum_i y_i vectors_i = d v, where d is
    the determinant of the first invertible row subset R, in combinations
    order, of the matrix A with the vectors as columns and y = adj(A_R) v_R;
    solve(v) is None when v is off their span.  Raises InputError on
    dependent vectors.
    """
    vecs = [tuple(v) for v in vectors]
    t = len(vecs)
    m = len(vecs[0])
    for rows in combinations(range(m), t):
        d, adj = _det_adj([[v[i] for v in vecs] for i in rows])
        if d:
            break
    else:
        raise InputError("vectors are linearly dependent")
    checks = [(i, [v[i] for v in vecs]) for i in range(m) if i not in rows]

    def solve(v):
        vr = [v[i] for i in rows]
        y = [sum(map(mul, r, vr)) for r in adj]
        for i, row in checks:
            if sum(map(mul, row, y)) != d * v[i]:
                return None
        return y, d

    return solve


def nullspace(rows, cols):
    """Basis of {x : rows . x = 0} over Q for integer rows with cols
    columns: for each free column j of the Bareiss pass, the integer
    vector with d at j, -a_ij at each pivot column p_i and 0 elsewhere,
    which is d times the reduced row echelon basis vector."""
    a = [list(r) for r in rows]
    pivots, d, _ = _bareiss(a, cols)
    basis = []
    for j in range(cols):
        if j in pivots:
            continue
        v = [0] * cols
        v[j] = d
        for r, p in zip(a, pivots):
            v[p] = -r[j]
        basis.append(tuple(v))
    return basis


def column_echelon(rows):
    """Column echelon form of an integer matrix by unimodular column ops.

    rows: m x k integer matrix (list of row sequences).
    Returns (cols, ucols, pivots): cols are the k echelon columns (length m),
    ucols the k columns of the unimodular transform U with  A U = H, and
    pivots a list of (row, col) positions ordered top to bottom.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    cols = [[rows[i][j] for i in range(m)] for j in range(k)]
    ucols = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    pivots = []
    r = 0
    for i in range(m):
        if r == k:
            break
        nz = [j for j in range(r, k) if cols[j][i] != 0]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a, b = cols[j0][i], cols[j][i]
            g, x, y = xgcd(a, b)
            c0, cj = cols[j0], cols[j]
            u0, uj = ucols[j0], ucols[j]
            cols[j0] = [x * p + y * q for p, q in zip(c0, cj)]
            cols[j] = [(a // g) * q - (b // g) * p for p, q in zip(c0, cj)]
            ucols[j0] = [x * p + y * q for p, q in zip(u0, uj)]
            ucols[j] = [(a // g) * q - (b // g) * p for p, q in zip(u0, uj)]
        cols[r], cols[j0] = cols[j0], cols[r]
        ucols[r], ucols[j0] = ucols[j0], ucols[r]
        if cols[r][i] < 0:
            cols[r] = [-a for a in cols[r]]
            ucols[r] = [-a for a in ucols[r]]
        pivots.append((i, r))
        r += 1
    return cols, ucols, pivots


def integer_kernel(rows, cols=None):
    """Basis of the integer kernel {x in Z^k : rows . x = 0}.

    The returned basis spans a saturated sublattice (it extends to a basis
    of Z^k), as the transform columns of an echelon form always do.
    """
    if cols is not None and not rows:
        return [tuple(1 if i == j else 0 for i in range(cols))
                for j in range(cols)]
    hcols, ucols, pivots = column_echelon(rows)
    r = len(pivots)
    return [tuple(u) for u in ucols[r:]]


def solve_integer(rows, rhs):
    """One integer solution of rows . x = rhs, or None if there is none."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    if m == 0:
        return tuple([0] * k)
    hcols, ucols, pivots = column_echelon(rows)
    resid = list(rhs)
    y = [0] * k
    for i, c in enumerate(pivots):
        ri, ci = c
        piv = hcols[ci][ri]
        if resid[ri] % piv:
            return None
        q = resid[ri] // piv
        y[ci] = q
        for t in range(m):
            resid[t] -= q * hcols[ci][t]
    if any(resid):
        return None
    x = [0] * k
    for c in range(k):
        if y[c]:
            for t in range(k):
                x[t] += y[c] * ucols[c][t]
    return tuple(x)


def complete_basis(vectors, m):
    """Complete part of a basis of Z^m to a full basis.

    vectors: k linearly independent integer vectors in Z^m that extend to a
    basis (raises InputError otherwise).  Returns m vectors: the inputs
    followed by m - k completion vectors; the m x m matrix they form as
    columns has determinant +-1.
    """
    vecs = [tuple(v) for v in vectors]
    k = len(vecs)
    if k > m:
        raise InputError("more vectors than the ambient rank")
    # Row-reduce the m x k matrix A (columns = vectors) by unimodular row
    # ops, tracking V = U^-1 by columns: completion = last m-k columns of V.
    a = [[vecs[j][i] for j in range(k)] for i in range(m)]
    vcols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    for j in range(k):
        nz = [i for i in range(j, m) if a[i][j] != 0]
        if not nz:
            raise InputError("vectors are linearly dependent")
        i0 = nz[0]
        for i in nz[1:]:
            p, q = a[i0][j], a[i][j]
            g, x, y = xgcd(p, q)
            r0, ri = a[i0], a[i]
            a[i0] = [x * s + y * t for s, t in zip(r0, ri)]
            a[i] = [(p // g) * t - (q // g) * s for s, t in zip(r0, ri)]
            # V <- V E^-1 for E = [[x, y], [-q/g, p/g]] on rows (i0, i):
            # inverse is [[p/g, -y], [q/g, x]], acting on columns (i0, i).
            v0, vi = vcols[i0], vcols[i]
            vcols[i0] = [(p // g) * s + (q // g) * t for s, t in zip(v0, vi)]
            vcols[i] = [-y * s + x * t for s, t in zip(v0, vi)]
        if i0 != j:
            a[j], a[i0] = a[i0], a[j]
            vcols[j], vcols[i0] = vcols[i0], vcols[j]
        if a[j][j] < 0:
            a[j] = [-t for t in a[j]]
            vcols[j] = [-t for t in vcols[j]]
        if a[j][j] != 1:
            raise InputError("vectors do not extend to a basis of Z^%d" % m)
    return vecs + [tuple(vcols[j]) for j in range(k, m)]


def minor_gcd(vectors, m):
    """gcd of all maximal minors of the matrix with the given columns;
    0 exactly when the vectors are linearly dependent."""
    t = list(zip(*vectors))
    g = 0
    for rows in combinations(range(m), len(vectors)):
        g = math.gcd(g, det_int([t[i] for i in rows]))
        if g == 1:
            return 1
    return g


def is_part_of_basis(vectors, m):
    """True iff the vectors extend to a basis of Z^m.

    Decided by the gcd of all maximal minors (Smith-criterion); raises
    InputError on linearly dependent input.
    """
    vecs = [tuple(v) for v in vectors]
    k = len(vecs)
    if k == 0:
        return True
    if k > m:
        raise InputError("vectors are linearly dependent")
    g = minor_gcd(vecs, m)
    if g == 0:
        raise InputError("vectors are linearly dependent")
    return g == 1


def invert_unimodular(rows):
    """Inverse of an integer matrix with determinant +-1 (integer result):
    det(A) adj(A), since 1/det = det for a unit."""
    d, adj = _det_adj(rows)
    if d == 0:
        raise InputError("matrix is singular")
    if d not in (1, -1):
        raise InputError("matrix is not unimodular")
    return tuple(tuple(d * a for a in row) for row in adj)


def mat_vec(rows, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in bt) for r in a)
