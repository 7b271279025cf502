"""Rational simplicial cones and their desingularization.

A cone is a tuple of linearly independent primitive integer generators; a fan
is a tuple of cones of equal dimension subdividing the original cone.

A two-dimensional cone pos(p, q) is desingularized by its Hirzebruch-Jung
chain p = x_0, ..., x_N = q: consecutive vectors are a basis of the saturated
plane lattice, and x_{i-1} + x_{i+1} = b_i x_i with b_i >= 2.  A maximal
stretch of b_i = 2 is an arithmetic progression, so the chain is kept as runs
(start, step, count), each found with one division (_plane_runs; segments
reads its chains off the same runs, on the endpoint lifts).

In higher dimension, desingularization subdivides stellarly at the lattice
point of the half-open fundamental parallelepiped with the least coefficient
sum until every cone is regular.  The parallelepiped points are the |det|
cosets of the generator lattice, read off a column echelon form and reduced
into the parallelepiped through the adjugate, with no Fraction solve.  Like
the other grid searches, where denominator k scans about k^t points, the
enumeration is charged to the search budget per axis, as the t-th root of
|det| for t generators, before it starts; the least point is picked by the
integer numerators of the coefficients, with no list and no sort.  The fan
is a worklist: each cone gets its regularity test once, when it is created,
and the irregular ones wait in a set.  A subdivision step replaces the
cones containing the new ray by their joins with it.  The ray lies in the
relative interior of a face of the subdivided cone, so those cones are the
ones that have that face, found in an index from each ray to its cones
without solving for coordinates.
"""

from fractions import Fraction
from itertools import product
from operator import mul

from . import budget
from .core import coords_in_lattice_basis, saturated_span_basis
from .errors import InputError, InternalCheckError
from .intlinalg import (adjugate, column_echelon, det_int, is_part_of_basis,
                        span_solver, xgcd)
from .rationals import content, intvec


def cone(generators):
    """Normalize generators: primitive, linearly independent, sorted."""
    gens = []
    for g in generators:
        v = intvec(g)
        c = content(v)
        if c == 0:
            raise InputError("zero generator")
        gens.append(tuple(a // c for a in v))
    if len({len(g) for g in gens}) != 1:
        raise InputError("cone needs generators of one common length")
    try:
        span_solver(gens)
    except InputError:
        raise InputError("cone generators are linearly dependent") from None
    return tuple(sorted(gens))


def cone_coords(gens, v):
    """Rational coefficients of v over the generators, or None off-span."""
    sol = span_solver(gens)(v)
    if sol is None:
        return None
    y, d = sol
    return tuple(Fraction(c, d) for c in y)


def cone_contains(gens, v):
    sol = cone_coords(gens, v)
    return sol is not None and all(c >= 0 for c in sol)


def is_regular_cone(gens):
    return is_part_of_basis(list(gens), len(gens[0]))


def _walk_runs(p, q):
    """Runs (start, step, count) of the chain from p to q in Z^2, for
    primitive p and det[p, q] != 0; the chain visits start + j step for
    j < count in each run, then q.

    With h(x) = |det[x, q]|, which falls strictly along the chain, the
    successor of x after its predecessor w is b x - w, b = ceil(h(w) / h(x)).
    A run from x with step s (h falling by e per step) lasts h(x) // e steps
    and ends at z with h(z) = h(x) mod e; there b >= 3, so the step changes.
    """
    eps = 1 if p[0] * q[1] - p[1] * q[0] > 0 else -1

    def height(x):
        return eps * (x[0] * q[1] - x[1] * q[0])

    g, s, t = xgcd(p[0], p[1])
    if g != 1:
        raise InternalCheckError("chain vector lost primitivity")
    # det[p, w] = eps; the first successor is w + k p with the least k that
    # keeps it in the cone
    w = (-eps * t, eps * s)
    x, hx = p, height(p)
    k = -(height(w) // hx)
    y = (w[0] + k * x[0], w[1] + k * x[1])
    hy = height(y)
    runs = []
    while True:
        step = (y[0] - x[0], y[1] - x[1])
        e = hx - hy
        count = hx // e
        runs.append((x, step, count))
        z = (x[0] + count * step[0], x[1] + count * step[1])
        hz = hx - count * e
        if hz == 0:
            break
        b = -(-(hz + e) // hz)
        y = ((b - 1) * z[0] + step[0], (b - 1) * z[1] + step[1])
        x, hx, hy = z, hz, (b - 1) * hz - e
    if z != q:
        raise InternalCheckError("chain walk missed its end")
    return runs


def _plane_runs(p, q):
    """Maximal runs (start, step, count) of the Hirzebruch-Jung chain from p
    to q, linearly independent primitive integer vectors of any length: the
    walk runs in coordinates of the saturated lattice of their plane."""
    if len(p) == 2:
        return _walk_runs(p, q)
    basis = saturated_span_basis([p, q])
    if len(basis) != 2:
        raise InternalCheckError("chain ends span the wrong rank")
    b0, b1 = basis

    def embed(z):
        return tuple(z[0] * c0 + z[1] * c1 for c0, c1 in zip(b0, b1))

    runs = _walk_runs(coords_in_lattice_basis(basis, p),
                      coords_in_lattice_basis(basis, q))
    return [(embed(x), embed(s), c) for x, s, c in runs]


def _ceil_root(n, t):
    """Least r >= 0 with r**t >= n, for n >= 0 and t >= 1."""
    lo, hi = 0, 1 << (n.bit_length() // t + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** t >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cosets(gens):
    """|det| and the coefficient numerators r of the nonzero integer points
    sum_i (r_i / |det|) gens_i of the half-open fundamental parallelepiped
    of the generators, one tuple r at a time.

    They stand for the nonzero cosets of the generators' lattice in the
    saturated lattice of their span.  With C the generators' coordinates
    there (as columns), a column echelon form of C is triangular, and the
    box of its diagonal holds one representative y per coset.  With D =
    det C, (adj(C) y mod |D|) / |D| are the coefficients of the point of the
    coset of sign(D) y, and as y runs over all cosets so does sign(D) y.
    """
    t, m = len(gens), len(gens[0])
    if t == m:
        cols = gens
    else:
        basis = saturated_span_basis(gens)
        cols = [coords_in_lattice_basis(basis, g) for g in gens]
    mat = [[c[i] for c in cols] for i in range(t)]
    size = abs(det_int(mat))
    budget.check(_ceil_root(size, t), "cone multiplicity per axis")
    adj = adjugate(mat)
    hcols, _, pivots = column_echelon(mat)
    boxes = product(*[range(hcols[c][r]) for r, c in pivots])
    return size, (tuple(sum(map(mul, row, y)) % size for row in adj)
                  for y in boxes if any(y))


def _coset_point(gens, r, size):
    """The point sum_i (r_i / size) gens_i."""
    return tuple(sum(map(mul, r, coord)) // size for coord in zip(*gens))


def parallelepiped_points(gens):
    """Nonzero integer points of the half-open fundamental parallelepiped
    of the generators, as (coefficients, point) sorted by point."""
    size, cosets = _cosets(gens)
    return sorted(((tuple(Fraction(a, size) for a in r),
                    _coset_point(gens, r, size)) for r in cosets),
                  key=lambda sc: sc[1])


def _subdivision_point(gens):
    """(numerators, point) of the coset of the least coefficient sum, ties
    broken by the point.  The sums share the denominator |det|, so their
    numerators order them, and only a coset that ties the least sum so far
    needs its point."""
    size, cosets = _cosets(gens)
    best = None
    for r in cosets:
        s = sum(r)
        if best is None or s <= best[0]:
            key = (s, _coset_point(gens, r, size), r)
            if best is None or key < best:
                best = key
    return best[2], best[1]


def desingularize(generators):
    """Regular fan subdividing the simplicial cone pos[generators].

    Two generators: the cones between consecutive vectors of the chain.
    More: stellar-subdivides the least irregular cone at its parallelepiped
    point with minimal coefficient sum (lex ties) until every cone is
    regular; terminates because the subdivided cone's multiplicity strictly
    decreases.
    """
    start = cone(generators)
    if len(start) == 2:
        rays = [tuple(x + j * s for x, s in zip(x0, step))
                for x0, step, count in _plane_runs(*start)
                for j in range(count)]
        rays.append(start[1])
        return tuple(sorted(tuple(sorted(pair)) for pair in zip(rays, rays[1:])))
    fan = set()
    star = {}  # ray -> the cones of the fan that have it as a generator
    irregular = set()

    def add(c):
        fan.add(c)
        for g in c:
            star.setdefault(g, set()).add(c)
        if not is_regular_cone(c):
            irregular.add(c)

    add(start)
    while irregular:
        target = min(irregular)
        r, p = _subdivision_point(target)
        g = content(p)
        p = tuple(a // g for a in p)
        # p lies in the relative interior of the face of target spanned by
        # the generators of nonzero coefficient, a cone of the fan; so the
        # cones containing p are those with that face
        face = [x for x, a in zip(target, r) if a]
        for c in set.intersection(*[star[x] for x in face]):
            fan.discard(c)
            irregular.discard(c)
            for x in c:
                star[x].discard(c)
            # replaced by its joins with p: one generator of the face
            # swapped for p
            for x in face:
                i = c.index(x)
                add(tuple(sorted(c[:i] + c[i + 1:] + (p,))))
    return tuple(sorted(fan))


def fan_rays(fan):
    """Sorted primitive rays of a fan."""
    rays = set()
    for c in fan:
        rays.update(c)
    return tuple(sorted(rays))
