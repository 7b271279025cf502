"""The one-pass integer kernels against independent oracles: the
Gauss-Jordan determinant and adjugate, and det_int, against Leibniz sums, span_solver's
determinant against the maximal minors, integer ranks and the ranks of
point lifts against Fraction elimination, and the lattice coordinate
errors."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from afflat.core import lattice_coords, lift
from afflat.errors import InputError
from afflat.intlinalg import (_bareiss, _det_adj, det_int, integer_rank,
                              span_solver)

from helpers import cofactor_adjugate, fraction_rank, leibniz_det

F = Fraction


def _matrices(seed, count):
    """Seeded square integer matrices, n = 1..5: plain ones, ones with a
    zero leading pivot, ones whose first column is zero above a deep row
    (so pivoting swaps rows), and singular ones."""
    rng = random.Random(seed)
    for case in range(count):
        n = case % 5 + 1
        a = [[rng.choice((0, rng.randint(-4, 4), rng.randint(-60, 60)))
              for _ in range(n)] for _ in range(n)]
        shape = case // 5 % 4
        if shape == 1:
            a[0][0] = 0
        elif shape == 2 and n > 1:
            deep = rng.randrange(1, n)
            for i in range(n):
                a[i][0] = 0
            a[deep][0] = rng.choice((-3, -1, 1, 2))
        elif shape == 3:
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.randint(-3, 3)
            if n > 1 and i != j:
                a[i] = [c * x for x in a[j]]
            else:
                a[i] = [0] * n
        yield a


def test_det_adj_against_leibniz():
    singular = swapped = 0
    for a in _matrices(101, 1500):
        n = len(a)
        d, adj = _det_adj(a)
        assert d == leibniz_det(a) == det_int(a), a
        if d == 0:
            singular += 1
            assert adj is None, a
            continue
        assert adj == cofactor_adjugate(a), a
        assert all(sum(adj[i][k] * a[k][j] for k in range(n))
                   == (d if i == j else 0)
                   for i in range(n) for j in range(n))
        swapped += a[0][0] == 0
    assert singular > 100 and swapped > 100


def test_det_adj_examples():
    assert _det_adj([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert _det_adj([[2, 3], [4, 5]]) == (-2, [[5, -3], [-4, 2]])
    assert _det_adj([[7]]) == (7, [[1]])
    # the first column is zero: the pass stops there
    assert _det_adj([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == (0, None)
    assert _det_adj([[1, 2], [2, 4]]) == (0, None)


def test_span_solver_determinant_is_first_nonzero_maximal_minor():
    rng = random.Random(102)
    later = dependent = 0
    for case in range(400):
        m = rng.randint(1, 4)
        t = rng.randint(1, m)
        vecs = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(t)]
        if m > t and case % 2:
            # a zero first row and two equal rows make leading minors vanish
            for v in vecs:
                v[0] = 0
                v[1] = v[-1]
        vecs = [tuple(v) for v in vecs]
        minors = [leibniz_det([[v[i] for v in vecs] for i in rows])
                  for rows in combinations(range(m), t)]
        nonzero = [d for d in minors if d]
        if not nonzero:
            dependent += 1
            with pytest.raises(InputError):
                span_solver(vecs)
            continue
        later += minors[0] == 0
        solve = span_solver(vecs)
        coef = [rng.randint(-6, 6) for _ in range(t)]
        v = tuple(sum(c * w[i] for c, w in zip(coef, vecs)) for i in range(m))
        y, d = solve(v)
        assert d == nonzero[0], (vecs, minors)
        assert [F(c, d) for c in y] == coef
        if t < m:
            for e in range(m):
                probe = tuple(x + (i == e) for i, x in enumerate(v))
                if fraction_rank(vecs + [probe]) > t:
                    assert solve(probe) is None
                    break
    assert later > 20 and dependent > 20


def test_integer_rank_against_fraction_elimination():
    rng = random.Random(103)
    for _ in range(500):
        r, c = rng.randint(0, 5), rng.randint(1, 4)
        rows = [[rng.choice((0, rng.randint(-5, 5), rng.randint(-90, 90)))
                 for _ in range(c)] for _ in range(r)]
        if r > 2 and rng.random() < 0.5:  # a planted dependent row
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        if r > 1 and rng.random() < 0.2:  # a repeated row
            rows[-1] = list(rows[0])
        assert integer_rank(rows) == fraction_rank(rows), rows
        # below the pivots only: the pivots, d and sign of the full pass
        assert (_bareiss(list(rows), c, reduce=False)
                == _bareiss(list(rows), c)), rows


def _rand_point(rng, n):
    return tuple(F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 7)))
                 for _ in range(n))


def test_affine_rank_against_fraction_elimination():
    # the affine rank of points is one less than the rank of their lifts
    rng = random.Random(104)
    assert integer_rank([]) == 0
    for _ in range(400):
        n = rng.randint(1, 4)
        pts = [_rand_point(rng, n) for _ in range(rng.randint(1, n + 2))]
        if len(pts) > 2 and rng.random() < 0.5:
            # a planted affine dependency: weights with mixed denominators
            # summing to 1
            w = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in pts[:-2]]
            w.append(1 - sum(w))
            pts[-1] = tuple(sum(c * p[i] for c, p in zip(w, pts))
                            for i in range(n))
        if rng.random() < 0.3:
            pts.append(rng.choice(pts))  # a repeated point
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        expect = fraction_rank(rows) if rows else 0
        assert integer_rank([lift(p) for p in pts]) == expect + 1, pts


def test_lattice_coords_errors():
    coords = lattice_coords([(1, 1, 0), (1, -1, 0)])
    assert coords((3, 1, 0)) == (2, 1)
    assert coords((0, 0, 0)) == (0, 0)
    with pytest.raises(InputError, match="outside the lattice span"):
        coords((0, 0, 1))
    with pytest.raises(InputError, match="not in the lattice"):
        coords((1, 0, 0))
    # one solver answers every query, before and after a failed one
    assert coords((2, 0, 0)) == (1, 1)
    with pytest.raises(InputError, match="dependent"):
        lattice_coords([(1, 2), (2, 4)])
