import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from afflat import core
from afflat.convexity import _flat, _meet
from afflat.core import (UniAffMap, apply, complete_to_lattice_basis,
                         coords_in_lattice_basis, den, extends_to_basis,
                         farey_mediant, is_regular, lift, simplex_map,
                         unlift)
from afflat.errors import InputError, InternalCheckError
from afflat.intlinalg import det_int, invert_unimodular, nullspace
from afflat.rationals import coprime_fraction

from helpers import (_tiny_det, fraction_rank, parallelepiped_extends,
                     rand_point, rand_unimodular, rational_nullspace,
                     rational_solve)

F = Fraction


def test_den_examples():
    assert den((F(1, 2), F(1, 3))) == 6
    assert den((F(0), F(0))) == 1
    assert den((F(3, 5), F(0))) == 5


def _coprime_pairs(rng):
    """Seeded (n, d) with d > 0 and gcd(n, d) = 1: signs of both kinds,
    d = 1, and entries below and above 2^64."""
    pairs = [(0, 1), (1, 1), (-1, 1), (7, 3), (-7, 3), (2 ** 64 + 1, 1),
             (-(2 ** 70) - 1, 2 ** 64)]
    while len(pairs) < 200:
        bits = rng.choice((4, 30, 64, 100))
        n = rng.randint(-2 ** bits, 2 ** bits)
        d = 1 if rng.random() < 0.2 else rng.randint(1, 2 ** bits)
        if math.gcd(n, d) == 1:
            pairs.append((n, d))
    return pairs


def test_coprime_fraction_is_the_constructors_fraction():
    rng = random.Random(40)
    pairs = _coprime_pairs(rng)
    assert any(abs(n) > 2 ** 64 and d > 2 ** 64 for n, d in pairs)
    for n, d in pairs:
        assert d > 0 and math.gcd(n, d) == 1
        f, ref = coprime_fraction(n, d), F(n, d)
        assert type(f) is Fraction
        assert (f.numerator, f.denominator) == (ref.numerator, ref.denominator)
        assert f == ref and hash(f) == hash(ref) and repr(f) == repr(ref)
        m, e = rng.choice(pairs)
        other = F(m, e)
        assert f + other == ref + other and other + f == other + ref
        assert f * other == ref * other and other * f == other * ref
        assert (f < other) == (ref < other) and (other < f) == (other < ref)


def test_lift_examples():
    assert lift((F(1, 2), F(1, 3))) == (3, 2, 6)
    assert lift((F(5, 8),)) == (5, 8)
    assert lift((F(0),)) == (0, 1)


def test_unlift_examples():
    assert unlift((3, 2, 6)) == (F(1, 2), F(1, 3))
    assert unlift((5, 8)) == (F(5, 8),)
    assert unlift((0, 1)) == (F(0),)


def test_unlift_rejects_bad_input():
    with pytest.raises(InputError):
        unlift((2, 4, 6))  # not primitive
    with pytest.raises(InputError):
        unlift((1, -2))  # nonpositive last entry


def test_lift_unlift_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        p = rand_point(rng, rng.randint(1, 4))
        assert unlift(lift(p)) == p


def test_extends_to_basis_examples():
    assert extends_to_basis([(1, 0, 0)])
    assert not extends_to_basis([(2, 0), (0, 1)])
    assert extends_to_basis([(3, 2, 6)])


def test_extends_to_basis_rejects_dependent():
    with pytest.raises(InputError):
        extends_to_basis([(1, 2), (2, 4)])


def test_extends_to_basis_vs_parallelepiped_singles():
    # every nonzero vector with entries in [-4, 4], ambient m <= 3
    for m in (1, 2, 3):
        for v in product(range(-4, 5), repeat=m):
            if all(t == 0 for t in v):
                continue
            assert extends_to_basis([v]) == parallelepiped_extends([v])


def test_extends_to_basis_vs_parallelepiped_pairs_2d():
    vecs = [v for v in product(range(-4, 5), repeat=2) if any(v)]
    for a, b in combinations(vecs, 2):
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        assert extends_to_basis([a, b]) == parallelepiped_extends([a, b])


def test_extends_to_basis_vs_parallelepiped_pairs_3d():
    vecs = [v for v in product(range(-2, 3), repeat=3) if any(v)]
    rng = random.Random(5)
    sample = rng.sample(list(combinations(vecs, 2)), 1200)
    for a, b in sample:
        if fraction_rank([a, b]) != 2:
            continue
        assert extends_to_basis([a, b]) == parallelepiped_extends([a, b])


def test_extends_to_basis_vs_parallelepiped_triples_3d():
    vecs = [v for v in product(range(-1, 2), repeat=3) if any(v)]
    for a, b, c in combinations(vecs, 3):
        if det_int([a, b, c]) == 0:
            continue
        assert extends_to_basis([a, b, c]) == parallelepiped_extends([a, b, c])


def test_extends_to_basis_vs_parallelepiped_random_3d():
    rng = random.Random(9)
    done = 0
    while done < 300:
        k = rng.choice([2, 3])
        vs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(k)]
        try:
            got = extends_to_basis(vs)
        except InputError:
            continue
        assert got == parallelepiped_extends(vs)
        done += 1


def test_is_regular_examples():
    assert is_regular(((F(0),), (F(1, 2),)))
    assert not is_regular(((F(0),), (F(2, 5),)))
    assert is_regular(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))


def test_uniaffmap_validates_determinant():
    with pytest.raises(InputError):
        UniAffMap(((2, 0), (0, 1)), (0, 0))
    with pytest.raises(InputError):
        UniAffMap(((1, 0), (0, 1)), (0,))


def test_apply_examples():
    shift = UniAffMap(((1,),), (1,))
    assert apply(shift, (F(1, 2),)) == (F(3, 2),)
    swap = UniAffMap(((0, 1), (1, 0)), (0, 0))
    assert apply(swap, (F(1, 3), F(0))) == (F(0), F(1, 3))
    neg = UniAffMap(((-1,),), (0,))
    assert apply(neg, ((F(0),), (F(1),))) == ((F(0),), (F(-1),))


def test_apply_preserves_den_and_regularity():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(1, 4)
        g = rand_unimodular(rng, n)
        p = rand_point(rng, n)
        assert den(g(p)) == den(p)
    for _ in range(60):
        n = rng.randint(1, 3)
        g = rand_unimodular(rng, n)
        while True:
            pts = [rand_point(rng, n, 4, 2) for _ in range(rng.randint(1, n + 1))]
            try:
                from afflat.core import simplex
                s = simplex(pts)
            except InputError:
                continue
            break
        if is_regular(s):
            assert is_regular(tuple(g(v) for v in s))


def test_simplex_map_examples():
    g = simplex_map(((F(0),), (F(1),)), ((F(1),), (F(2),)))
    assert (g.matrix, g.translation) == (((1,),), (1,))
    g = simplex_map(((F(0),), (F(1),)), ((F(0),), (F(-1),)))
    assert (g.matrix, g.translation) == (((-1,),), (0,))
    V = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    W = ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    g = simplex_map(V, W)
    assert g.matrix == ((0, 1), (1, 0)) and g.translation == (0, 0)


def test_simplex_map_inverse_composition():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        g = rand_unimodular(rng, n)
        base = [tuple(F(1 if i == j else 0) for j in range(n))
                for i in range(n)] + [tuple(F(0) for _ in range(n))]
        V = tuple(base)
        W = tuple(g(v) for v in V)
        fwd = simplex_map(V, W)
        back = simplex_map(W, V)
        ident = fwd.compose(back)
        assert ident == UniAffMap.identity(n)


def test_simplex_map_recheck_fires_on_each_vertex(monkeypatch):
    # plant a wrong inverse of M_V that still gives a unimodular map fixing
    # the hyperplane at infinity, and moves the image of vertex i alone:
    # inv + z phi_i, phi_i the i-th row of the inverse (phi_i . L_k is 1 at
    # k = i, else 0), z with z_i = 0 and sum_j den_j z_j = 0, so that
    # M_W z has last entry 0.  The re-application check on the lifts must
    # catch vertex i, whichever i it is
    real = core.invert_unimodular
    V = ((F(1, 2), F(0)), (F(0), F(1)), (F(0), F(0)))
    W = tuple(UniAffMap(((2, 1), (1, 1)), (3, -1))(v) for v in V)
    assert simplex_map(V, W) is not None
    for i in range(3):
        def planted(m, i=i):
            inv = real(m)
            j, k = (x for x in range(3) if x != i)
            z = [0] * 3
            z[j], z[k] = m[2][k], -m[2][j]
            return tuple(tuple(a + z[r] * b for a, b in zip(inv[r], inv[i]))
                         for r in range(3))

        monkeypatch.setattr(core, "invert_unimodular", planted)
        with pytest.raises(InternalCheckError, match="re-application"):
            simplex_map(V, W)


def test_simplex_map_rejects_mismatched_dens():
    with pytest.raises(InputError):
        simplex_map(((F(0),), (F(1),)), ((F(0),), (F(1, 2),)))


def test_invert_unimodular_random():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 4)
        A = rand_unimodular(rng, n, steps=rng.randint(0, 12)).matrix
        inv = invert_unimodular(A)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for X, Y in ((A, inv), (inv, A)):
            prod = tuple(tuple(sum(X[i][t] * Y[t][j] for t in range(n))
                               for j in range(n)) for i in range(n))
            assert prod == eye
    with pytest.raises(InputError, match="singular"):
        invert_unimodular(((1, 2), (2, 4)))
    with pytest.raises(InputError, match="singular"):
        invert_unimodular(((1, 0, 0), (0, 0, 0), (0, 0, 1)))
    for bad in (((2,),), ((1, 1), (1, -1)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))):
        assert abs(_tiny_det([list(r) for r in bad])) == 2
        with pytest.raises(InputError, match="not unimodular"):
            invert_unimodular(bad)


def test_coords_in_lattice_basis_random():
    # integer combinations of random independent vectors come back exactly;
    # a vector of the span outside the lattice and one off the span raise
    rng = random.Random(30)
    for _ in range(60):
        m = rng.randint(2, 4)
        t = rng.randint(1, m)
        basis = []
        while len(basis) < t:
            v = tuple(rng.randint(-4, 4) for _ in range(m))
            if _rank(basis + [v]) == len(basis) + 1:
                basis.append(v)
        coef = tuple(rng.randint(-9, 9) for _ in range(t))
        v = tuple(sum(c * b[i] for c, b in zip(coef, basis)) for i in range(m))
        assert coords_in_lattice_basis(basis, v) == coef
    with pytest.raises(InputError, match="not in the lattice"):
        coords_in_lattice_basis([(2, 0), (0, 1)], (1, 0))
    with pytest.raises(InputError, match="not in the lattice"):
        coords_in_lattice_basis([(1, 1, 0), (1, -1, 0)], (1, 0, 0))
    with pytest.raises(InputError, match="outside the lattice span"):
        coords_in_lattice_basis([(1, 0, 0), (0, 1, 1)], (0, 1, 0))
    with pytest.raises(InputError, match="dependent"):
        coords_in_lattice_basis([(1, 2), (2, 4)], (1, 2))


def _rank(vectors):
    """Rank by the largest nonzero minor (tiny cofactor determinants)."""
    m = len(vectors[0]) if vectors else 0
    for k in range(len(vectors), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(len(vectors)), k):
                if _tiny_det([[vectors[j][i] for j in cols] for i in rows]):
                    return k
    return 0


def test_farey_mediant_examples():
    assert farey_mediant(((F(0),), (F(1),))) == (F(1, 2),)
    assert farey_mediant(((F(0),), (F(1, 2),))) == (F(1, 3),)
    tri = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    assert farey_mediant(tri) == (F(1, 3), F(1, 3))


def test_farey_mediant_rejects_irregular():
    with pytest.raises(InputError):
        farey_mediant(((F(0),), (F(2, 5),)))


def test_complete_to_lattice_basis():
    assert complete_to_lattice_basis([(1, 0)]) == [(1, 0), (0, 1)]
    full = complete_to_lattice_basis([(0, 1)])
    assert abs(det_int(list(zip(*full)))) == 1
    full = complete_to_lattice_basis([(3, 2, 6)])
    assert full[0] == (3, 2, 6)
    assert abs(det_int(list(zip(*full)))) == 1


def test_complete_to_lattice_basis_random():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 4)
        g = rand_unimodular(rng, n, tmax=0)
        cols = list(zip(*g.matrix))
        k = rng.randint(1, n - 1)
        part = [tuple(c) for c in cols[:k]]
        full = complete_to_lattice_basis(part)
        assert full[:k] == part
        assert abs(det_int(list(zip(*full)))) == 1


def rank_by_minors(rows):
    """Largest k with a nonzero k x k minor."""
    r, c = len(rows), len(rows[0])
    for k in range(min(r, c), 0, -1):
        for rs in combinations(range(r), k):
            for cs in combinations(range(c), k):
                if _tiny_det([[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def _solution_flat(rows, rhs):
    """The flat (convexity._flat) of {x : rows . x = rhs}, spanned by the
    Fraction oracle's solution and nullspace, or None when the system is
    inconsistent."""
    x = rational_solve(rows, rhs)
    if x is None:
        return None
    return _flat([lift(p) for p in [x] + [tuple(a + b for a, b in zip(x, v))
                                          for v in rational_nullspace(rows)]])


def _same_line(u, v):
    """u and v are nonzero multiples of each other."""
    i = next(i for i, a in enumerate(u) if a)
    return v[i] != 0 and all(a * v[i] == b * u[i] for a, b in zip(u, v))


def test_rational_elimination_against_minors():
    rng = random.Random(67)
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0
                 for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:  # a zero column
            j = rng.randrange(c)
            for row in rows:
                row[j] = 0
        if r > 2 and rng.random() < 0.4:  # a dependent row
            rows[-1] = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
        rank = rank_by_minors(rows)
        null = nullspace(rows, c)
        assert len(null) == c - rank
        assert all(dot(row, v) == 0 for row in rows for v in null)
        assert not null or rank_by_minors(null) == len(null)
        oracle = rational_nullspace(rows)
        assert len(oracle) == len(null)
        assert all(_same_line(u, v) for u, v in zip(oracle, null))
        # solves, through intersections of the rows' hyperplanes
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(c)]
        rhs = [dot(row, x0) for row in rows]
        flat = _solution_flat([[0] * c], [0])  # all of R^c
        assert flat == ()
        for row, b in zip(rows, rhs):
            if any(row):
                flat = _meet(flat, _solution_flat([row], [b]), c)
        assert len(flat) == rank
        assert not any(dot(r, lift(x0)) for r in flat)
        assert flat == _solution_flat(rows, rhs)
        # the sum of the rows with a shifted right-hand side is inconsistent
        total = [sum(col) for col in zip(*rows)]
        if any(total):
            assert _meet(flat, _solution_flat([total], [sum(rhs) + 1]),
                         c) is None
