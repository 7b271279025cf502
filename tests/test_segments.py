import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from afflat import segments
from afflat.complexes import Triangulation, blow_up
from afflat.core import den, farey_mediant, is_regular, lift
from afflat.errors import InputError, InternalCheckError
from afflat.rationals import vadd
from afflat.segments import (_chain_runs, _side_with_witness,
                             _witness_decision, hj_chain, lambda1,
                             lambda1_via, segment_equivalence, side_invariant)

from helpers import (_tiny_det, apply_affine, hj_chain_by_hull, hj_step_oracle,
                     rand_point, rand_segment, rand_unimodular)

F = Fraction


def seg1(a, b):
    return (F(a),), (F(b),)


def test_hj_examples():
    assert hj_chain(*seg1(0, 1)) == ((F(0),), (F(1),))
    assert hj_chain((F(-1, 2),), (F(5, 8),)) == \
        ((F(-1, 2),), (F(0),), (F(1, 2),), (F(3, 5),), (F(5, 8),))
    assert hj_chain((F(0),), (F(2, 5),)) == ((F(0),), (F(1, 3),), (F(2, 5),))


def test_hj_rejects_degenerate():
    with pytest.raises(InputError):
        hj_chain((F(1),), (F(1),))


def test_hj_cells_regular_and_unique():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.choice([1, 2])
        a, b = rand_segment(rng, n, 6, 2)
        chain = hj_chain(a, b)
        assert chain[0] == a and chain[-1] == b
        assert chain == hj_chain(a, b)
        for x, y in zip(chain, chain[1:]):
            assert is_regular((x, y))


def test_hj_against_step_oracle():
    rng = random.Random(21)
    cases = [((F(-1, 2),), (F(5, 8),)), ((F(0),), (F(2, 5),)),
             ((F(3, 5), F(0)), (F(1), F(1)))]
    while len(cases) < 15:
        n = rng.choice([1, 2])
        a, b = rand_segment(rng, n, 12, 1)
        if all(abs(x - y) <= 2 for x, y in zip(a, b)):
            cases.append((a, b))
    for a, b in cases:
        chain = hj_chain(a, b)
        for x, y in zip(chain, chain[1:]):
            assert hj_step_oracle(x, b) == y


def test_hj_against_hull_oracle():
    rng = random.Random(22)
    cases = [((F(-1, 2),), (F(5, 8),)), ((F(0),), (F(1),)),
             ((F(0),), (F(2),)), ((F(0),), (F(2, 5),))]
    for _ in range(30):
        cases.append(rand_segment(rng, 1, 8, 2))
    # and segments of length up to 60
    for _ in range(40):
        q = rng.randint(1, 7)
        alpha = F(rng.randint(-30 * q, 30 * q), q)
        beta = alpha + F(rng.choice((-1, 1)) * rng.randint(1, 60 * q),
                         rng.randint(1, 7))
        cases.append(((alpha,), (beta,)))
    for a, b in cases:
        assert tuple(x[0] for x in hj_chain(a, b)) == hj_chain_by_hull(a, b)


def test_lambda1_examples():
    assert lambda1(*seg1(0, 1)) == 1
    assert lambda1((F(-1, 2),), (F(5, 8),)) == F(9, 8)
    assert lambda1((F(0),), (F(2, 5),)) == F(2, 5)


def test_lambda1_closed_form_on_the_line():
    rng = random.Random(23)
    for _ in range(500):
        a, b = rand_segment(rng, 1, 50, 1)
        if a > b:
            a, b = b, a
        assert lambda1(a, b) == b[0] - a[0]


def test_lambda1_group_invariance():
    rng = random.Random(24)
    for _ in range(100):
        a, b = rand_segment(rng, 2, 6, 2)
        g = rand_unimodular(rng, 2)
        assert lambda1(g(a), g(b)) == lambda1(a, b)


def test_lambda1_blowup_independence():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.choice([1, 2])
        a, b = rand_segment(rng, n, 6, 2)
        tri = Triangulation([(x, y) for x, y in
                             zip(hj_chain(a, b), hj_chain(a, b)[1:])])
        for _ in range(rng.randint(1, 4)):
            cell = rng.choice(tri.maximal)
            tri = blow_up(tri, cell)
        assert lambda1_via(a, b, tri) == lambda1(a, b)


def test_lambda1_via_examples():
    tri = Triangulation([seg1(0, F(1, 2)), seg1(F(1, 2), 1)])
    assert lambda1_via(*seg1(0, 1), tri) == 1
    base = Triangulation([((F(0),), (F(1, 2),))])
    tri2 = blow_up(base, ((F(0),), (F(1, 2),)))
    assert lambda1_via((F(0),), (F(1, 2),), tri2) == F(1, 2)
    hjtri = Triangulation([(x, y) for x, y in
                           zip(hj_chain((F(-1, 2),), (F(5, 8),)),
                               hj_chain((F(-1, 2),), (F(5, 8),))[1:])])
    assert lambda1_via((F(-1, 2),), (F(5, 8),), hjtri) == F(9, 8)


def test_lambda1_via_rejects_bad_support():
    tri = Triangulation([seg1(0, F(1, 2))])
    with pytest.raises(InputError):
        lambda1_via(*seg1(0, 1), tri)
    irregular = Triangulation([seg1(0, F(2, 5)), (( F(2, 5),), (F(1),))])
    with pytest.raises(InputError):
        lambda1_via(*seg1(0, 1), irregular)


def test_lambda1_monotone_on_nested_segments():
    rng = random.Random(26)
    for _ in range(40):
        n = rng.choice([1, 2])
        a, b = rand_segment(rng, n, 5, 2)
        t = F(rng.randint(1, 5), rng.randint(6, 9))
        mid = tuple(ac + t * (bc - ac) for ac, bc in zip(a, b))
        if mid == a or mid == b:
            continue
        assert lambda1(a, mid) < lambda1(a, b)


def test_blow_up_examples():
    t = blow_up(Triangulation([seg1(0, 1)]), seg1(0, 1))
    assert t == Triangulation([seg1(0, F(1, 2)), seg1(F(1, 2), 1)])
    t = blow_up(Triangulation([seg1(0, F(1, 2))]), seg1(0, F(1, 2)))
    assert t == Triangulation([seg1(0, F(1, 3)), seg1(F(1, 3), F(1, 2))])
    unit = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    t = blow_up(Triangulation([unit]), unit)
    med = farey_mediant(unit)
    assert len(t.maximal) == 3
    for cell in t.maximal:
        assert med in cell
        assert is_regular(cell)


def test_blow_up_requires_membership():
    with pytest.raises(InputError):
        blow_up(Triangulation([seg1(0, 1)]), seg1(2, 3))


def test_side_invariant_examples():
    assert side_invariant(*seg1(0, 1)) == (1, F(1), 1, 1)
    assert side_invariant((F(0),), (F(1, 2),)) == (1, F(1, 2), 1, 2)
    assert side_invariant((F(-1, 2),), (F(5, 8),)) == (1, F(9, 8), 2, 1)


def test_side_invariant_orientation_sensitive():
    a, b = (F(0),), (F(1, 2),)
    assert side_invariant(a, b) != side_invariant(b, a)


def test_segment_equivalence_examples():
    g = segment_equivalence(seg1(0, 1), seg1(3, 4))
    assert (g.matrix, g.translation) == (((1,),), (3,))
    assert segment_equivalence(seg1(0, 1), seg1(0, 2)) is None
    g = segment_equivalence(((F(0),), (F(1, 2),)), ((F(1),), (F(1, 2),)))
    assert (g.matrix, g.translation) == (((-1,),), (1,))


def test_segment_equivalence_roundtrips():
    rng = random.Random(27)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        a, b = rand_segment(rng, n, 6, 2)
        g = rand_unimodular(rng, n)
        m = segment_equivalence((a, b), (g(a), g(b)))
        assert m is not None
        assert m(a) == g(a) and m(b) == g(b)


def moved(q):
    """The lift of q's point moved by the first unit vector: primitive, with
    the same last entry, and a different point."""
    return (q[0] + q[-1],) + q[1:]


def test_witness_decision_checks_every_mark():
    # the marks are the lifts of each run's start and start + step, then
    # lift(b); a map that misses any one of them is refused
    rng = random.Random(40)
    for n in (1, 2, 2, 3, 3):
        a, b = rand_segment(rng, n, 7, 3)
        g = rand_unimodular(rng, n)
        found1 = _side_with_witness(a, b)
        inv, wit, marks = found2 = _side_with_witness(g(a), g(b))
        runs = _chain_runs(g(a), g(b))[2]
        chain = marks["the chain"]
        assert chain == tuple(q for start, step, _ in runs
                              for q in (start, vadd(start, step))) + (
            lift(g(b)),)
        assert _witness_decision(found1, found2) is not None
        for i, q in enumerate(chain):
            bad = {"the chain": chain[:i] + (moved(q),) + chain[i + 1:]}
            with pytest.raises(InternalCheckError, match="the chain"):
                _witness_decision(found1, (inv, wit, bad))


def test_side_invariant_builds_no_point(monkeypatch):
    # without a witness the side is decided on the chain's lifts alone:
    # nothing is unlifted and no extension is built
    rng = random.Random(41)
    cases = [rand_segment(rng, n, 7, 3) for n in (2, 2, 3, 3)]
    expected = [_side_with_witness(a, b)[0] for a, b in cases]

    def refuse(*a):
        raise AssertionError("a point was built")

    monkeypatch.setattr(segments, "unlift", refuse)
    monkeypatch.setattr(segments, "extend_frame", refuse)
    for (a, b), inv in zip(cases, expected):
        assert _side_with_witness(a, b, witness=False)[1] is None
        assert side_invariant(a, b) == inv


def segment_witness_corpus():
    """8 pairs in R^1-R^3, mostly R^2 and R^3 (where c comes from a
    codimension-one or a searched extension): a segment and its image under
    a random map; the third of every four is reversed and the fourth has a
    random second endpoint."""
    rng = random.Random(11)
    cases = []
    for i, n in enumerate((2, 3, 2, 3, 2, 1, 3, 2)):
        a, b = rand_segment(rng, n, 5, 2)
        g = rand_unimodular(rng, n)
        a2, b2 = g(a), g(b)
        if i % 4 == 2:
            a2, b2 = b2, a2
        while i % 4 == 3 and b2 in (g(b), a2):
            b2 = rand_point(rng, n, 5, 2)
        cases.append(((a, b), (a2, b2)))
    return cases


# (matrix, translation) per segment_witness_corpus case, or None; recorded
# from the implementation that recomputed every invariant per decision
PINNED_SEGMENT_WITNESSES = [
    (((2821, 375), (-3152, -419)), (-2631, 2937)),
    (((9801, 14116, 30345),
      (-4258, -6132, -13181),
      (1585, 2283, 4908)),
     (-82, 33, -14)),
    None,
    None,
    (((-2367617, -6562424), (-897091, -2486505)), (-2547768, -965352)),
    (((-1,),), (-2,)),
    None,
    None,
]


def test_segment_equivalence_pinned_witnesses():
    for ((a, b), (a2, b2)), pinned in zip(segment_witness_corpus(),
                                          PINNED_SEGMENT_WITNESSES):
        g = segment_equivalence((a, b), (a2, b2))
        if pinned is None:
            assert g is None
            continue
        assert (g.matrix, g.translation) == pinned
        A, t = pinned
        assert _tiny_det([list(r) for r in A]) in (1, -1)
        assert apply_affine(A, t, a) == a2 and apply_affine(A, t, b) == b2


# --- run-length chains ------------------------------------------------------

def canonical_corpus():
    """Canonical R^1 segments alpha -> beta of lattice length about 1 to 1e4,
    in both orientations, with integer and non-integer endpoints (small
    denominators on the longest, to keep the hull oracle cheap)."""
    rng = random.Random(28)
    cases = []
    for length in (1, 2, 7, 60, 500, 3000, 10 ** 4):
        dmax = 2 if length > 1000 else 6
        for integral in (True, False):
            alpha = F(rng.randint(-9, 9))
            if not integral:
                alpha += F(rng.randint(1, dmax - 1), dmax)
            beta = alpha + length + F(rng.randint(0, dmax - 1), dmax)
            cases += [(alpha, beta), (beta, alpha)]
    return cases


def test_hj_runs_expand_to_oracle_chains():
    rng = random.Random(29)
    for i, (alpha, beta) in enumerate(canonical_corpus()):
        want = hj_chain_by_hull((alpha,), (beta,))
        assert tuple(x[0] for x in hj_chain((alpha,), (beta,))) == want
        # the same segment at an integer height in R^2 or R^3, presented by
        # a random map; the oracle chain is mapped on integer lifts
        n = 2 + i % 2
        g = rand_unimodular(rng, n)
        A, t = g.matrix, g.translation
        z = tuple(rng.randint(-3, 3) for _ in range(n - 1))
        a = apply_affine(A, t, (alpha,) + z)
        b = apply_affine(A, t, (beta,) + z)
        mapped = []
        for x in want:
            num = (x.numerator,) + tuple(c * x.denominator for c in z)
            mapped.append(tuple(sum(r * c for r, c in zip(row, num)) + s * x.denominator
                                for row, s in zip(A, t)) + (x.denominator,))
        assert [lift(x) for x in hj_chain(a, b)] == mapped


def _lift_map(rows, q):
    """The integer lift rows . q, one row per coordinate, the last one the
    denominator."""
    return tuple(r0 * q[0] + r1 * q[1] for r0, r1 in rows)


# (rows of an integer map from the lifts of R^1 onto the lifts of a line in
# R^n, 1-D segments carried onto that line): axis-parallel lines through
# integer and half-integer points, a line of integer slope and a line of
# least denominator 3, with long integer runs and runs of varying denominator
RUN_SHAPE_LINES = (
    (((1, 0), (0, 3), (0, 1)), ((F(-5), F(2995)), (F(7, 2), F(-60)))),
    (((0, -2), (1, 0), (0, 5), (0, 1)), ((F(1, 3), F(2000)), (F(9), F(2, 5)))),
    (((1, 0), (0, 1), (0, 2)), ((F(0), F(80)), (F(-7, 4), F(301, 3)))),
    (((1, 0), (2, 7), (0, 1)), ((F(-5), F(2995)), (F(60, 7), F(-1, 2)))),
    (((1, 0), (0, -4), (3, 1), (0, 1)), ((F(3000), F(0)), (F(1, 6), F(13)))),
    (((1, 0), (0, 1), (0, 3)), ((F(-7, 4), F(91, 3)), (F(0), F(500)))),
)


def test_hj_run_shapes_against_hull_oracle():
    # every shape a run's coordinate can take: constant over a constant
    # denominator (axis-parallel lines), varying over denominator 1 (integer
    # runs), varying over a constant denominator > 1, and varying denominator
    shapes = set()
    for rows, segs in RUN_SHAPE_LINES:
        # the map is onto the lattice of the line's lifts: its 2x2 minors
        # are coprime
        minors = [p[0] * q[1] - p[1] * q[0]
                  for i, p in enumerate(rows) for q in rows[i + 1:]]
        assert math.gcd(*minors) == 1
        for alpha, beta in segs:
            want = [_lift_map(rows, lift((x,)))
                    for x in hj_chain_by_hull((alpha,), (beta,))]
            a = tuple(F(c, want[0][-1]) for c in want[0][:-1])
            b = tuple(F(c, want[-1][-1]) for c in want[-1][:-1])
            chain = hj_chain(a, b)
            assert [lift(x) for x in chain] == want
            assert all(type(c) is Fraction for x in chain for c in x)
            assert hj_chain(b, a) == chain[::-1]
            # (denominator varies, starts at 1, coordinate varies)
            for start, step, _ in _chain_runs(a, b)[2]:
                shapes.update((step[-1] != 0, start[-1] == 1, c != 0)
                              for c in step[:-1])
    assert {(False, True, False), (False, False, False), (False, True, True),
            (False, False, True), (True, False, True)} <= shapes
    # the half-integer line y = 1/2: one run of constant denominator 2, so x
    # takes the general path and y is one shared Fraction
    a, b = (F(0), F(1, 2)), (F(40), F(1, 2))
    assert _chain_runs(a, b)[2] == [((0, 1, 2), (1, 0, 0), 80)]
    chain = hj_chain(a, b)
    assert chain == tuple((F(j, 2), F(1, 2)) for j in range(81))
    assert all(type(c) is Fraction for x in chain for c in x)


def test_hj_runs_expand_to_step_oracle_in_r3():
    rng = random.Random(30)
    done = 0
    while done < 8:
        a, b = rand_segment(rng, 3, 4, 1)
        if any(abs(x - y) > 1 for x, y in zip(a, b)):
            continue
        chain = hj_chain(a, b)
        for x, y in zip(chain, chain[1:]):
            assert hj_step_oracle(x, b) == y
        assert hj_chain(b, a) == chain[::-1]
        done += 1


def _cf_length(p, q):
    """Number of partial quotients of the regular continued fraction p/q."""
    n = 0
    while q:
        p, q = q, p % q
        n += 1
    return n


def _bezout(x, y):
    """(s, t) with s x + t y = 1 for coprime x, y."""
    if y == 0:
        return (1 if x == 1 else -1), 0
    s, t = _bezout(y, x % y)
    return t, s - (x // y) * t


def test_run_count_within_continued_fraction_length():
    # pos(p, q) is the cone of type n/k: n = |det[p, q]|, q = k p mod n.
    # Its Hirzebruch-Jung coefficients other than 2 come one per two partial
    # quotients of n/k, and each ends a run; runs are maximal
    rng = random.Random(31)
    for _ in range(400):
        alpha = F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** rng.randint(0, 6)))
        beta = alpha + F(rng.randint(1, 10 ** rng.randint(1, 30)),
                         rng.randint(1, 10 ** rng.randint(0, 6)))
        if rng.random() < 0.5:
            alpha, beta = beta, alpha
        p, q = lift((alpha,)), lift((beta,))
        n = abs(p[0] * q[1] - p[1] * q[0])
        s, t = _bezout(*p)
        k = (s * q[0] + t * q[1]) % n
        runs = _chain_runs((alpha,), (beta,))[2]
        assert len(runs) <= (_cf_length(n, k) + 1) // 2 + 1
        assert all(r[1] != s[1] for r, s in zip(runs, runs[1:]))
        g = rand_unimodular(rng, 2)
        a, b = g((alpha, F(1))), g((beta, F(1)))
        assert len(_chain_runs(a, b)[2]) == len(runs)


def test_hj_closed_form_one_run_of_varying_denominator():
    # the chain of conv(0, N/(N+1)) is k/(k+1), k <= N: one run whose
    # denominator grows by 1, so every vertex is reduced by a gcd
    n = 2000
    a, b = (F(0),), (F(n, n + 1),)
    assert _chain_runs(a, b)[2] == [((0, 1), (1, 1), n)]
    assert hj_chain(a, b) == tuple((F(k, k + 1),) for k in range(n + 1))


def _long_lines(rng):
    """Segments of lattice length 1000-3000 in R^2 and R^3 with the second
    coordinate constant, integer or not, and endpoints of small
    denominator: runs of a shared constant, integer runs and runs reduced
    by a gcd."""
    out = []
    for n in (2, 3):
        for z in (F(rng.randint(-5, 5)), F(rng.randint(-5, 5), 2),
                  F(rng.randint(1, 6), 7)):
            alpha = F(rng.randint(-20, 20), rng.randint(1, 3))
            beta = alpha + F(rng.randint(1000, 3000), rng.randint(1, 3))
            k, m = rng.randint(1, 3), rng.randint(-4, 4)
            a, b = ((t, z) + ((k * t + m,) if n == 3 else ())
                    for t in (alpha, beta))
            out += [(a, b), (b, a)]
    return out


def test_hj_coordinates_are_reduced_fractions():
    shapes = set()
    for a, b in _long_lines(random.Random(39)):
        chain = hj_chain(a, b)
        runs = _chain_runs(a, b)[2]
        # each vertex as Fraction's constructor builds it from the runs
        want = [tuple(F(x + j * s, start[-1] + j * step[-1])
                      for x, s in zip(start[:-1], step[:-1]))
                for start, step, count in runs for j in range(count)]
        assert chain == tuple(want) + (b,)
        for start, step, _ in runs:
            shapes.update((step[-1] == 0, start[-1] == 1, s == 0)
                          for s in step[:-1])
        for x in chain:
            for c in x:
                num, d = c.numerator, c.denominator
                assert type(c) is Fraction
                assert d > 0 and math.gcd(num, d) == 1
                ref = F(num, d)
                assert c == ref and hash(c) == hash(ref)
                assert repr(c) == repr(ref)
        back = pickle.loads(pickle.dumps(chain))
        assert back == chain and repr(back) == repr(chain)
        assert all(type(c) is Fraction for x in back for c in x)
    # shared constants over denominators 1 and > 1, integer runs, and
    # gcd-reduced runs of constant and of varying denominator
    assert {(True, True, True), (True, False, True), (True, True, False),
            (True, False, False), (False, False, False)} <= shapes


def test_lambda1_closed_form_on_long_segments():
    rng = random.Random(32)
    for alpha, beta in canonical_corpus() + [(F(1, 3), F(10 ** 30)),
                                             (F(10 ** 30, 7), F(-5, 2))]:
        assert lambda1((alpha,), (beta,)) == abs(beta - alpha)
        g = rand_unimodular(rng, 3)
        a, b = g((alpha, F(2), F(-1))), g((beta, F(2), F(-1)))
        assert lambda1(a, b) == abs(beta - alpha)


def test_side_invariant_and_equivalence_at_length_1e30():
    rng = random.Random(33)
    for n in (1, 2, 3):
        for _ in range(3):
            alpha = F(rng.randint(-50, 50), rng.randint(1, 12))
            beta = alpha + 10 ** 30 + F(rng.randint(0, 20), 21)
            if rng.random() < 0.5:
                alpha, beta = beta, alpha
            z = tuple(F(rng.randint(-3, 3)) for _ in range(n - 1))
            g = rand_unimodular(rng, n)
            a, b = g((alpha,) + z), g((beta,) + z)
            step = 1 if beta > alpha else -1
            # x_1 depends on alpha mod 1 and the direction only
            frac = alpha - math.floor(alpha)
            den_x1 = den(hj_chain_by_hull((frac,), (frac + step,))[1:2])
            h = rand_unimodular(rng, n)
            longer = g((beta + step,) + z)
            start = time.perf_counter()
            lam = lambda1(a, b)
            inv = side_invariant(a, b)
            m = segment_equivalence((a, b), (h(a), h(b)))
            none = segment_equivalence((a, b), (a, longer))
            assert time.perf_counter() - start < 1
            assert lam == abs(beta - alpha)
            assert inv == (1, abs(beta - alpha), den((alpha,)), den_x1)
            assert apply_affine(m.matrix, m.translation, a) == h(a)
            assert apply_affine(m.matrix, m.translation, b) == h(b)
            assert none is None
