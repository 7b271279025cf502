import random
from fractions import Fraction

import pytest

from afflat.complexes import Triangulation, blow_up
from afflat.core import farey_mediant, is_regular
from afflat.errors import InputError
from afflat.segments import (hj_chain, lambda1, lambda1_via,
                             segment_equivalence, side_invariant)

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
