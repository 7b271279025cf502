from fractions import Fraction

import pytest

from afflat.complexes import Triangulation, blow_up
from afflat.core import farey_mediant, is_regular
from afflat.errors import InputError

F = Fraction


def unit_triangle():
    return ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))


def test_maximal_cells_absorb_faces():
    t = Triangulation([unit_triangle(), (unit_triangle()[0], unit_triangle()[1])])
    assert t.maximal == (tuple(sorted(unit_triangle())),)


def test_simplexes_closed_under_faces():
    t = Triangulation([unit_triangle()])
    simps = t.simplexes()
    assert len(simps) == 7  # 3 vertices + 3 edges + 1 triangle


def test_valid_complex_accepts_proper_gluing():
    a = ((F(0),), (F(1),))
    b = ((F(1),), (F(2),))
    assert Triangulation([a, b]).is_valid_complex()


def test_valid_complex_rejects_overlap():
    a = ((F(0),), (F(2),))
    b = ((F(1),), (F(3),))
    assert not Triangulation([a, b]).is_valid_complex()


def test_valid_complex_rejects_mid_edge_vertex():
    a = unit_triangle()
    b = ((F(1, 2), F(0)), (F(1, 2), F(-1)), (F(1), F(-1)))
    assert not Triangulation([a, b]).is_valid_complex()


def _pts(*coords):
    return tuple(tuple(F(c) for c in p) for p in coords)


T3 = _pts((0, 0, 0), (2, 0, 0), (0, 2, 0))


def test_valid_complex_in_r3_accepts_proper_gluings():
    o, e1, e2, e3 = _pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    (ones,) = _pts((1, 1, 1))
    tetrahedra = [(o, e1, e2, e3), (e1, e2, e3, ones)]
    assert Triangulation(tetrahedra).is_valid_complex()
    hinge = [(o, e1, e2), (o, e1, e3)]
    assert Triangulation(hinge).is_valid_complex()
    parallel = [(o, e1, e2), _pts((0, 0, 1), (1, 0, 1), (0, 1, 1))]
    assert Triangulation(parallel).is_valid_complex()
    # the planes meet in a line that misses both triangles
    skew = [T3, _pts((5, 5, -1), (6, 5, 1), (5, 6, 1))]
    assert Triangulation(skew).is_valid_complex()


def test_valid_complex_in_r3_rejects_piercing_segment():
    seg = _pts(("1/2", "1/2", -1), ("1/2", "1/2", 1))
    assert not Triangulation([T3, seg]).is_valid_complex()


def test_valid_complex_in_r3_rejects_crossing_triangle():
    crossing = _pts(("1/4", "1/4", -1), ("1/4", "1/4", 1), (1, "1/4", 0))
    assert not Triangulation([T3, crossing]).is_valid_complex()


def test_valid_complex_in_r3_rejects_mid_edge_vertex():
    touching = _pts((1, 0, 0), (1, 0, 1), (1, -1, 1))
    assert not Triangulation([T3, touching]).is_valid_complex()


def test_blow_up_keeps_support_and_regularity():
    t = Triangulation([unit_triangle()])
    t2 = blow_up(t, unit_triangle())
    assert len(t2.maximal) == 3
    assert t2.is_valid_complex()
    med = farey_mediant(unit_triangle())
    for cell in t2.maximal:
        assert med in cell and is_regular(cell)
    # blowing up an edge of the new complex subdivides both adjacent cells
    edge = (med, (F(0), F(0)))
    t3 = blow_up(t2, edge)
    assert t3.is_valid_complex()
    assert all(is_regular(c) for c in t3.maximal)


def test_blow_up_rejects_non_member():
    t = Triangulation([unit_triangle()])
    with pytest.raises(InputError):
        blow_up(t, ((F(5), F(5)), (F(6), F(5))))
