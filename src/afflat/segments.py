"""Oriented rational segments: canonical regular chains, the invariant
length lambda_1, and the complete side invariant with its orbit decision.

The chain of a segment conv(a, b) is the unique list a = x_0, ..., x_u+1 = b
such that every conv(x_i, x_i+1) is regular and each x_i+1 is the smallest-
denominator (equivalently farthest) regular partner of x_i towards b.  Its
lifts are the Hirzebruch-Jung chain of the cone over the endpoint lifts
(cones._plane_runs), kept as maximal runs (start, step, count) of arithmetic
progressions; a chain has at most one run more than half the partial
quotients (rounded up) of the regular continued fraction of that cone.
lambda_1, the side invariant, the witness marks and the polyhedron pair
filter read the runs, so they take time independent of the chain's length;
only hj_chain expands them, each coordinate of a run by the cheapest
construction its shape allows (_coordinate): a coordinate constant along a
run of constant denominator is one Fraction shared by every vertex of the
run, which is safe because Fractions are immutable; along a run of
denominator 1 the integer numerators are already in lowest terms and go
straight into rationals.coprime_fraction, with no gcd; other runs reduce
each numerator and denominator by one gcd and build the Fraction the same
way, never through Fraction's constructor.

Every kind computes its invariant once, with a witness simplex and marks
(_side_with_witness here, or _side_of_lifts for a caller that already holds
the endpoints' lifts); _witness_decision, shared by all kinds, compares two
invariants, maps one witness onto the other, and checks that the map
carries the marks.  Marks and intermediate points are homogeneous lifts:
a side's marks are run starts and steps that _plane_runs already gives, c
comes from the lift form of completion_den, and the map is checked on the
lifts (map_lift).  Points are built only for the witness simplex, and only
when a caller asks for it.
"""

import sys
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import NamedTuple

from .affine import _completion_den_of_lifts, extend_frame
from .complexes import Triangulation
from .cones import _plane_runs
from .core import den, is_regular, simplex_map, unlift
from .errors import InputError, InternalCheckError, SearchBudgetExceeded
from .rationals import coprime_fraction, lift_point, point, vadd


class SideInvariant(NamedTuple):
    c: int
    lambda1: Fraction
    den_a: int
    den_x1: int


def segment(a, b):
    pa, pb = point(a), point(b)
    if len(pa) != len(pb):
        raise InputError("endpoint dimensions differ")
    if pa == pb:
        raise InputError("segment endpoints coincide")
    return pa, pb


def _chain_runs(a, b):
    """The segment's endpoints and the maximal runs (start, step, count) of
    its chain's lifts: each run holds the lifts start + j step, j < count,
    and the chain ends at b."""
    a, b = segment(a, b)
    return a, b, _plane_runs(lift_point(a), lift_point(b))


def hj_chain(a, b):
    """The canonical regular chain of the oriented segment conv(a, b),
    expanded from its runs: vertex j of a run is (num + j dnum) / (d + j dd)
    for the run's start lift (num, d) and step (dnum, dd).  Where dd = 0, a
    coordinate with dnum = 0 is one shared Fraction and, when d = 1, the
    others are the coprime pairs (num + j dnum, 1); elsewhere each pair is
    reduced by its gcd.  The chain is a tuple of tuples of Fractions either
    way, every one built here."""
    a, b, runs = _chain_runs(a, b)
    size = 1 + sum(count for _, _, count in runs)
    if size > sys.maxsize:
        raise SearchBudgetExceeded(
            "a chain of %d vertices is longer than any list" % size)
    chain = []
    for start, step, count in runs:
        d, dd = start[-1], step[-1]
        chain += zip(*[_coordinate(x, s, d, dd, count)
                       for x, s in zip(start[:-1], step[:-1])])
    chain.append(b)
    return tuple(chain)


def _progression(x, s, count):
    """x, x + s, ..., x + (count - 1) s."""
    return range(x, x + count * s, s) if s else repeat(x, count)


def _coordinate(x, s, d, dd, count):
    """The Fractions (x + j s) / (d + j dd), j < count, of one coordinate
    along a run: one shared Fraction when constant, built from the coprime
    pairs (x + j s, 1) when the denominator is 1, else reduced by a gcd.
    The denominators d + j dd are lift last entries, so positive."""
    if dd == 0:
        if s == 0:
            return repeat(Fraction(x, d), count)
        if d == 1:
            return map(coprime_fraction, range(x, x + count * s, s), repeat(1))
    return map(_lowest_terms, _progression(x, s, count),
               _progression(d, dd, count))


def _lowest_terms(n, d):
    """The Fraction n / d for d > 0, reduced by one gcd."""
    g = gcd(n, d)
    return coprime_fraction(n // g, d // g)


def _runs_lambda1(runs):
    """Sum of 1/(d_i d_{i+1}) along the chain: within a run the denominators
    are d_0 + j dd, so the sum telescopes to count / (d_first d_last)."""
    return sum(Fraction(count, start[-1] * (start[-1] + count * step[-1]))
               for start, step, count in runs)


def lambda1(a, b):
    """Sum of 1/(den(x_i) den(x_{i+1})) along the canonical chain."""
    return _runs_lambda1(_chain_runs(a, b)[2])


def _chain_of_triangulation(a, b, tri):
    """Vertex chain of a regular triangulation of conv(a, b), a to b."""
    if isinstance(tri, Triangulation):
        cells = tri.maximal
    else:
        cells = Triangulation(tri).maximal
    direction = tuple(q - p for p, q in zip(a, b))
    nrm = sum(d * d for d in direction)

    def param(x):
        t = sum((xc - ac) * d for xc, ac, d in zip(x, a, direction)) / nrm
        # membership in the line, exactly
        for xc, ac, d in zip(x, a, direction):
            if ac + t * d != xc:
                raise InputError("triangulation vertex off the segment")
        return t

    intervals = []
    for cell in cells:
        if len(cell) != 2:
            raise InputError("triangulation of a segment must consist of segments")
        if not is_regular(cell):
            raise InputError("triangulation is not regular")
        t0, t1 = sorted((param(cell[0]), param(cell[1])))
        intervals.append((t0, t1, cell))
    intervals.sort()
    if intervals[0][0] != 0 or intervals[-1][1] != 1:
        raise InputError("triangulation does not support the segment")
    for (t0, t1, _), (s0, s1, _) in zip(intervals, intervals[1:]):
        if t1 != s0:
            raise InputError("triangulation cells overlap or leave gaps")
    return intervals


def lambda1_via(a, b, tri):
    """lambda_1 computed over any regular triangulation of the segment;
    equals lambda1(a, b) by triangulation independence."""
    a, b = segment(a, b)
    intervals = _chain_of_triangulation(a, b, tri)
    total = Fraction(0)
    for _, _, cell in intervals:
        total += Fraction(1, den(cell[0]) * den(cell[1]))
    return total


def _side_with_witness(a, b, witness=True):
    """(side invariant, witness simplex, marks).  The witness extends the
    chain's first cell; the extension denominator is c of the line, as that
    depends only on the line's lattice, of which the cell's lifts are a basis.
    The marks are lifts: the first two of each run and lift(b).  A map
    carrying them carries each run's start and step lift, hence the whole
    chain.  den(a) and den(x_1) are the last entries of the first two.
    With witness False, for callers that drop the witness, c is computed
    from the first cell's lifts, no point is built, and the witness is
    None."""
    a, b = segment(a, b)
    return _side_of_lifts(lift_point(a), lift_point(b), a if witness else None)


def _side_of_lifts(la, lb, a=None):
    """_side_with_witness of the segment from the point of lift la to that
    of lb, two distinct primitive lifts; the witness is built when a, the
    point of la, is given."""
    runs = _plane_runs(la, lb)
    marks = []
    for start, step, _ in runs:
        marks += [start, vadd(start, step)]
    marks.append(lb)
    first = marks[:2]
    if a is not None:
        wit = (a, unlift(first[1]))
        c, ext = extend_frame(wit)
        wit += ext
    else:
        c, wit = _completion_den_of_lifts(first), None
    inv = SideInvariant(c, _runs_lambda1(runs), first[0][-1], first[1][-1])
    return inv, wit, {"the chain": tuple(marks)}


def _witness_decision(found1, found2):
    """The orbit decision from two (invariant, witness simplex, marks): None
    when the invariants differ, else the map of one witness onto the other,
    checked to carry each list of marked lifts onto its counterpart."""
    inv1, wit1, marks1 = found1
    inv2, wit2, marks2 = found2
    if inv1 != inv2:
        return None
    g = simplex_map(wit1, wit2)
    for what, xs in marks1.items():
        ys = marks2[what]
        if len(xs) != len(ys) or any(g.map_lift(x) != y
                                     for x, y in zip(xs, ys)):
            raise InternalCheckError("witness map does not carry " + what)
    return g


def side_invariant(a, b):
    """The quadruple (c of the line, lambda_1, den(a), den(x_1))."""
    return _side_with_witness(a, b, witness=False)[0]


def segment_equivalence(seg1, seg2):
    """A unimodular affine map carrying one oriented segment onto the other
    (endpoints to endpoints), or None when the side invariants differ."""
    a1, b1 = segment(*seg1)
    a2, b2 = segment(*seg2)
    if len(a1) != len(a2):
        raise InputError("ambient dimensions differ")
    return _witness_decision(_side_with_witness(a1, b1), _side_with_witness(a2, b2))
