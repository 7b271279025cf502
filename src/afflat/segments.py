"""Oriented rational segments: canonical regular chains, the invariant
length lambda_1, and the complete side invariant with its orbit decision.

The chain of a segment conv(a, b) is the unique list a = x_0, ..., x_u+1 = b
such that every conv(x_i, x_i+1) is regular and each x_i+1 is the smallest-
denominator (equivalently farthest) regular partner of x_i towards b.  Each
step is closed-form in the rank-2 saturated sublattice spanned by the two
endpoint lifts.

Every kind computes its invariant once, with a witness simplex and marked
points (_side_with_witness here); _witness_decision, shared by all kinds,
compares two invariants, maps one witness onto the other, and checks that the
map carries the marked points.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .affine import extend_frame
from .complexes import Triangulation
from .core import (coords_in_lattice_basis, den, is_regular, lift,
                   saturated_span_basis, simplex_map, unlift)
from .errors import InputError, InternalCheckError
from .intlinalg import xgcd
from .rationals import point, vadd, vscale


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


def _complete_primitive_2d(p):
    """u with det [p u] = 1 for primitive p in Z^2."""
    g, x, y = xgcd(p[0], p[1])
    if g != 1:
        raise InternalCheckError("chain vector lost primitivity")
    return (-y, x)


def hj_chain(a, b):
    """The canonical regular chain of the oriented segment conv(a, b).

    Works in coordinates of the saturated rank-2 sublattice containing both
    lifts: successors of a primitive vector p are +-u + k p for any basis
    completion u; the admissible sign points towards b and the minimal
    admissible k gives the minimal denominator.
    """
    a, b = segment(a, b)
    la, lb = lift(a), lift(b)
    basis = saturated_span_basis([la, lb])
    if len(basis) != 2:
        raise InternalCheckError("segment lifts span the wrong rank")
    ca = coords_in_lattice_basis(basis, la)
    cb = coords_in_lattice_basis(basis, lb)

    def embed(z):
        return vadd(vscale(z[0], basis[0]), vscale(z[1], basis[1]))

    chain = [a]
    cur = ca
    while cur != cb:
        u = _complete_primitive_2d(cur)
        det = cur[0] * cb[1] - cur[1] * cb[0]
        sigma_u = Fraction(u[0] * cb[1] - u[1] * cb[0], det)
        tau_u = Fraction(cur[0] * u[1] - cur[1] * u[0], det)
        eps = 1 if tau_u > 0 else -1
        sigma = eps * sigma_u
        k = math.ceil(-sigma)
        nxt = (eps * u[0] + k * cur[0], eps * u[1] + k * cur[1])
        chain.append(unlift(embed(nxt)))
        cur = nxt
    return tuple(chain)


def _chain_lambda1(dens):
    """Sum of 1/(d_i d_{i+1}) over the chain's consecutive denominators."""
    return sum(Fraction(1, dens[i] * dens[i + 1]) for i in range(len(dens) - 1))


def lambda1(a, b):
    """Sum of 1/(den(x_i) den(x_{i+1})) along the canonical chain."""
    return _chain_lambda1([den(x) for x in hj_chain(a, b)])


def _chain_of_triangulation(a, b, tri):
    """Vertex chain of a regular triangulation of conv(a, b), a to b."""
    if isinstance(tri, Triangulation):
        cells = tri.maximal
    else:
        cells = Triangulation(tri).maximal
    direction = tuple(q - p for p, q in zip(a, b))
    nrm = sum(d * d for d in direction)

    def param(x):
        ts = set()
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


def _side_with_witness(a, b):
    """(side invariant, witness simplex, marks).  The witness extends the
    chain's first cell; the extension denominator is c of the line, as that
    depends only on the line's lattice, of which the cell's lifts are a basis."""
    chain = hj_chain(a, b)
    dens = [den(x) for x in chain]
    c, ext = extend_frame(chain[:2])
    inv = SideInvariant(c, _chain_lambda1(dens), dens[0], dens[1])
    return inv, chain[:2] + ext, {"the chain": chain}


def _witness_decision(found1, found2):
    """The orbit decision from two (invariant, witness simplex, marks): None
    when the invariants differ, else the map of one witness onto the other,
    checked to carry each list of marked points onto its counterpart."""
    inv1, wit1, marks1 = found1
    inv2, wit2, marks2 = found2
    if inv1 != inv2:
        return None
    g = simplex_map(wit1, wit2)
    for what, xs in marks1.items():
        ys = marks2[what]
        if len(xs) != len(ys) or any(g(x) != y for x, y in zip(xs, ys)):
            raise InternalCheckError("witness map does not carry " + what)
    return g


def side_invariant(a, b):
    """The quadruple (c of the line, lambda_1, den(a), den(x_1))."""
    return _side_with_witness(a, b)[0]


def segment_equivalence(seg1, seg2):
    """A unimodular affine map carrying one oriented segment onto the other
    (endpoints to endpoints), or None when the side invariants differ."""
    a1, b1 = segment(*seg1)
    a2, b2 = segment(*seg2)
    if len(a1) != len(a2):
        raise InputError("ambient dimensions differ")
    return _witness_decision(_side_with_witness(a1, b1), _side_with_witness(a2, b2))
