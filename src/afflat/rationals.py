"""Exact scalar and vector helpers shared by every module.

Points are plain tuples of Fraction; integer vectors are tuples of int.
A point x also has a homogeneous integer lift (den(x)*x, den(x)), which
the fraction-free kernels work on.  No floating point anywhere.

coprime_fraction(n, d) is Fraction(n, d) for integers already in lowest
terms (d > 0, gcd(n, d) = 1), set straight into Fraction's two slots, as
CPython's own Fraction._from_coprime_ints does from 3.12 on.  It is exact:
the constructor would only divide n and d by their gcd, which is 1, so the
value is the one Fraction(n, d) builds, with the same numerator,
denominator, hash, repr and arithmetic.  Hot loops that already know their
integers are coprime (segments' chain expansion) use it to skip the
constructor's type dispatch and gcd.  No other module names the slots.
"""

import math
from fractions import Fraction

from .errors import InputError


def rat(x):
    """Coerce an int, a string like '-3/7', or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise InputError("floating point is not accepted: %r" % (x,))
    return Fraction(x)


def coprime_fraction(n, d):
    """Fraction(n, d) for ints n and d > 0 with gcd(n, d) = 1, which the
    caller guarantees and nothing checks."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def point(coords):
    """Normalize a coordinate sequence to a tuple of Fractions."""
    return tuple(rat(c) for c in coords)


def intvec(v):
    """Normalize to a tuple of ints; rejects non-integer entries."""
    out = []
    for c in v:
        if type(c) is not int:
            f = rat(c)
            if f.denominator != 1:
                raise InputError("expected integer entries, got %s" % (c,))
            c = f.numerator
        out.append(c)
    return tuple(out)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(s, v):
    return tuple(s * a for a in v)


def vdot(u, v):
    return sum(a * b for a, b in zip(u, v))


def den(x):
    """Least common denominator of the coordinates of a rational point."""
    return math.lcm(*(c.denominator for c in point(x)))


def lift(x):
    """Homogeneous correspondent (den(x)*x_1, ..., den(x)*x_n, den(x))."""
    return lift_point(point(x))


def lift_point(p):
    """lift(p) for a point p already normalized by point()."""
    d = math.lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (d // c.denominator) for c in p) + (d,)


def content(v):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    g = 0
    for a in v:
        g = math.gcd(g, a)
    return g


def primitive(v):
    """Scale a nonzero rational vector to the primitive integer vector with
    the same direction (orientation preserved); an integer vector is only
    divided by its content, with no Fraction."""
    if all(type(c) is int for c in v):
        w = v
    else:
        fs = point(v)
        den = math.lcm(*(c.denominator for c in fs))
        w = [c.numerator * (den // c.denominator) for c in fs]
    g = content(w)
    if g == 0:
        raise InputError("zero vector has no primitive form")
    return tuple(a // g for a in w)


def canon_primitive(v):
    """Primitive integer vector with the first nonzero entry positive."""
    w = primitive(v)
    for a in w:
        if a:
            return w if a > 0 else tuple(-b for b in w)
    raise InputError("zero vector has no primitive form")

