"""angles.min_den_completion pinned on a seeded corpus of large angles.

The corpus holds 3000 angles in R^2-R^5 whose origins have denominators up
to 1000 and whose directions have entries up to 200, far beyond the reach of
the box scan in test_angles.  The SHA-256 was taken from an implementation
that built the completion from a basis of the saturated rank-3 lattice of
the angle's plane, solved over the frame (lift(v), dir H, dir K) in
Fractions; the completion point is fixed by the geometry alone, so every
correct construction gives the same digest.
"""

import hashlib
import random
from fractions import Fraction

from afflat.angles import HalfLine, angle, min_den_completion
from afflat.errors import InputError, NotInClass

CORPUS_SIZE = 3000
PIN = "e03e4a93da4491b167f11aa6474bd623903b199abf48e33b4c31b1cca4b1ecfb"


def corpus():
    """Angle i lives in R^(2 + i % 4)."""
    rng = random.Random(1919)
    out = []
    while len(out) < CORPUS_SIZE:
        n = 2 + len(out) % 4
        dv = rng.randint(1, 1000)
        v = tuple(Fraction(rng.randint(-3 * dv, 3 * dv), dv)
                  for _ in range(n))
        d1, d2 = ([rng.randint(-200, 200) for _ in range(n)]
                  for _ in range(2))
        try:
            out.append(angle(HalfLine(v, direction=d1),
                             HalfLine(v, direction=d2)))
        except (NotInClass, InputError):
            continue
    return out


def test_min_den_completion_matches_pin():
    digest = hashlib.sha256()
    for ang in corpus():
        digest.update(repr(min_den_completion(ang)).encode() + b"\n")
    assert digest.hexdigest() == PIN
