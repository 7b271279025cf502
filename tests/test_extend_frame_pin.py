"""affine.extend_frame pinned in codimension >= 2 on a seeded corpus.

The corpus holds regular e-frames in R^3-R^5 with e <= n - 2.  Frame i has
an integer vertex when i is odd, so extend_frame completes it in closed
form from the first integer lift, and none when i is even, so the first
extension point comes from the expanding cube scan around the first
vertex and the rest in closed form from that integer point.  Regularity
is decided here by the Smith criterion, the gcd of the maximal minors of
the lifts, with cofactor determinants.  The SHA-256 of (c, extension) per
frame was taken from the implementation that read the scan's quotient
rows off the inverse of a completed basis; the extension points are the
scan's first hit and the completion's choice, so a change to either order
changes the digest.
"""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

from afflat.affine import extend_frame
from afflat.core import lift

from helpers import _tiny_det

CORPUS_SIZE = 600
PIN = "9c801e8bc3ca1f5ef13971e24bdb9b1ce86201d6a08aa1298c7374d17ca1fa57"


def _is_regular(frame):
    """gcd of the maximal minors of the frame's lifts is 1."""
    lifts = [lift(v) for v in frame]
    rows = list(zip(*lifts))
    g = 0
    for sel in combinations(range(len(rows)), len(lifts)):
        g = math.gcd(g, _tiny_det([rows[i] for i in sel]))
    return g == 1


def corpus():
    """Frame i lives in R^(3 + i % 3)."""
    rng = random.Random(2525)
    out = []
    while len(out) < CORPUS_SIZE:
        n = 3 + len(out) % 3
        e = rng.randint(0, n - 2)
        with_integer = len(out) % 2 == 1
        at = rng.randrange(e + 1)
        frame = []
        for i in range(e + 1):
            k = 1 if with_integer and i == at else rng.randint(2, 30)
            frame.append(tuple(Fraction(rng.randint(-3 * k, 3 * k), k)
                               for _ in range(n)))
        if any(max(x.denominator for x in v) == 1
               for v in frame) != with_integer:
            continue
        if _is_regular(frame):
            out.append(tuple(frame))
    return out


def test_corpus_covers_both_branches():
    frames = corpus()
    integer = [any(lift(v)[-1] == 1 for v in f) for f in frames]
    assert sum(integer) == CORPUS_SIZE // 2
    assert {(len(f[0]), len(f) - 1) for f in frames} == {
        (n, e) for n in (3, 4, 5) for e in range(n - 1)}


def test_extend_frame_matches_pin():
    digest = hashlib.sha256()
    for frame in corpus():
        digest.update(repr(extend_frame(frame)).encode() + b"\n")
    assert digest.hexdigest() == PIN
