"""Seeded workload generators.

Each workload is a list of rounds; a round holds one operation of every
stratum (kind and size class) in a seeded order, so any prefix of the batch
has nearly the same mix.  The objects of round r (segments, triangles,
conics, polyhedra, sizes) come from a generator seeded by the workload's
name and r alone, the same for every seed, because their cost is
heavy-tailed and a seed's own draw moved the latency quantiles by up to a
sixth.  The seed draws the unimodular maps that present the objects to
afflat, and the order of each round.

Every operation carries its own check, built from the benchmark's oracles
when the inputs are generated.  afflat receives only the generated objects.
"""

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import oracles as O

F = Fraction

class Op:
    __slots__ = ("kind", "call", "check", "size")

    def __init__(self, kind, call, check, size=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.size = size


def fs(x):
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def pj(p):
    return [fs(c) for c in p]


def parse_pt(arr):
    return tuple(F(c) for c in arr)


def rand_point(rng, n, dmax, span):
    return tuple(F(rng.randint(-span * dmax, span * dmax), rng.randint(1, dmax))
                 for _ in range(n))


def rand_dir(rng, n, lim):
    while True:
        d = tuple(rng.randint(-lim, lim) for _ in range(n))
        if any(d):
            return d


def linear_part(g):
    return (g[0], (0,) * len(g[1]))


def pullback(co, g):
    """Coefficients of y -> co(g(y)) for a planar affine map g = (A, t)."""
    (a11, a12), (a21, a22) = g[0]
    t1, t2 = g[1]
    a, b, c, d, e, f = co
    return (a * a11 * a11 + b * a11 * a21 + c * a21 * a21,
            2 * a * a11 * a12 + b * (a11 * a22 + a12 * a21) + 2 * c * a21 * a22,
            a * a12 * a12 + b * a12 * a22 + c * a22 * a22,
            (2 * a * a11 * t1 + b * (a11 * t2 + a21 * t1) + 2 * c * a21 * t2
             + d * a11 + e * a21),
            (2 * a * a12 * t1 + b * (a12 * t2 + a22 * t1) + 2 * c * a22 * t2
             + d * a12 + e * a22),
            a * t1 * t1 + b * t1 * t2 + c * t2 * t2 + d * t1 + e * t2 + f)


def inverse(g):
    """Inverse of a planar unimodular affine map, by the adjugate."""
    (a, b), (c, d) = g[0]
    dt = a * d - b * c
    inv = ((dt * d, -dt * b), (-dt * c, dt * a))
    t = tuple(-sum(r[j] * g[1][j] for j in range(2)) for r in inv)
    return (inv, t)


def conic_json(co):
    return {k: fs(v) for k, v in zip("abcdef", co)}


def maps_onto(doc_map, n, pairs):
    """The printed witness map is unimodular and carries each x onto y."""
    if not O.is_unimodular_map(doc_map, n):
        return False
    g = O.map_of(doc_map)
    return all(O.apply(g, x) == tuple(y) for x, y in pairs)


class CliRunner:
    """afflat's CLI run in-process, stdout captured; one call per op."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.files = 0

    def write(self, doc):
        self.files += 1
        path = os.path.join(self.workdir, "in%05d.json" % self.files)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def op(self, kind, argv, check):
        cli = self.cli

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            return code, buf.getvalue()

        def checked(res):
            code, text = res
            return check(code, json.loads(text))

        return Op(kind, call, checked)


# --- invariants: the everyday CLI path --------------------------------------

def canonical_segment(rng, maps, n):
    """A segment on a coordinate line at integer height, mapped by g; its
    side invariant is known in closed form."""
    while True:
        alpha, beta = rand_point(rng, 1, 6, 3)[0], rand_point(rng, 1, 6, 3)[0]
        if alpha != beta:
            break
    z = tuple(rng.randint(-2, 2) for _ in range(n - 1))
    g = O.rand_unimodular(maps, n)
    a, b = O.apply(g, (alpha,) + z), O.apply(g, (beta,) + z)
    return a, b, alpha, beta


def inv_equiv_segment(run, rng, maps, neg):
    n = rng.choice((1, 2))
    a, b = rand_point(rng, n, 6, 3), rand_point(rng, n, 6, 3)
    while b == a:
        b = rand_point(rng, n, 6, 3)
    g = O.rand_unimodular(maps, n)
    src = (tuple(2 * c for c in a), tuple(2 * c for c in b)) if neg else (a, b)
    a2, b2 = O.apply(g, src[0]), O.apply(g, src[1])
    if neg and O.lattice_length(a, b) == O.lattice_length(a2, b2):
        return None
    f1 = run.write({"a": pj(a), "b": pj(b)})
    f2 = run.write({"a": pj(a2), "b": pj(b2)})

    def check(code, doc):
        if code != 0 or doc["equivalent"] == neg:
            return False
        return doc["map"] is None if neg else \
            maps_onto(doc["map"], n, [(a, a2), (b, b2)])

    return run.op("equiv_segment", ["equiv", "--kind", "segment", f1, f2], check)


def inv_equiv_triangle(run, rng, maps, neg):
    while True:
        t = [rand_point(rng, 2, 4, 1) for _ in range(3)]
        if O.triangle_area2(*t):
            break
    g = O.rand_unimodular(maps, 2)
    src = [tuple(2 * c for c in p) for p in t] if neg else t
    t2 = [O.apply(g, p) for p in src]
    if neg and O.triangle_area2(*t) == O.triangle_area2(*t2):
        return None
    f1 = run.write(dict(zip("uvw", map(pj, t))))
    f2 = run.write(dict(zip("uvw", map(pj, t2))))

    def check(code, doc):
        if code != 0 or doc["equivalent"] == neg:
            return False
        return doc["map"] is None if neg else \
            maps_onto(doc["map"], 2, list(zip(t, t2)))

    return run.op("equiv_triangle", ["equiv", "--kind", "triangle", f1, f2],
                  check)


def small_ellipse(rng):
    o = rand_point(rng, 2, 2, 1)
    while True:
        u = rand_point(rng, 2, 2, 1)
        v = rand_point(rng, 2, 2, 1)
        if u[0] * v[1] - u[1] * v[0]:
            return o, u, v


def inv_equiv_ellipse(run, rng, maps, neg):
    o, u, v = small_ellipse(rng)
    co1 = O.ellipse_from_semidiameters(o, u, v)
    g = O.rand_unimodular(maps, 2)
    k = 2 if neg else 1
    o2 = O.apply(g, tuple(k * c for c in o))
    u2, v2 = (O.apply(linear_part(g), tuple(k * c for c in w)) for w in (u, v))
    co2 = O.ellipse_from_semidiameters(o2, u2, v2)
    if neg and O.ellipse_area_sq(co1) == O.ellipse_area_sq(co2):
        return None
    pts = O.ellipse_points(o, u, v)
    f1 = run.write(conic_json(co1))
    f2 = run.write(conic_json(co2))

    def check(code, doc):
        if code != 0 or doc["equivalent"] == neg:
            return False
        if neg:
            return doc["map"] is None
        if not O.is_unimodular_map(doc["map"], 2):
            return False
        m = O.map_of(doc["map"])
        return all(O.conic_value(co2, O.apply(m, p)) == 0 for p in pts)

    return run.op("equiv_ellipse", ["equiv", "--kind", "ellipse", f1, f2], check)


def inv_equiv_polyhedron(run, rng, maps):
    """A small 1-D polyhedron and its image: the CLI's polyhedron verb at
    desk scale, a small share of this workload."""
    P = [rand_simplex(rng, 1, d) for d in (1, 1)]
    g = O.rand_unimodular(maps, 1, tmax=2)
    Q = [tuple(O.apply(g, v) for v in s) for s in P]
    f1 = run.write({"simplexes": [[pj(v) for v in s] for s in P]})
    f2 = run.write({"simplexes": [[pj(v) for v in s] for s in Q]})

    def check(code, doc):
        if code != 0 or not doc["equivalent"] or \
                not O.is_unimodular_map(doc["map"], 1):
            return False
        m = O.map_of(doc["map"])
        a = m[0][0][0]
        inv = (((a,),), (-a * m[1][0],))
        return all(O.in_union(Q, O.apply(m, v)) for s in P for v in s) and \
            all(O.in_union(P, O.apply(inv, w)) for s in Q for w in s)

    return run.op("equiv_polyhedron", ["equiv", "--kind", "polyhedron", f1, f2],
                  check)


def inv_invariant_segment(run, rng, maps):
    n = rng.choice((1, 2))
    a, b, alpha, beta = canonical_segment(rng, maps, n)
    want = {"c": 1, "lambda1": fs(abs(beta - alpha)), "den_a": O.den((alpha,)),
            "den_x1": O.first_chain_den(alpha, beta)}
    f = run.write({"a": pj(a), "b": pj(b)})
    return run.op("invariant_segment", ["invariant", "--kind", "segment", f],
                  lambda code, doc: code == 0 and doc == want)


def plane_c(n, v, d1, d2):
    """c of the plane of an angle: 1 in the plane itself, the codimension-one
    closed form in R^3."""
    if n == 2:
        return 1
    a = (d1[1] * d2[2] - d1[2] * d2[1], d1[2] * d2[0] - d1[0] * d2[2],
         d1[0] * d2[1] - d1[1] * d2[0])
    g = math.gcd(math.gcd(a[0], a[1]), a[2])
    a = tuple(x // g for x in a)
    return O.codim_one_c(sum(x * y for x, y in zip(a, v)))


def inv_invariant_angles(run, rng, maps, memo, gid):
    """Two ops: an angle and its image under a random map; both outputs
    must agree, besides the closed-form components."""
    n = rng.choice((2, 3))
    v = rand_point(rng, n, 4, 1)
    while True:
        d1, d2 = rand_dir(rng, n, 3), rand_dir(rng, n, 3)
        if O.rank([d1, d2]) == 2:
            break
    g = O.rand_unimodular(maps, n)
    ops = []
    for image in (False, True):
        pts = [v, tuple(x + y for x, y in zip(v, d1)),
               tuple(x + y for x, y in zip(v, d2))]
        if image:
            pts = [O.apply(g, p) for p in pts]
            dd = [O.apply(linear_part(g), d) for d in (d1, d2)]
        else:
            dd = [d1, d2]
        want_den = O.den(pts[0])
        want_c = plane_c(n, pts[0], dd[0], dd[1])
        f = run.write(dict(zip("vhk", map(pj, pts))))

        def check(code, doc, want_den=want_den, want_c=want_c):
            if code != 0 or doc["den_v"] != want_den or doc["c"] != want_c:
                return False
            return memo.setdefault(gid, doc) == doc

        ops.append(run.op("invariant_angle",
                          ["invariant", "--kind", "angle", f], check))
    return ops


def inv_invariant_affine(run, rng, maps):
    n = rng.randint(1, 3)
    e = rng.randint(0, n)
    fixed = [rand_point(rng, 1, 6, 2)[0] for _ in range(n - e)]
    while True:
        pts = [rand_point(rng, e, 3, 2) + tuple(fixed) for _ in range(e + 1)]
        if O.rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
                  or [[0] * n]) == e:
            break
    g = O.rand_unimodular(maps, n)
    pts = [O.apply(g, p) for p in pts]
    d = O.den(fixed) if fixed else 1
    c = O.codim_one_c(fixed[0]) if n - e == 1 else 1
    want = {"dim": e, "d": d, "c": c}
    f = run.write({"points": [pj(p) for p in pts]})
    return run.op("invariant_affine", ["invariant", "--kind", "affine", f],
                  lambda code, doc: code == 0 and doc == want)


def inv_hj(run, rng):
    n = rng.choice((1, 2))
    a, b = rand_point(rng, n, 8, 2), rand_point(rng, n, 8, 2)
    while b == a:
        b = rand_point(rng, n, 8, 2)
    f = run.write({"a": pj(a), "b": pj(b)})

    def check(code, doc):
        ch = [parse_pt(x) for x in doc["vertices"]]
        if code != 0 or not O.chain_is_monotone(ch, a, b) or \
                not O.chain_is_regular(ch):
            return False
        if n == 1:
            dens = [O.den(x) for x in ch]
            return sum(F(1, x * y) for x, y in zip(dens, dens[1:])) == \
                abs(b[0] - a[0])
        return True

    return run.op("hj", ["hj", f], check)


def inv_lambda1(run, rng, maps):
    a, b, alpha, beta = canonical_segment(rng, maps, rng.choice((1, 2)))
    f = run.write({"a": pj(a), "b": pj(b)})
    want = {"lambda1": fs(abs(beta - alpha))}
    return run.op("lambda1", ["lambda1", f],
                  lambda code, doc: code == 0 and doc == want)


NO_POINT_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)


def inv_classify(run, rng, maps, which):
    g = O.rand_unimodular(maps, 2)
    if which == "ellipse":
        co = O.ellipse_from_semidiameters(*small_ellipse(rng))
        want_code, want = 0, "ellipse-in-E"
    elif which == "no_point":
        # x^2 + y^2 = p has no rational point for a prime p = 3 (mod 4)
        co = (1, 0, 1, 0, 0, -rng.choice(NO_POINT_PRIMES))
        want_code, want = 3, "ellipse-no-rational-point"
    else:
        co = (1, 0, -rng.randint(1, 5), 0, 0, -rng.randint(1, 9))
        want_code, want = 3, "not-an-ellipse"
    co = pullback(tuple(F(x) for x in co), inverse(g))
    f = run.write(conic_json(co))
    return run.op("classify_" + which, ["classify-conic", f],
                  lambda code, doc: code == want_code and doc == {"class": want})


def inv_desingularize(run, rng, maps, three_d):
    if three_d:
        while True:
            m = rng.randint(2, 5)
            a, b = rng.randint(0, m - 1), rng.randint(0, m - 1)
            if math.gcd(math.gcd(a, b), m) == 1:
                break
        gens = [(1, 0, 0), (0, 1, 0), (a, b, m)]
        rays = None
    else:
        k = rng.randint(2, 6)
        a = O.rand_unimodular(maps, 2)[0]
        gens = [O.apply((a, (0, 0)), (1, 0)), O.apply((a, (0, 0)), (1, k))]
        rays = sorted(O.apply((a, (0, 0)), (1, j)) for j in range(k + 1))
    f = run.write({"generators": [list(x) for x in gens]})

    def check(code, doc):
        if code != 0:
            return False
        cones = [tuple(tuple(x) for x in c) for c in doc["cones"]]
        if rays is not None and [tuple(r) for r in doc["rays"]] != rays:
            return False
        return O.fan_is_regular_subdivision(gens, cones)

    return run.op("desingularize_%dd" % (3 if three_d else 2),
                  ["desingularize", f], check)


def invariants_round(run, rng, memo, r):
    """Round r of the invariants batch.  Its objects come from the round's
    own corpus generator, the same for every seed, so that the mix of cheap
    and dear cases (which sets the median latency) does not move with the
    seed; the seed's `rng` draws the unimodular maps and the order."""
    corpus = random.Random("invariants-corpus/%d" % r)
    makers = []
    for kind in (inv_equiv_segment, inv_equiv_triangle, inv_equiv_ellipse):
        for neg in (False, False, False, True):
            makers.append(lambda kind=kind, neg=neg: kind(run, corpus, rng, neg))
    makers += [lambda: inv_equiv_polyhedron(run, corpus, rng)]
    makers += [lambda: inv_invariant_segment(run, corpus, rng)] * 2
    makers += [lambda: inv_invariant_angles(run, corpus, rng, memo, r)]
    makers += [lambda: inv_invariant_affine(run, corpus, rng)] * 2
    makers += [lambda: inv_hj(run, corpus), lambda: inv_lambda1(run, corpus, rng)]
    makers += [lambda w=w: inv_classify(run, corpus, rng, w)
               for w in ("ellipse", "no_point", "not_ellipse")]
    makers += [lambda t=t: inv_desingularize(run, corpus, rng, t)
               for t in (False, True)]
    ops = []
    for make in makers:
        op = None
        while op is None:  # a candidate negative the invariant cannot certify
            op = make()
        ops.extend(op if isinstance(op, list) else [op])
    rng.shuffle(ops)
    return ops


# --- polyhedra: the polyhedron decision --------------------------------------

# (ambient n, simplex dimensions).  Cases are capped by input properties only:
# simplex count x ambient dimension <= 4, and in R^3 only a single full-
# dimensional simplex, since lower-dimensional simplexes in R^3 sit on the
# heavy tail of the decision (single triangles in R^3 ran up to a minute).
POLY_SHAPES = ((1, (1,)), (1, (1, 1)), (1, (0, 1, 1)), (1, (1, 1, 1, 1)),
               (2, (2,)), (2, (1, 1)), (2, (1, 2)), (2, (2, 2)), (3, (3,)))
# Certified negatives rotate over the shapes in R^1 and R^2: a rejection
# tries every candidate frame, and in R^3 that took 20-40 s per pair.
POLY_NEG_SHAPES = tuple(s for s in POLY_SHAPES if s[0] <= 2)
POLY_NEGATIVES_PER_ROUND = 3


def rand_simplex(rng, n, d):
    """Criterion 7's simplex generator (denominators <= 4, span 2) at a fixed
    simplex dimension d.  In R^3 denominators are <= 2 and the span is 1: the
    regular-frame search is a depth-first search over the lattice points of
    the hull, and larger tetrahedra without a small-denominator regular frame
    ran for minutes (span 2) or tens of seconds (span 1, denominators <= 4)."""
    dmax, span = (4, 2) if n <= 2 else (2, 1)
    while True:
        pts = [rand_point(rng, n, dmax, span) for _ in range(d + 1)]
        if d == 0 or O.rank([[x - y for x, y in zip(p, pts[0])]
                             for p in pts[1:]]) == d:
            return tuple(pts)


def poly_case(api, rng, maps, n, dims, neg):
    """P and, for a negative, the moved vertex come from `rng`; the map g
    that presents the pair comes from `maps`."""
    P = [rand_simplex(rng, n, d) for d in dims]
    g = O.rand_unimodular(maps, n, tmax=2)
    src = P
    if neg:
        # move one vertex; keep the pair only when the count of points of
        # denominator <= 2 certifies that the unions are not equivalent
        src = list(P)
        i = rng.randrange(len(P))
        s = list(src[i])
        s[rng.randrange(len(s))] = rand_point(rng, n, 4, 2)
        d = len(s) - 1
        if d and O.rank([[x - y for x, y in zip(p, s[0])] for p in s[1:]]) != d:
            return None
        src[i] = tuple(s)
        if len(O.small_den_points(P)) == len(O.small_den_points(src)):
            return None
    Q = [tuple(O.apply(g, v) for v in s) for s in src]
    vertsP = sorted({v for s in P for v in s})
    vertsQ = sorted({v for s in Q for v in s})

    def check(m):
        if neg:
            return m is None
        if m is None or not O.is_unimodular_map((m.matrix, m.translation), n):
            return False
        g2 = (m.matrix, m.translation)
        # re-apply: vertices land in the other union both ways
        if not all(O.in_union(Q, O.apply(g2, v)) for v in vertsP):
            return False
        inv = api.UniAffMap(m.matrix, m.translation).inverse()
        return all(O.in_union(P, tuple(inv(w))) for w in vertsQ)

    kind = "poly_n%d_d%s_%s" % (n, "".join(map(str, dims)),
                                "neg" if neg else "pos")
    return Op(kind, lambda: api.polyhedron_equivalence(P, Q), check)


def polyhedra_round(api, rng, r):
    """Round r of the polyhedra batch: polyhedra from the round's corpus
    generator, the same for every seed; the seed's `rng` draws the
    unimodular maps and the order."""
    corpus = random.Random("polyhedra-corpus/%d" % r)
    negs = [POLY_NEG_SHAPES[(POLY_NEGATIVES_PER_ROUND * r + j)
                            % len(POLY_NEG_SHAPES)]
            for j in range(POLY_NEGATIVES_PER_ROUND)]
    ops = []
    cases = [(s, False) for s in POLY_SHAPES] + [(s, True) for s in negs]
    for (n, dims), neg in cases:
        op = None
        while op is None:
            op = poly_case(api, corpus, rng, n, dims, neg)
        ops.append(op)
    rng.shuffle(ops)
    return ops


# --- long_inputs: the input-size axis ------------------------------------------

# Every round holds the same strata, each size within 5% of its nominal
# value, so that any prefix of the batch has the same mix.  The sizes form
# geometric ladders, so operation costs cover 10-500 ms without wide gaps
# and the latency quantiles move smoothly.  Together the strata span chains
# of 1e3-2e4 vertices, 2-D cones [(1,0),(1,k)] with k 10-30, 3-D cones of
# multiplicity 11-21 and Legendre coefficients 1e4-1e6.
CHAIN_STRATA = (("hj_chain", 1, 1000), ("hj_chain", 1, 2000),
                ("hj_chain", 1, 4000), ("hj_chain", 1, 5000),
                ("hj_chain", 1, 8000), ("hj_chain", 1, 20000),
                ("hj_chain", 2, 1400), ("hj_chain", 2, 2800),
                ("hj_chain", 2, 5600), ("hj_chain", 2, 11300),
                ("lambda1", 1, 3000), ("lambda1", 1, 10000),
                ("side_invariant", 2, 2000), ("side_invariant", 2, 6000),
                ("segment_equivalence", 2, 1000),
                ("segment_equivalence", 2, 3000))
CONE_K = (10, 30)
CONE3_M = (12, 20)
CONIC_STRATA = (("legendre_unsolvable", 10 ** 4), ("legendre_planted", 10 ** 6),
                ("legendre_unsolvable", 10 ** 6), ("classify_no_point", 10 ** 6))
POLY_FAR = 1000


def jitter(rng, x):
    return max(1, int(x * (1 + rng.uniform(-0.05, 0.05))))


def long_segment(rng, maps, n, length):
    """A canonical segment of lattice length about `length` (its chain has
    about that many vertices), mapped by a random g in R^n."""
    alpha = rand_point(rng, 1, 9, 1)[0]
    beta = alpha + length + rand_point(rng, 1, 9, 1)[0] % 1
    if rng.random() < 0.5:
        alpha, beta = beta, alpha
    z = tuple(rng.randint(-2, 2) for _ in range(n - 1))
    g = O.rand_unimodular(maps, n)
    return O.apply(g, (alpha,) + z), O.apply(g, (beta,) + z), alpha, beta


def is_prime(p):
    if p < 2:
        return False
    return all(p % q for q in range(2, math.isqrt(p) + 1))


def prime_3mod4_near(rng, x):
    p = jitter(rng, x)
    while not (p % 4 == 3 and is_prime(p)):
        p += 1
    return p


def long_chain_op(api, rng, maps, kind, n, nominal):
    size = jitter(rng, nominal)
    a, b, alpha, beta = long_segment(rng, maps, n, size)
    label = "%s_%dd_%d" % (kind, n, nominal)
    if kind == "hj_chain":
        return Op(label, lambda: api.hj_chain(a, b),
                  lambda ch: O.chain_is_monotone(ch, a, b) and
                  O.chain_is_regular(ch), size)
    if kind == "lambda1":
        return Op(label, lambda: api.lambda1(a, b),
                  lambda lam: lam == abs(beta - alpha), size)
    if kind == "side_invariant":
        want = (1, abs(beta - alpha), O.den((alpha,)),
                O.first_chain_den(alpha, beta))
        return Op(label, lambda: api.side_invariant(a, b),
                  lambda inv: tuple(inv) == want, size)
    g = O.rand_unimodular(maps, n)
    a2, b2 = O.apply(g, a), O.apply(g, b)
    return Op(label, lambda: api.segment_equivalence((a, b), (a2, b2)),
              lambda m: m is not None and maps_onto(
                  (m.matrix, m.translation), n, [(a, a2), (b, b2)]), size)


def long_cone_ops(api, rng, k, m):
    ops = []
    kk = k + rng.randint(-1, 1)
    gens = [(1, 0), (1, kk)]
    rays = tuple((1, j) for j in range(kk + 1))
    ops.append(Op("desingularize_2d_k%d" % k, lambda: api.desingularize(gens),
                  lambda fan: api.fan_rays(fan) == rays and
                  O.fan_is_regular_subdivision(gens, fan), kk))
    mm = m + rng.randint(-1, 1)
    # (1, 1, m): the cost of the parallelepiped scan grows with the box of
    # the last generator, so it is held at its smallest
    gens3 = [(1, 0, 0), (0, 1, 0), (1, 1, mm)]
    ops.append(Op("desingularize_3d_m%d" % m, lambda: api.desingularize(gens3),
                  lambda fan: O.fan_is_regular_subdivision(gens3, fan), mm))
    return ops


def long_conic_op(api, rng, kind, size):
    label = "%s_%d" % (kind, size)
    if kind == "legendre_planted":
        # p x^2 + q y^2 + r z^2 = 0 at (x0, y0, 1), |r| about size
        p = rng.randint(size // 400, size // 100)
        q = rng.randint(size // 400, size // 100)
        x0, y0 = rng.randint(1, 9), rng.randint(1, 9)
        r = -(p * x0 * x0 + q * y0 * y0)
        return Op(label, lambda: api.legendre_solve(p, q, r),
                  lambda s: s is not None and any(s) and
                  p * s[0] ** 2 + q * s[1] ** 2 + r * s[2] ** 2 == 0)
    # x^2 + y^2 = prime has no rational point for a prime = 3 (mod 4)
    prime = prime_3mod4_near(rng, size)
    if kind == "legendre_unsolvable":
        return Op(label, lambda: api.legendre_solve(1, 1, -prime),
                  lambda s: s is None)
    co = api.conic(1, 0, 1, 0, 0, -prime)
    return Op(label, lambda: api.classify(co),
              lambda cls: cls == "ellipse-no-rational-point")


def long_poly_op(api, rng, maps, size):
    """A 1-D polyhedron of two segments far apart: the candidate filter walks
    chains of length about `size`."""
    x0, x1 = rand_point(rng, 1, 4, 1)[0], rand_point(rng, 1, 4, 1)[0] + size
    P = [((x0,), (x0 + 1 + rng.randint(0, 3),)),
         ((x1,), (x1 + 2 + rng.randint(0, 3),))]
    g = O.rand_unimodular(maps, 1)
    Q = [tuple(O.apply(g, v) for v in s) for s in P]
    verts = [(v, O.apply(g, v)) for s in P for v in s]

    def check(m):
        # in R^1 the map is +-x + t; it must carry the vertex set onto Q's
        if m is None or not O.is_unimodular_map((m.matrix, m.translation), 1):
            return False
        img = {O.apply((m.matrix, m.translation), v) for v, _ in verts}
        return img == {w for _, w in verts}

    return Op("polyhedron_1d_far", lambda: api.polyhedron_equivalence(P, Q), check)


def long_round(api, rng, r):
    """Round r of the long_inputs batch: sizes, segments, cones and
    coefficients come from the round's own corpus generator, the same for
    every seed; the seed's `rng` draws the unimodular maps and the order."""
    corpus = random.Random("long_inputs-corpus/%d" % r)
    ops = [long_chain_op(api, corpus, rng, kind, n, size)
           for kind, n, size in CHAIN_STRATA]
    for k, m in zip(CONE_K, CONE3_M):
        ops += long_cone_ops(api, corpus, k, m)
    ops += [long_conic_op(api, corpus, kind, size)
            for kind, size in CONIC_STRATA]
    ops.append(long_poly_op(api, corpus, rng, jitter(corpus, POLY_FAR)))
    rng.shuffle(ops)
    return ops
