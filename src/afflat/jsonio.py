"""JSON (de)serialization for every object and result the CLI handles.

Rational values serialize as strings "p/q" ("p" for integers); fields that
are integers by construction (denominators, dimensions, matrix entries)
serialize as JSON ints.  Parsers check every container's type and raise
InputError on anything else.  A decimal exponent in a rational string is
capped at sys.get_int_max_str_digits(), the digit cap Python already puts
on integer literals, so "1e100000" is refused before it becomes a huge
integer.
"""

import sys

from .conics import conic
from .cones import fan_rays
from .errors import InputError
from .rationals import rat


def frac_str(f):
    f = rat(f)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_frac(s):
    if isinstance(s, bool):
        raise InputError("bad rational %r: not a number" % (s,))
    if isinstance(s, str):
        _check_exponent(s)
    try:
        return rat(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError("bad rational %r: %s" % (s, exc))


def _check_exponent(s):
    """Refuse a decimal exponent longer than Python's integer digit cap (0
    switches that cap, and this one, off)."""
    cap = sys.get_int_max_str_digits()
    _, e, exp = s.lower().partition("e")
    if not (e and cap):
        return
    try:
        value = int(exp)
    except ValueError:
        return  # not an exponent; Fraction rejects the string
    if abs(value) > cap:
        raise InputError("bad rational %r: exponent beyond %d" % (s, cap))


def _list(v, what):
    if not isinstance(v, list):
        raise InputError("%s must be a JSON array" % what)
    return v


def point_json(p):
    return [frac_str(c) for c in p]


def parse_point(arr):
    if not isinstance(arr, (list, tuple)) or not arr:
        raise InputError("a point must be a nonempty array")
    return tuple(parse_frac(c) for c in arr)


def _require(d, keys, what):
    if not isinstance(d, dict):
        raise InputError("%s must be a JSON object" % what)
    for k in keys:
        if k not in d:
            raise InputError("%s is missing %r" % (what, k))


def map_json(g):
    if g is None:
        return None
    return {"matrix": [list(r) for r in g.matrix],
            "translation": list(g.translation)}


def parse_affine(d):
    _require(d, ("points",), "affine space")
    pts = [parse_point(p) for p in _list(d["points"], "points")]
    if not pts:
        raise InputError("affine space needs at least one point")
    return pts


def parse_segment(d):
    _require(d, ("a", "b"), "segment")
    return parse_point(d["a"]), parse_point(d["b"])


def parse_angle(d):
    _require(d, ("v", "h", "k"), "angle")
    return parse_point(d["v"]), parse_point(d["h"]), parse_point(d["k"])


def parse_triangle(d):
    _require(d, ("u", "v", "w"), "triangle")
    return parse_point(d["u"]), parse_point(d["v"]), parse_point(d["w"])


def parse_conic(d):
    _require(d, tuple("abcdef"), "conic")
    return conic(*(parse_frac(d[k]) for k in "abcdef"))


def parse_polyhedron(d):
    _require(d, ("simplexes",), "polyhedron")
    simps = d["simplexes"]
    if not isinstance(simps, list) or not simps:
        raise InputError("polyhedron needs a nonempty simplex list")
    return [tuple(parse_point(p) for p in _list(s, "a simplex")) for s in simps]


def parse_cone(d):
    _require(d, ("generators",), "cone")
    gens = d["generators"]
    if not isinstance(gens, list) or not gens:
        raise InputError("cone needs a nonempty generator list")
    out = []
    for g in gens:
        vec = []
        for c in _list(g, "a cone generator"):
            f = parse_frac(c)
            if f.denominator != 1:
                raise InputError("cone generators must be integer vectors")
            vec.append(f.numerator)
        out.append(tuple(vec))
    return out


def affine_inv_json(inv):
    return {"dim": inv.dim, "d": inv.d, "c": inv.c}


def side_inv_json(inv):
    return {"c": inv.c, "lambda1": frac_str(inv.lambda1),
            "den_a": inv.den_a, "den_x1": inv.den_x1}


def angle_inv_json(inv):
    return {"den_v": inv.den_v, "den_qh": inv.den_q, "den_phk": inv.den_p,
            "bary": [frac_str(inv.bary[0]), frac_str(inv.bary[1])],
            "c": inv.c}


def tri_inv_json(inv):
    return {"side_vu": side_inv_json(inv.side_vu),
            "angle": angle_inv_json(inv.angle),
            "side_vw": side_inv_json(inv.side_vw)}


def ell_inv_json(inv):
    return {"triangles": [tri_inv_json(t) for t in inv]}


def equiv_json(g):
    return {"equivalent": g is not None, "map": map_json(g)}


def hj_json(chain):
    return {"vertices": [point_json(x) for x in chain]}


def fan_json(fan):
    return {"rays": [list(r) for r in fan_rays(fan)],
            "cones": [[list(g) for g in c] for c in fan]}
