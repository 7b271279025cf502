"""Command-line front end: invariants, orbit decisions, chains, and
desingularization over JSON files or stdin.

Exit codes: 0 success, 2 malformed input, 3 not in the operation's class,
4 internal assertion failure, 5 resource bound exceeded (a search passed
its cap, or memory ran out).  AFFLAT_MAX_DEN (default 64, a positive
integer) caps enumeration-based searches.
"""

import argparse
import json
import os
import sys

from . import budget, jsonio
from .affine import AffineSpace, affine_equivalence, affine_invariant
from .angles import (HalfLine, angle, angle_equivalence, angle_invariant,
                     triangle_equivalence, triangle_invariant)
from .conics import (ELLIPSE, classify, ellipse, ellipse_equivalence,
                     ellipse_invariant)
from .cones import desingularize
from .errors import (InputError, InternalCheckError, NotInClass,
                     SearchBudgetExceeded)
from .polyhedra import polyhedron_equivalence
from .segments import hj_chain, lambda1, segment_equivalence, side_invariant

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_IN_CLASS = 3
EXIT_INTERNAL = 4
EXIT_BUDGET = 5

FRACTION_SLASH = "⁄"

INVARIANT_KINDS = ("affine", "segment", "angle", "triangle", "ellipse")
EQUIV_KINDS = INVARIANT_KINDS + ("polyhedron",)


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and over-long integers
        raise InputError("cannot read %s: %s" % (path, exc))


def _angle_from_json(doc):
    v, h2, k2 = jsonio.parse_angle(doc)
    return angle(HalfLine(v, through=h2), HalfLine(v, through=k2))


def _invariant(kind, doc):
    if kind == "affine":
        return jsonio.affine_inv_json(affine_invariant(AffineSpace(jsonio.parse_affine(doc))))
    if kind == "segment":
        a, b = jsonio.parse_segment(doc)
        return jsonio.side_inv_json(side_invariant(a, b))
    if kind == "angle":
        return jsonio.angle_inv_json(angle_invariant(_angle_from_json(doc)))
    if kind == "triangle":
        return jsonio.tri_inv_json(triangle_invariant(jsonio.parse_triangle(doc)))
    if kind == "ellipse":
        return jsonio.ell_inv_json(ellipse_invariant(ellipse(jsonio.parse_conic(doc))))
    raise InputError("unknown invariant kind %r" % kind)


def _equiv(kind, doc1, doc2):
    if kind == "affine":
        g = affine_equivalence(AffineSpace(jsonio.parse_affine(doc1)),
                               AffineSpace(jsonio.parse_affine(doc2)))
    elif kind == "segment":
        g = segment_equivalence(jsonio.parse_segment(doc1),
                                jsonio.parse_segment(doc2))
    elif kind == "angle":
        g = angle_equivalence(_angle_from_json(doc1), _angle_from_json(doc2))
    elif kind == "triangle":
        g = triangle_equivalence(jsonio.parse_triangle(doc1),
                                 jsonio.parse_triangle(doc2))
    elif kind == "ellipse":
        g = ellipse_equivalence(ellipse(jsonio.parse_conic(doc1)),
                                ellipse(jsonio.parse_conic(doc2)))
    elif kind == "polyhedron":
        g = polyhedron_equivalence(jsonio.parse_polyhedron(doc1),
                                   jsonio.parse_polyhedron(doc2))
    else:
        raise InputError("unknown equivalence kind %r" % kind)
    return jsonio.equiv_json(g)


def _pretty(value, indent=""):
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (indent, k))
                lines.extend(_pretty(v, indent + "  "))
            else:
                lines.append("%s%s: %s" % (indent, k, _pretty_scalar(v)))
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % indent)
                lines.extend(_pretty(v, indent + "  "))
            else:
                lines.append("%s- %s" % (indent, _pretty_scalar(v)))
    else:
        lines.append("%s%s" % (indent, _pretty_scalar(value)))
    return lines


def _pretty_scalar(v):
    if isinstance(v, str) and "/" in v:
        return v.replace("/", FRACTION_SLASH)
    return str(v)


def _emit(result, fmt):
    if fmt == "text":
        sys.stdout.write("\n".join(_pretty(result)) + "\n")
    else:
        sys.stdout.write(json.dumps(result) + "\n")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="afflat",
        description="Exact orbit invariants and decisions for integer-affine "
                    "geometry of rational objects.")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="verb", required=True)

    p_inv = sub.add_parser("invariant", help="compute a complete invariant")
    p_inv.add_argument("--kind", choices=INVARIANT_KINDS, required=True)
    p_inv.add_argument("file")

    p_eq = sub.add_parser("equiv", help="decide orbit equivalence")
    p_eq.add_argument("--kind", choices=EQUIV_KINDS, required=True)
    p_eq.add_argument("file1")
    p_eq.add_argument("file2")

    p_hj = sub.add_parser("hj", help="canonical regular chain of a segment")
    p_hj.add_argument("file")

    p_l1 = sub.add_parser("lambda1", help="invariant length of a segment")
    p_l1.add_argument("file")

    p_cc = sub.add_parser("classify-conic", help="classify a rational conic")
    p_cc.add_argument("file")

    p_ds = sub.add_parser("desingularize", help="regular subdivision of a cone")
    p_ds.add_argument("file")
    return ap


def _max_den():
    """The search cap from AFFLAT_MAX_DEN (default 64): a positive integer."""
    raw = os.environ.get("AFFLAT_MAX_DEN", "64")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InputError("AFFLAT_MAX_DEN must be a positive integer, got %r"
                         % raw)
    return value


def run(argv):
    """Run one CLI command and return its exit code.  The cap from
    AFFLAT_MAX_DEN holds for this call only, so a caller's own cap is back
    in place when it returns."""
    args = build_parser().parse_args(argv)
    try:
        with budget.capped(_max_den()):
            if args.verb == "invariant":
                result = _invariant(args.kind, _read_json(args.file))
            elif args.verb == "equiv":
                result = _equiv(args.kind, _read_json(args.file1),
                                _read_json(args.file2))
            elif args.verb == "hj":
                a, b = jsonio.parse_segment(_read_json(args.file))
                result = jsonio.hj_json(hj_chain(a, b))
            elif args.verb == "lambda1":
                a, b = jsonio.parse_segment(_read_json(args.file))
                result = {"lambda1": jsonio.frac_str(lambda1(a, b))}
            elif args.verb == "classify-conic":
                cls = classify(jsonio.parse_conic(_read_json(args.file)))
                _emit({"class": cls}, args.format)
                return EXIT_OK if cls == ELLIPSE else EXIT_NOT_IN_CLASS
            elif args.verb == "desingularize":
                cone = jsonio.parse_cone(_read_json(args.file))
                result = jsonio.fan_json(desingularize(cone))
            else:
                raise InputError("unknown verb %r" % args.verb)
        _emit(result, args.format)
    except InputError as exc:
        _emit({"error": str(exc)}, args.format)
        return EXIT_BAD_INPUT
    except NotInClass as exc:
        _emit({"error": str(exc)}, args.format)
        return EXIT_NOT_IN_CLASS
    except SearchBudgetExceeded as exc:
        _emit({"error": str(exc)}, args.format)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        _emit({"error": str(exc)}, args.format)
        return EXIT_INTERNAL
    except MemoryError:
        _emit({"error": "%s ran out of memory" % args.verb}, args.format)
        return EXIT_BUDGET
    return EXIT_OK


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
