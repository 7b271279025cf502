"""Seeded in-process fuzz of the command line: malformed and edge-case
documents for every verb must end in a defined exit code (0 success, 2
malformed input, 3 not in class, 5 budget) with one JSON line on stdout,
never in an uncaught exception or an internal-check failure."""

import copy
import json
import random

from afflat.cli import EQUIV_KINDS, INVARIANT_KINDS, run

BASES = {
    "affine": {"points": [["1/2", "0"], ["0", "1/3"]]},
    "segment": {"a": ["0", "1/2"], "b": ["3", "1"]},
    "angle": {"v": ["0", "0"], "h": ["1", "0"], "k": ["1", "2"]},
    "triangle": {"u": ["1", "0"], "v": ["0", "0"], "w": ["0", "1"]},
    "ellipse": {"a": "1", "b": "0", "c": "2", "d": "0", "e": "0", "f": "-3"},
    "polyhedron": {"simplexes": [[["0"], ["1"]], [["2"], ["3"]]]},
    "cone": {"generators": [[1, 0, 0], [0, 1, 0], [1, 1, 3]]},
}

# (argv before the file names, document kind, number of files)
VERBS = ([(["invariant", "--kind", k], k, 1) for k in INVARIANT_KINDS]
         + [(["equiv", "--kind", k], k, 2) for k in EQUIV_KINDS]
         + [(["hj"], "segment", 1), (["lambda1"], "segment", 1),
            (["classify-conic"], "ellipse", 1), (["desingularize"], "cone", 1)])

# Scalars stay at desk scale: a coordinate near 1e30 still hangs the ellipse
# verbs in unbudgeted trial division (open under ROADMAP item 5), so 1e30
# is tried on the polyhedron documents only, by test_polyhedron_magnitudes.
JUNK = [None, True, False, 0, 1, -1, 2, 7, 1.5, "", "0", "1", "-7/3", "1/0",
        "x", "nan", "inf", "1.5", " 3 ", "1_000", "1e3", "-2e-3", "1e5000",
        [], {}, [[]], ["1"], [["1"]], [1, 2], ["0", "0", "0"], {"a": 1}]

# whole files that are not JSON documents, or that json cannot hold
RAW = ["", "{not json", "[" * 100000, "[" + "7" * 5000 + "]",
       '{"a": ["' + "1" * 5000 + '"], "b": ["1"]}', "\udcff", "null"]


def _paths(doc):
    """Every (container, key) position in a JSON tree."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield doc, k
        yield from _paths(v)


def _mutate(rng, doc):
    """The document after one to three random edits; one in twenty is
    replaced outright."""
    if rng.random() < 0.05:
        return copy.deepcopy(rng.choice(JUNK))
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        spots = list(_paths(doc))
        if not spots:
            break
        parent, key = rng.choice(spots)
        move = rng.random()
        if move < 0.6:
            parent[key] = copy.deepcopy(rng.choice(JUNK))
        elif move < 0.8:
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent["extra"] = copy.deepcopy(parent[key])
    return doc


def test_cli_fuzz_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFFLAT_MAX_DEN", "64")
    rng = random.Random(71)
    failures = []
    for case in range(1000):
        argv, kind, arity = VERBS[case % len(VERBS)]
        files = []
        for i in range(arity):
            doc = BASES[kind]
            if i == 0 or rng.random() < 0.5:
                doc = _mutate(rng, doc)
            text = json.dumps(doc)
            if rng.random() < 0.02:
                text = rng.choice(RAW)
            path = tmp_path / ("c%d_%d.json" % (case, i))
            path.write_text(text, errors="surrogateescape")
            files.append(str(path))
        try:
            code = run(argv + files)
        except Exception as exc:  # noqa: BLE001 - the point of the test
            code = "%s: %s" % (type(exc).__name__, exc)
        out = capsys.readouterr().out
        lines = out.splitlines()
        ok = code in (0, 2, 3, 5) and len(lines) == 1
        if ok:
            try:
                json.loads(lines[0])
            except ValueError:
                ok = False
        if not ok:
            docs = [open(f, errors="replace").read()[:200] for f in files]
            failures.append((argv, docs, code, out[:200]))
    assert not failures, failures[:5]


def test_polyhedron_magnitudes(tmp_path, capsys, monkeypatch):
    # each scalar of the polyhedron document at +-1e30, as either side of
    # the decision: the lattice point scans must refuse, never overflow
    monkeypatch.setenv("AFFLAT_MAX_DEN", "64")
    base = BASES["polyhedron"]
    plain = tmp_path / "base.json"
    plain.write_text(json.dumps(base))
    big = tmp_path / "big.json"
    failures = []
    for spot, (parent, key) in enumerate(_paths(base)):
        if not isinstance(parent[key], str):
            continue
        for value in ("1e30", "-1e30"):
            doc = copy.deepcopy(base)
            slot, k = list(_paths(doc))[spot]
            slot[k] = value
            big.write_text(json.dumps(doc))
            for files in ([big, plain], [plain, big]):
                try:
                    code = run(["equiv", "--kind", "polyhedron"]
                               + [str(f) for f in files])
                except Exception as exc:  # noqa: BLE001 - the point of the test
                    code = "%s: %s" % (type(exc).__name__, exc)
                lines = capsys.readouterr().out.splitlines()
                ok = code in (0, 2, 3, 5) and len(lines) == 1
                if ok:
                    try:
                        json.loads(lines[0])
                    except ValueError:
                        ok = False
                if not ok:
                    failures.append((doc, files[0] == big, code, lines[:2]))
    assert not failures, failures[:5]
