import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest


def run_cli(args, inp=None, env_extra=None, timeout=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "afflat"] + args,
                          capture_output=True, text=True, input=inp, env=env,
                          timeout=timeout)
    return proc


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_equiv_segment_example(tmp_path):
    a = write(tmp_path, "a.json", {"a": ["0"], "b": ["1"]})
    b = write(tmp_path, "b.json", {"a": ["3"], "b": ["4"]})
    proc = run_cli(["equiv", "--kind", "segment", a, b])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "equivalent": True, "map": {"matrix": [[1]], "translation": [3]}}


def test_invariant_affine_example(tmp_path):
    f = write(tmp_path, "f.json", {"points": [["2/5", "0"], ["0", "2/5"]]})
    proc = run_cli(["invariant", "--kind", "affine", f])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dim": 1, "d": 5, "c": 2}


def test_classify_conic_exit_codes(tmp_path):
    no_pt = write(tmp_path, "c.json",
                  {"a": "1", "b": "0", "c": "1", "d": "0", "e": "0", "f": "-3"})
    proc = run_cli(["classify-conic", no_pt])
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"class": "ellipse-no-rational-point"}
    circ = write(tmp_path, "circ.json",
                 {"a": "1", "b": "0", "c": "1", "d": "0", "e": "0", "f": "-1"})
    proc = run_cli(["classify-conic", circ])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"class": "ellipse-in-E"}


def test_classify_conic_large_level_without_point(tmp_path):
    # x^2 + y^2 = 10^12 + 7 = 34519 * 28969553 with 34519 = 3 (mod 4): no
    # rational point, decided from the factors instead of a 10^12-cell scan
    f = write(tmp_path, "c.json", {"a": "1", "b": "0", "c": "1", "d": "0",
                                   "e": "0", "f": str(-(10 ** 12 + 7))})
    proc = run_cli(["classify-conic", f], timeout=30)
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"class": "ellipse-no-rational-point"}


def test_hj_and_lambda1(tmp_path):
    s = write(tmp_path, "s.json", {"a": ["-1/2"], "b": ["5/8"]})
    proc = run_cli(["hj", s])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "vertices": [["-1/2"], ["0"], ["1/2"], ["3/5"], ["5/8"]]}
    proc = run_cli(["lambda1", s])
    assert json.loads(proc.stdout) == {"lambda1": "9/8"}


@pytest.mark.parametrize("doc, fmt, digest", [
    ({"a": ["-1/3"], "b": ["34995/7"]}, "json",
     "c79cd01b3eea12060530eab5ba0abcbeab942346aeba055e53bb704381d6554c"),
    ({"a": ["-1/3"], "b": ["34995/7"]}, "text",
     "89c65bfbcc235b2722ed818af777c83566f000ebeec3b78845a68ed543afbe04"),
    ({"a": ["-2/5", "1/2"], "b": ["1500", "1/2"]}, "json",
     "3e2c9f314047eba2dd3db1743edbb4f3e7fd7caca1ee102f17488a62f696d61b"),
    ({"a": ["-2/5", "1/2"], "b": ["1500", "1/2"]}, "text",
     "0ddfb9061e429f9589de23382c369924830515c0d72d64ecfc963a4d3f0e646e"),
])
def test_hj_long_chains_byte_stable(tmp_path, doc, fmt, digest):
    # a 1-D chain of 5003 vertices (integer runs between fractional ends)
    # and the 3005-vertex chain of a segment on the line y = 1/2
    s = write(tmp_path, "s.json", doc)
    proc = run_cli(["--format", fmt, "hj", s])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_desingularize(tmp_path):
    c = write(tmp_path, "cone.json", {"generators": [[-1, 2], [5, 8]]})
    proc = run_cli(["desingularize", c])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["rays"] == [[-1, 2], [0, 1], [1, 2], [3, 5], [5, 8]]


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli(["hj", str(bad)])
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)
    missing = write(tmp_path, "m.json", {"a": ["0"]})
    proc = run_cli(["hj", missing])
    assert proc.returncode == 2


def test_mixed_ambient_dimensions_exit_2(tmp_path):
    f = write(tmp_path, "f.json", {"points": [["0", "1"], ["1", "0", "2"]]})
    proc = run_cli(["invariant", "--kind", "affine", f])
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": "mixed ambient dimensions"}
    assert "Traceback" not in proc.stderr


def test_not_in_class_exit_3(tmp_path):
    angle = write(tmp_path, "tri.json",
                  {"v": ["0", "0"], "h": ["1", "0"], "k": ["-1", "0"]})
    proc = run_cli(["invariant", "--kind", "angle", angle])
    assert proc.returncode == 3
    degenerate = write(tmp_path, "deg.json",
                       {"u": ["0", "0"], "v": ["1", "1"], "w": ["2", "2"]})
    proc = run_cli(["invariant", "--kind", "triangle", degenerate])
    assert proc.returncode == 3


# (x - 1/9)^2 + y^2 = 1: its minimal-index search passes the cap 8, and
# answers in well under a second uncapped
CAPPED_ELLIPSE = {"a": "1", "b": "0", "c": "1", "d": "-2/9", "e": "0",
                  "f": "-80/81"}


def capped_ellipse():
    from afflat.conics import conic, ellipse
    return ellipse(conic(*(Fraction(CAPPED_ELLIPSE[k]) for k in "abcdef")))


def test_budget_exit_5(tmp_path):
    cap = {"AFFLAT_MAX_DEN": "8"}
    ell = write(tmp_path, "e.json", CAPPED_ELLIPSE)
    proc = run_cli(["equiv", "--kind", "ellipse", ell, ell], env_extra=cap)
    assert proc.returncode == 5
    assert "semi-diameter index search" in json.loads(proc.stdout)["error"]
    # the polyhedron decision builds its maps from the lifts of hull
    # vertices and of the span's witness simplex, so a segment whose points
    # all have denominator >= 97 runs no capped search
    seg = write(tmp_path, "s.json",
                {"simplexes": [[["1/97", "0"], ["0", "1/97"]]]})
    proc = run_cli(["equiv", "--kind", "polyhedron", seg, seg], env_extra=cap)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "equivalent": True,
        "map": {"matrix": [[1, 0], [0, 1]], "translation": [0, 0]}}
    # d of its line is read off a lattice basis, with no search to cap
    f = write(tmp_path, "f.json", {"points": [["1/97", "0"], ["0", "1/97"]]})
    proc = run_cli(["invariant", "--kind", "affine", f], env_extra=cap)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 97


def test_polyhedron_tiny_segment_against_its_translate(tmp_path):
    # conv((1/999983, 0), (0, 1/999983)) against its translate by (0, 1)
    # under the default cap: no lattice point of the hull is scanned
    a = write(tmp_path, "a.json",
              {"simplexes": [[["1/999983", "0"], ["0", "1/999983"]]]})
    b = write(tmp_path, "b.json",
              {"simplexes": [[["1/999983", "1"], ["0", "999984/999983"]]]})
    proc = run_cli(["equiv", "--kind", "polyhedron", a, b], timeout=60)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["equivalent"] is True
    from afflat.core import UniAffMap
    g = UniAffMap(out["map"]["matrix"], out["map"]["translation"])
    P = ((Fraction(1, 999983), Fraction(0)), (Fraction(0), Fraction(1, 999983)))
    Q = ((Fraction(1, 999983), Fraction(1)),
         (Fraction(0), Fraction(999984, 999983)))
    assert sorted(map(g, P)) == sorted(Q)


def test_cli_run_keeps_the_callers_cap(tmp_path, capsys, monkeypatch):
    # cli.run caps its own call from AFFLAT_MAX_DEN; the caller's cap, set
    # or not, is back in place afterwards, whatever the exit code
    from afflat import budget, cli
    from afflat.conics import ellipse_equivalence
    ell = write(tmp_path, "e.json", CAPPED_ELLIPSE)
    f = write(tmp_path, "f.json", {"a": ["0"], "b": ["1/3"]})
    missing = str(tmp_path / "missing.json")
    monkeypatch.setenv("AFFLAT_MAX_DEN", "8")
    old = budget.set_max_den(None)
    try:
        assert cli.run(["equiv", "--kind", "ellipse", ell, ell]) == 5
        # the caller is uncapped again: the same search answers
        E = capped_ellipse()
        assert ellipse_equivalence(E, E) is not None
        budget.set_max_den(100)
        codes = [cli.run(["lambda1", f]), cli.run(["lambda1", missing]),
                 cli.run(["equiv", "--kind", "ellipse", ell, ell])]
        cap = budget.set_max_den(None)
    finally:
        budget.set_max_den(old)
    assert codes == [0, 2, 5]
    assert cap == 100


def test_out_of_memory_exits_5(tmp_path, capsys, monkeypatch):
    # a chain too long for memory (a 1e8-vertex hj ends so) exits 5 with
    # an error naming the verb, not a traceback
    from afflat import cli

    def exhausted(a, b):
        raise MemoryError

    monkeypatch.setattr(cli, "hj_chain", exhausted)
    f = write(tmp_path, "s.json", {"a": ["0"], "b": ["99999999/100000000"]})
    assert cli.run(["hj", f]) == 5
    assert json.loads(capsys.readouterr().out) == {"error": "hj ran out of memory"}


def test_search_cap_belongs_to_its_thread():
    # two threads run one search at once, one under cap 8 and one uncapped;
    # a barrier has both set their caps before either searches, and again
    # before either reads its cap back
    import threading
    from afflat import budget
    from afflat.conics import ellipse_equivalence
    from afflat.errors import SearchBudgetExceeded
    E = capped_ellipse()
    barrier = threading.Barrier(2, timeout=60)
    out = {}

    def worker(cap):
        budget.set_max_den(cap)
        barrier.wait()
        try:
            out[cap] = ellipse_equivalence(E, E) is not None
        except SearchBudgetExceeded as exc:
            out[cap] = str(exc)
        barrier.wait()
        out[cap, "after"] = budget.set_max_den(None)

    threads = [threading.Thread(target=worker, args=(cap,))
               for cap in (8, None)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert out == {
        8: "semi-diameter index search passed the cap 8 (AFFLAT_MAX_DEN)",
        None: True, (8, "after"): 8, (None, "after"): None}


def test_ellipse_areas_decide_before_the_capped_search(tmp_path):
    # E: (x - 1/101)^2 + y^2 = 1, whose minimal-index search passes the
    # default cap 64, and 2E: (x - 2/101)^2 + y^2 = 4; their areas differ,
    # so the pair is answered with no search, while E against itself
    # still needs the search
    e = write(tmp_path, "e.json", {"a": "1", "b": "0", "c": "1", "d": "-2/101",
                                   "e": "0", "f": "-10200/10201"})
    e2 = write(tmp_path, "e2.json", {"a": "1", "b": "0", "c": "1",
                                     "d": "-4/101", "e": "0",
                                     "f": "-40800/10201"})
    for pair in ((e, e2), (e2, e)):
        proc = run_cli(["equiv", "--kind", "ellipse", *pair])
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"equivalent": False, "map": None}
    proc = run_cli(["equiv", "--kind", "ellipse", e, e])
    assert proc.returncode == 5
    assert "semi-diameter index search" in json.loads(proc.stdout)["error"]
    # x^2 + 2y^2 = 1 has no rational conjugate pair: reported on either
    # side, before E's search
    no_pairs = write(tmp_path, "n.json", {"a": "1", "b": "0", "c": "2",
                                          "d": "0", "e": "0", "f": "-1"})
    for pair in ((e, no_pairs), (no_pairs, e)):
        proc = run_cli(["equiv", "--kind", "ellipse", *pair])
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == {
            "error": "ellipse has no rational conjugate semi-diameter pairs"}


def test_side_and_angle_invariants_need_no_capped_search(tmp_path):
    # c of a line or plane is read from the witness extension, so a least
    # denominator (65) above the cap runs no capped search; the uncapped
    # library computes the same c through min_den_point
    from fractions import Fraction
    from afflat.affine import AffineSpace, affine_invariant
    cap = {"AFFLAT_MAX_DEN": "8"}
    seg = write(tmp_path, "s.json", {"a": ["1/65", "0"], "b": ["1/65", "1"]})
    proc = run_cli(["invariant", "--kind", "segment", seg], env_extra=cap)
    assert proc.returncode == 0
    line = [(Fraction(1, 65), Fraction(0)), (Fraction(1, 65), Fraction(1))]
    assert json.loads(proc.stdout) == {
        "c": affine_invariant(AffineSpace(line)).c, "lambda1": "1/65",
        "den_a": 65, "den_x1": 65}
    ang = write(tmp_path, "a.json", {"v": ["1/65", "0", "0"],
                                     "h": ["1/65", "1", "0"],
                                     "k": ["1/65", "0", "1"]})
    proc = run_cli(["equiv", "--kind", "angle", ang, ang], env_extra=cap)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "equivalent": True,
        "map": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "translation": [0, 0, 0]}}


def test_segment_invariants_at_length_1e30(tmp_path):
    # lambda1 and the side invariant read the chain's runs, never its
    # 1e30 vertices; on the line lambda1 is the length
    seg = write(tmp_path, "s.json", {"a": ["1/3", "2"],
                                     "b": ["1000000000000000000000000000000", "2"]})
    length = "2999999999999999999999999999999/3"
    proc = run_cli(["lambda1", seg])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lambda1": length}
    proc = run_cli(["invariant", "--kind", "segment", seg])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"c": 1, "lambda1": length,
                                       "den_a": 3, "den_x1": 2}
    # its chain has more vertices than a list can hold: a resource error
    # at once, not a traceback
    proc = run_cli(["hj", seg])
    assert proc.returncode == 5
    assert "error" in json.loads(proc.stdout) and not proc.stderr


def test_bad_max_den_exit_2(tmp_path):
    f = write(tmp_path, "f.json", {"a": ["0"], "b": ["2/5"]})
    for bad in ("abc", "0", "-3", "1.5", ""):
        proc = run_cli(["hj", f], env_extra={"AFFLAT_MAX_DEN": bad})
        assert proc.returncode == 2, bad
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert "AFFLAT_MAX_DEN" in json.loads(lines[0])["error"]


def test_stdin_input():
    proc = run_cli(["lambda1", "-"], inp=json.dumps({"a": ["0"], "b": ["2/5"]}))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lambda1": "2/5"}


def test_witness_map_roundtrip(tmp_path):
    # the emitted witness map, applied back, reproduces the target object
    a = write(tmp_path, "a.json", {"a": ["0", "0"], "b": ["1/2", "0"]})
    b = write(tmp_path, "b.json", {"a": ["1", "1"], "b": ["3/2", "1"]})
    proc = run_cli(["equiv", "--kind", "segment", a, b])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["equivalent"] is True
    from afflat.core import UniAffMap
    from afflat.jsonio import parse_point
    g = UniAffMap(tuple(tuple(r) for r in out["map"]["matrix"]),
                  tuple(out["map"]["translation"]))
    src = json.load(open(a))
    dst = json.load(open(b))
    assert g(parse_point(src["a"])) == parse_point(dst["a"])
    assert g(parse_point(src["b"])) == parse_point(dst["b"])


def test_output_byte_stable(tmp_path):
    f = write(tmp_path, "f.json", {"points": [["1/2", "0"], ["0", "1/2"]]})
    out1 = run_cli(["invariant", "--kind", "affine", f]).stdout
    out2 = run_cli(["invariant", "--kind", "affine", f]).stdout
    assert out1 == out2


def test_text_format(tmp_path):
    s = write(tmp_path, "s.json", {"a": ["-1/2"], "b": ["5/8"]})
    proc = run_cli(["--format", "text", "lambda1", s])
    assert proc.returncode == 0
    assert "9⁄8" in proc.stdout


def test_equiv_ambient_mismatch_exit_2(tmp_path):
    a = write(tmp_path, "a1d.json", {"a": ["0"], "b": ["1"]})
    b = write(tmp_path, "b2d.json", {"a": ["0", "0"], "b": ["1", "0"]})
    proc = run_cli(["equiv", "--kind", "segment", a, b])
    assert proc.returncode == 2


def test_equiv_polyhedron(tmp_path):
    p = write(tmp_path, "p.json",
              {"simplexes": [[["0"], ["1"]], [["2"], ["3"]]]})
    q = write(tmp_path, "q.json",
              {"simplexes": [[["5"], ["6"]], [["7"], ["8"]]]})
    proc = run_cli(["equiv", "--kind", "polyhedron", p, q])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["equivalent"] is True
    from afflat.core import UniAffMap
    from afflat.jsonio import parse_polyhedron
    from afflat.polyhedra import poly_set_equal
    g = UniAffMap(tuple(tuple(r) for r in out["map"]["matrix"]),
                  tuple(out["map"]["translation"]))
    P = parse_polyhedron(json.load(open(p)))
    Q = parse_polyhedron(json.load(open(q)))
    assert poly_set_equal([tuple(g(v) for v in s) for s in P], Q)
    r = write(tmp_path, "r.json", {"simplexes": [[["0"], ["2"]]]})
    p2 = write(tmp_path, "p2.json", {"simplexes": [[["0"], ["1"]]]})
    proc = run_cli(["equiv", "--kind", "polyhedron", p2, r])
    assert json.loads(proc.stdout) == {"equivalent": False, "map": None}


def test_remaining_kinds(tmp_path):
    f1 = write(tmp_path, "f1.json", {"points": [["1/2", "0"], ["1/2", "1"]]})
    f2 = write(tmp_path, "f2.json", {"points": [["1/2", "0"], ["0", "1/2"]]})
    proc = run_cli(["equiv", "--kind", "affine", f1, f2])
    assert proc.returncode == 0 and json.loads(proc.stdout)["equivalent"] is True

    s = write(tmp_path, "seg.json", {"a": ["0"], "b": ["1/2"]})
    proc = run_cli(["invariant", "--kind", "segment", s])
    assert json.loads(proc.stdout) == {"c": 1, "lambda1": "1/2",
                                       "den_a": 1, "den_x1": 2}

    ang = write(tmp_path, "ang.json",
                {"v": ["0", "0"], "h": ["1", "0"], "k": ["0", "1"]})
    proc = run_cli(["invariant", "--kind", "angle", ang])
    assert json.loads(proc.stdout) == {"den_v": 1, "den_qh": 1, "den_phk": 1,
                                       "bary": ["0", "0"], "c": 1}

    t = write(tmp_path, "t.json",
              {"u": ["1", "0"], "v": ["0", "0"], "w": ["0", "1"]})
    proc = run_cli(["invariant", "--kind", "triangle", t])
    out = json.loads(proc.stdout)
    assert out["side_vu"] == {"c": 1, "lambda1": "1", "den_a": 1, "den_x1": 1}
    t2 = write(tmp_path, "t2.json",
               {"u": ["6", "7"], "v": ["5", "7"], "w": ["5", "8"]})
    proc = run_cli(["equiv", "--kind", "triangle", t, t2])
    assert json.loads(proc.stdout)["equivalent"] is True

    circ = write(tmp_path, "circ2.json",
                 {"a": "1", "b": "0", "c": "1", "d": "0", "e": "0", "f": "-1"})
    proc = run_cli(["invariant", "--kind", "ellipse", circ])
    out = json.loads(proc.stdout)
    assert len(out["triangles"]) >= 1

    a1 = write(tmp_path, "a1.json",
               {"v": ["0", "0"], "h": ["1", "0"], "k": ["0", "1"]})
    a2 = write(tmp_path, "a2.json",
               {"v": ["3", "3"], "h": ["4", "3"], "k": ["3", "4"]})
    proc = run_cli(["equiv", "--kind", "angle", a1, a2])
    assert json.loads(proc.stdout)["equivalent"] is True


def test_equiv_ellipse(tmp_path):
    c1 = write(tmp_path, "c1.json",
               {"a": "1", "b": "0", "c": "1", "d": "0", "e": "0", "f": "-1"})
    c2 = write(tmp_path, "c2.json",
               {"a": "1", "b": "-2", "c": "2", "d": "0", "e": "0", "f": "-1"})
    proc = run_cli(["equiv", "--kind", "ellipse", c1, c2])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["equivalent"] is True


def test_desingularize_multiplicity_exit_5(tmp_path):
    # the |det| = 10^7 cosets are charged to the cap per axis, as
    # ceil(10^7^(1/3)) = 216 > 64, before they are listed
    c = write(tmp_path, "big.json",
              {"generators": [[1, 0, 0], [0, 1, 0], [1, 1, 10 ** 7]]})
    proc = run_cli(["desingularize", c], timeout=30)
    assert proc.returncode == 5
    assert "cone multiplicity" in json.loads(proc.stdout)["error"]


def test_desingularize_multiplicity_under_default_cap(tmp_path):
    # |det| = 80 is 5 per axis, well inside the default cap of 64
    from afflat.cones import desingularize
    c = write(tmp_path, "m80.json",
              {"generators": [[1, 0, 0], [0, 1, 0], [1, 1, 80]]})
    proc = run_cli(["desingularize", c], timeout=30)
    assert proc.returncode == 0
    want = desingularize([(1, 0, 0), (0, 1, 0), (1, 1, 80)])
    assert json.loads(proc.stdout)["cones"] == \
        [[list(g) for g in c] for c in want]


def test_rational_exponent_cap():
    from afflat.errors import InputError
    from afflat.jsonio import parse_frac
    assert parse_frac("1e30") == 10 ** 30
    assert parse_frac("-2.5E-3") == Fraction(-1, 400)
    assert 0 < sys.get_int_max_str_digits() < 5000  # the default cap, 4300
    for s in ("1e5000", "1E-5000", "3e+4_301"):
        with pytest.raises(InputError):
            parse_frac(s)
    for junk in (True, None, [1], {"a": 1}, 1.5):
        with pytest.raises(InputError):
            parse_frac(junk)


def test_malformed_containers_exit_2(tmp_path):
    cases = [(["invariant", "--kind", "affine"], {"points": True}),
             (["invariant", "--kind", "affine"], {"points": "12"}),
             (["equiv", "--kind", "polyhedron"], {"simplexes": [0]}),
             (["desingularize"], {"generators": [[1, 0], 5]}),
             (["desingularize"], {"generators": [[1, 0, 0], [0, 1]]})]
    for argv, doc in cases:
        f = write(tmp_path, "bad.json", doc)
        files = [f, f] if argv[0] == "equiv" else [f]
        proc = run_cli(argv + files)
        assert proc.returncode == 2, (argv, doc, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "error" in json.loads(proc.stdout)


def test_polyhedron_huge_vertex_exits_cleanly(tmp_path):
    big = write(tmp_path, "big.json",
                {"simplexes": [[["0"], ["1"]], [["2"], ["1e30"]]]})
    small = write(tmp_path, "small.json",
                  {"simplexes": [[["0"], ["1"]], [["2"], ["3"]]]})
    # the hull segments conv(0, 1e30) and conv(0, 3) differ in lambda_1,
    # which is read off the chain's runs: both orders answer at once
    for pair in ((big, small), (small, big)):
        proc = run_cli(["equiv", "--kind", "polyhedron", *pair], timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"equivalent": False, "map": None}
    # against itself no lattice point of the 1e30-long hull is scanned:
    # the map is built from the lifts of the hull's vertices, and it is the
    # identity
    proc = run_cli(["equiv", "--kind", "polyhedron", big, big], timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "equivalent": True, "map": {"matrix": [[1]], "translation": [0]}}
