"""afflat benchmark: one closed-loop client driving afflat in-process.

    python3 perfbench/run.py --workload invariants|polyhedra|long_inputs|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; afflat is imported from ./src.
Inputs come from the seed and from fixed per-round corpus generators
(workloads.py).  Each operation starts when the previous one has returned;
there are no threads, queues or worker processes, so no operation ever
waits and no waiting time is reported.  Every result is
checked by the benchmark's own oracles (oracles.py).

Times are scaled to a nominal machine speed.  The host is shared, and its
speed for pure-Python work switches between a fast and a slow state (about
1.6 times slower) every few tens of milliseconds, and the share of time in
the slow state drifts over tens of seconds.  Between operations the loop
times a fixed stdlib-only reference task (SpeedReference) about twenty times
a second; each operation's wall time is multiplied by REF_NOMINAL_S over the
mean reference time within REF_WINDOW_S around its start (a mean, because
with two states a median jumps between them), and set-up time likewise.
afflat never runs inside the reference, so a change to afflat moves the
scaled times as it moves wall time.  The unscaled wall-clock figures are in
the detailed record.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed prefix of the batch twice, untraced and then traced
(tracer.py), and reports the per-layer metrics of the traced pass.  Both
print one JSON object as the last line of stdout and write a detailed
record under perfbench/out/.
"""

import argparse
import bisect
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

WORKLOADS = ("invariants", "polyhedra", "long_inputs")
SETUP_PROBES = 7
SETUP_REF_TASKS = 5
WARMUP_SEED = 12345
WARMUP_OPS = 2
# speed reference: one task about every REF_PERIOD_S of the loop; an
# operation is scaled by the mean of the tasks within REF_WINDOW_S / 2 of
# its start.  REF_NOMINAL_S is a constant near the task's mean time on a
# 2-vCPU VM; it sets the units only.
REF_PERIOD_S = 0.05
REF_WINDOW_S = 2.0
REF_NOMINAL_S = 0.0015
# rounds in the fixed prefix of a traced run: 5-15 s a pass on a 2-vCPU VM
TRACE_ROUNDS = {"invariants": 10, "polyhedra": 12, "long_inputs": 4}


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def import_afflat():
    if not os.path.isfile(os.path.join(SRC, "afflat", "__init__.py")):
        die("no afflat sources under %s; run from a source checkout" % SRC)
    sys.path.insert(0, SRC)
    import afflat
    import afflat.cli
    if not os.path.abspath(afflat.__file__).startswith(SRC + os.sep):
        die("imported afflat from %s, not from %s" % (afflat.__file__, SRC))
    return afflat


class Batch:
    """Rounds of operations, generated on demand (outside the timed region)
    so that a run never repeats an input."""

    def __init__(self, workload, seed, afflat, workdir):
        import workloads as W
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.rounds = 0
        self.ops = []
        self.round_of = []
        self.memo = {}
        if workload == "invariants":
            run = W.CliRunner(afflat.cli, workdir)
            self._make = lambda r: W.invariants_round(run, self.rng, self.memo, r)
        elif workload == "polyhedra":
            self._make = lambda r: W.polyhedra_round(afflat, self.rng, r)
        else:
            self._make = lambda r: W.long_round(afflat, self.rng, r)

    def add_round(self):
        ops = self._make(self.rounds)
        self.ops.extend(ops)
        self.round_of.extend([self.rounds] * len(ops))
        self.rounds += 1

    def __getitem__(self, i):
        while i >= len(self.ops):
            self.add_round()
        return self.ops[i]


def reference_task():
    """Fixed pure-Python work of the kind afflat does (fractions, gcds,
    tuples, dicts); its time tracks the speed the host gives this process."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 7)
        t = tuple(math.gcd(i * j + 1, 720720) for j in range(6))
        seen[t] = seen.get(t, 0) + 1
    return acc, sorted(seen.items())


class SpeedReference:
    """Times of reference_task taken along a run, and the scale factor they
    give each moment of it."""

    def __init__(self):
        self.starts = []
        self.times = []
        self.last = -math.inf

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()  # a collection of afflat's garbage is not machine speed
        try:
            t0 = time.perf_counter()
            reference_task()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.last = t1

    def tick(self):
        if time.perf_counter() - self.last >= REF_PERIOD_S:
            self.sample()

    def scale(self, t):
        """REF_NOMINAL_S / the mean reference time near moment t."""
        lo = bisect.bisect_left(self.starts, t - REF_WINDOW_S / 2)
        hi = bisect.bisect_right(self.starts, t + REF_WINDOW_S / 2)
        near = self.times[lo:hi] or self.times
        return REF_NOMINAL_S / statistics.fmean(near)

    def warm(self, n=20):
        for _ in range(n):
            reference_task()


def execute(op):
    """(ok, seconds, result): one timed call, checked outside the timing."""
    t0 = time.perf_counter()
    try:
        res = op.call()
        raised = None
    except Exception as exc:  # any escape from afflat is a failed operation
        res, raised = None, exc
    dt = time.perf_counter() - t0
    if raised is not None:
        return False, dt, raised
    try:
        ok = bool(op.check(res))
    except Exception as exc:  # a malformed result fails its check
        ok, res = False, exc
    return ok, dt, res


def warm_up(workload, afflat, workdir):
    batch = Batch(workload, WARMUP_SEED, afflat, workdir)
    for i in range(WARMUP_OPS):
        ok, _, res = execute(batch[i])
        if not ok:
            die("warm-up operation %s failed: %r" % (batch[i].kind, res))


def probe_setup(workload):
    """Child side of the set-up measurement: import, warm up, report."""
    afflat = import_afflat()
    workdir = make_workdir(workload, "probe")
    try:
        warm_up(workload, afflat, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(workload):
    """Median wall time from spawning a fresh interpreter to the point where
    it would start timing (afflat imported, warm-up done), each probe scaled
    by reference tasks run just before and after it."""
    speed = SpeedReference()
    speed.warm()
    starts, walls = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_REF_TASKS):
            speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload], cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            die("set-up probe failed")
        starts.append(t0)
        walls.append(t1 - t0)
    for _ in range(SETUP_REF_TASKS):
        speed.sample()
    scaled = [w * speed.scale(t) for t, w in zip(starts, walls)]
    return statistics.median(scaled), {"wall_s": walls, "scaled_s": scaled}


def make_workdir(workload, tag):
    path = os.path.join(OUT, "work-%s-%s-%d" % (workload, tag, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def percentile(sorted_xs, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_xs) - 1, math.ceil(q * len(sorted_xs)) - 1))
    return sorted_xs[k]


def input_properties(workload, kinds, sizes):
    mix = Counter(kinds)
    total = sum(mix.values())
    props = {"op_kind_mix": {k: round(v / total, 4) for k, v in sorted(mix.items())}}
    if workload == "polyhedra":
        props["n3_share"] = round(sum(v for k, v in mix.items()
                                      if k.startswith("poly_n3")) / total, 4)
        props["negative_share"] = round(sum(v for k, v in mix.items()
                                            if k.endswith("_neg")) / total, 4)
    if workload == "long_inputs":
        hist = Counter()
        for kind, size in zip(kinds, sizes):
            if size is not None and (kind.startswith(("hj_chain", "lambda1",
                                                      "side_invariant",
                                                      "segment_equivalence"))):
                lo = 1 << (size.bit_length() - 1)
                hist[lo] += 1
        props["chain_length_hist"] = {"%d-%d" % (lo, 2 * lo - 1): k
                                      for lo, k in sorted(hist.items())}
    return props


def run_loop(batch, speed, count=None, seconds=None, tracer=None):
    """Closed loop from the start of the batch: either `count` ops or until
    `seconds` of wall time have passed.  Returns per-op records whose
    seconds are scaled by `speed` (the wall-clock seconds are kept last)."""
    recs = []
    starts = []
    speed.sample()
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while True:
        op = batch[i]
        if tracer is not None:
            tracer.op = i
        starts.append(time.perf_counter())
        ok, dt, res = execute(op)
        code = res[0] if isinstance(res, tuple) and len(res) == 2 and \
            isinstance(res[0], int) else None
        # keep a result only for the failure report: holding every chain
        # would make peak RSS grow with the number of operations run
        recs.append((op.kind, dt, ok, code, op.size, None if ok else res))
        speed.tick()
        i += 1
        if count is not None and i >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    speed.sample()
    return [(k, dt * speed.scale(t), ok, code, size, res, dt)
            for (k, dt, ok, code, size, res), t in zip(recs, starts)]


def summarize(recs):
    lats = sorted(r[1] for r in recs)
    return {"ops_per_s": len(recs) / sum(lats), "lat": lats}


def interquartile_mean(xs):
    xs = sorted(xs)
    k = len(xs) // 4
    mid = xs[k:len(xs) - k]
    return sum(mid) / len(mid)


def round_throughputs(recs, round_of):
    """Operations per busy second of each round the run completed.  Every
    round holds one operation of each stratum, so a trimmed mean over rounds
    is the batch's throughput with one heavy-tailed case moving one round."""
    ops, busy = Counter(), Counter()
    for i, r in enumerate(recs):
        ops[round_of[i]] += 1
        busy[round_of[i]] += r[1]
    size = Counter(round_of)
    return [ops[k] / busy[k] for k in sorted(ops) if ops[k] == size[k]]


def describe_failures(recs):
    return [{"op": r[0], "result": repr(r[5])[:300]} for r in recs if not r[2]][:20]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="'all' runs each workload in its own process and "
                         "prints every metric of each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        probe_setup(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    afflat = import_afflat()
    workdir = make_workdir(args.workload, "seed%d" % args.seed)
    try:
        if args.trace:
            warm_up(args.workload, afflat, workdir)
            batch = Batch(args.workload, args.seed, afflat, workdir)
            result, details = traced_run(args, batch)
        else:
            setup = measure_setup(args.workload)
            warm_up(args.workload, afflat, workdir)
            batch = Batch(args.workload, args.seed, afflat, workdir)
            result, details = timed_run(args, batch, *setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "afflat_max_den": os.environ.get("AFFLAT_MAX_DEN", "64 (CLI default)")
        if args.workload == "invariants" else "uncapped (direct API calls)",
        "client": "closed loop, one client, no threads",
        "waiting": "not applicable: no queues or worker threads",
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
    })
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    for name, m in result["metrics"].items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g %s" % ("error_rate", details["error_rate"],
                               "failed/attempted (%d/%d)" % (
                                   result["failed"], result["attempted"])))
    print(json.dumps(result))
    return 0


def run_all(args):
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("%-12s %s" % (w, line))
        if proc.returncode != 0 or not lines or \
                not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def result_record(recs, metrics):
    failed = sum(1 for r in recs if not r[2])
    return {"correct": failed == 0, "attempted": len(recs), "failed": failed,
            "metrics": metrics}


def complete_rounds(recs, round_of):
    """The records of the rounds the run finished, so that latency
    quantiles see every stratum equally often."""
    size = Counter(round_of)
    seen = Counter(round_of[:len(recs)])
    return [r for r, k in zip(recs, round_of) if seen[k] == size[k]] or recs


def timed_run(args, batch, setup_s, setup_samples):
    speed = SpeedReference()
    speed.warm()
    recs = run_loop(batch, speed, seconds=args.seconds)
    s = summarize(complete_rounds(recs, batch.round_of))
    lat = s["lat"]
    wall = sorted(r[6] for r in recs)
    per_round = round_throughputs(recs, batch.round_of) or [s["ops_per_s"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": interquartile_mean(per_round), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * percentile(lat, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * percentile(lat, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    kinds = [r[0] for r in recs]
    details = {
        "metrics": metrics,
        "samples": {"ops": len(recs), "ops_in_quantiles": len(lat),
                    "above_p90": sum(
            1 for x in lat if x > percentile(lat, 0.9)),
            "rounds_completed": len(per_round),
            "setup_probes": setup_samples},
        "ops_per_busy_s_overall": s["ops_per_s"],
        "ops_per_s_by_round": per_round,
        "unscaled_wall_clock": {
            "ops_per_busy_s": len(wall) / sum(wall),
            "latency_p50_ms": 1000 * percentile(wall, 0.5),
            "latency_p90_ms": 1000 * percentile(wall, 0.9),
            "setup_s": statistics.median(setup_samples["wall_s"])},
        "speed_reference": {
            "nominal_ms": 1000 * REF_NOMINAL_S, "tasks": len(speed.times),
            "mean_ms": 1000 * statistics.fmean(speed.times),
            "quartiles_ms": [1000 * q for q in
                             statistics.quantiles(speed.times, n=4)]},
        "rounds_generated": batch.rounds,
        "input_properties": input_properties(args.workload, kinds,
                                             [r[4] for r in recs]),
        "exit_codes": dict(Counter(str(r[3]) for r in recs if r[3] is not None)),
        "per_kind_ms": per_kind(recs),
        "failures": describe_failures(recs),
    }
    return result_record(recs, metrics), details


def per_kind(recs):
    by = {}
    for r in recs:
        by.setdefault(r[0], []).append(r[1])
    return {k: {"n": len(v), "median_ms": 1000 * statistics.median(v),
                "max_ms": 1000 * max(v)} for k, v in sorted(by.items())}


# Per-layer metrics of a traced run.  Self times are reported only for the
# layers and functions every workload enters, so none reads a constant zero;
# the full split of every layer is in the detailed record.
LAYER_SELF_S = ("convexity", "polyhedra", "core", "intlinalg", "affine",
                "segments")
FUNCTION_SELF_S = ("convexity.clip_simplex", "polyhedra.poly_set_equal",
                   "core.lattice_points_in", "segments.hj_chain")
FUNCTION_CALLS = (
    "convexity.clip_simplex", "convexity.placing_triangulation",
    "polyhedra.polyhedron_equivalence", "polyhedra.poly_set_equal",
    "core.lattice_points_in", "intlinalg.minor_gcd", "segments.hj_chain",
    "cones.desingularize", "cones.stellar_subdivide", "conics.legendre_solve",
    "conics.rational_points", "conics.min_index_pairs",
    "angles.max_regular_point", "angles.min_den_completion",
    "affine.extend_frame", "affine.min_den_point", "intlinalg.rational_solve",
    "intlinalg.rational_rank", "intlinalg.rational_nullspace",
    "intlinalg.column_echelon", "intlinalg.invert_unimodular", "cli.run")
TRACER_COUNTS = ("convexity.simplex_tester.tests", "core.lattice_points_in.points",
                 "segments.hj_chain.vertices", "cones.desingularize.cones",
                 "conics.rational_points.points")
BUDGET_SEARCHES = ("regular_frame_search", "minimal_denominator_search",
                   "expanding_cube_search", "semi-diameter_index_search")


def traced_run(args, batch):
    from tracer import Tracer
    for _ in range(TRACE_ROUNDS[args.workload]):
        batch.add_round()
    n_ops = len(batch.ops)
    speed = SpeedReference()
    speed.warm()
    plain = run_loop(batch, speed, count=n_ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(batch, speed, count=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    fast, slow = summarize(plain), summarize(traced)
    by = tracer.by_name()
    layers = tracer.layer_self_s()
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYER_SELF_S:
        put(layer + ".self_s", layers.get(layer, 0.0), "s")
    for name in FUNCTION_SELF_S:
        put(name + ".self_s", by.get(name, (0, 0.0))[1], "s")
    for name in FUNCTION_CALLS:
        put(name + ".calls", by.get(name, (0, 0.0))[0], "count")
    for name in TRACER_COUNTS:
        put(name, counts.get(name, 0), "count")
    psq = by.get("polyhedra.poly_set_equal", (0, 0.0))[0]
    put("polyhedra.poly_set_equal.true_ratio",
        counts.get("polyhedra.poly_set_equal.true", 0) / psq if psq else 0.0,
        "ratio")
    for search in BUDGET_SEARCHES:
        put("budget.high_water." + search, tracer.high_water.get(search, 0),
            "count")
    put("trace.ops_per_s_untraced", fast["ops_per_s"], "1/s")
    put("trace.ops_per_s_traced", slow["ops_per_s"], "1/s")
    put("trace.overhead_ops_per_s", fast["ops_per_s"] - slow["ops_per_s"], "1/s")
    total_self = sum(tracer.self_s) or 1.0
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "spans-%s-seed%d" % (args.workload, args.seed))
    tracer.write_spans(stem)
    details = {
        "metrics": metrics,
        "layer_self_s": layers,
        "layer_self_share": {k: v / total_self for k, v in layers.items()},
        "functions": {n: {"calls": k, "self_s": s} for n, (k, s) in by.items() if k},
        "counts": dict(counts),
        "trace_ops": n_ops,
        "budget_high_water": dict(tracer.high_water),
        "spans": {"count": tracer.span_count, "file": stem + ".bin"},
        "input_properties": input_properties(args.workload,
                                             [r[0] for r in traced],
                                             [r[4] for r in traced]),
        "failures": describe_failures(plain + traced),
        "untraced_ops_per_s": fast["ops_per_s"],
        "traced_ops_per_s": slow["ops_per_s"],
    }
    rec = result_record(plain + traced, metrics)
    return rec, details


if __name__ == "__main__":
    sys.exit(main())
