"""Outside-in tracing of afflat's layers.

Every public function of the traced modules is replaced, in every afflat
module namespace that holds it, by a wrapper that records a span (id, name,
start, end, parent id, op id).  Spans stay in memory as flat arrays and are
written out once, at the end.  Self time is a span's duration minus the time
covered by its child spans.  The source tree is not edited; uninstall()
restores the original bindings.
"""

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("intlinalg", "core", "convexity", "affine", "segments",
                  "angles", "conics", "cones", "complexes", "polyhedra",
                  "cli", "jsonio")

# Leaf helpers called per point or per coordinate: a span each would cost
# more than the work it measures, so their time stays with the caller.
UNTRACED = {"core.den", "core.lift", "core.unlift", "intlinalg.xgcd",
            "intlinalg.mat_vec", "intlinalg.mat_mul", "intlinalg.det_int",
            "jsonio.frac_str", "jsonio.parse_frac", "jsonio.point_json",
            "jsonio.parse_point"}


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.counts = {}
        self.high_water = {}
        self.op = -1
        self._next_id = 0
        self._stack = []
        self._ints = array("q")     # id, name, parent, op per span
        self._times = array("d")    # start, end per span
        self._saved = []

    def _name(self, qual):
        self.names.append(qual)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, qual, f, post=None):
        idx = self._name(qual)
        stack = self._stack
        ints, times = self._ints, self._times
        calls, self_s = self.calls, self.self_s

        @functools.wraps(f)
        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            frame = [0.0]
            parent = stack[-1][1] if stack else 0
            stack.append((frame, sid))
            t0 = perf_counter()
            try:
                res = f(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                if stack:
                    stack[-1][0][0] += dur
                ints.extend((sid, idx, parent, self.op))
                times.extend((t0, t1))
            return post(res) if post is not None else res

        return traced

    def _posts(self):
        count = self.count

        def tester(fn):
            @functools.wraps(fn)
            def counted(x):
                count("convexity.simplex_tester.tests")
                return fn(x)
            return counted

        def verdict(res):
            count("polyhedra.poly_set_equal.true", bool(res))
            return res

        def sized(key):
            def post(res):
                count(key, len(res))
                return res
            return post

        return {
            "convexity.simplex_tester": tester,
            "polyhedra.poly_set_equal": verdict,
            "core.lattice_points_in": sized("core.lattice_points_in.points"),
            "segments.hj_chain": sized("segments.hj_chain.vertices"),
            "cones.desingularize": sized("cones.desingularize.cones"),
            "conics.rational_points": sized("conics.rational_points.points"),
        }

    def install(self):
        """Rebind every traced function in every loaded afflat module."""
        posts = self._posts()
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules["afflat." + short]
            for name, obj in list(vars(mod).items()):
                qual = "%s.%s" % (short, name)
                if name.startswith("_") or qual in UNTRACED or \
                        not inspect.isfunction(obj) or \
                        obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self.wrap(qual, obj, posts.get(qual)))
        budget = sys.modules["afflat.budget"]
        check = budget.check
        high = self.high_water

        @functools.wraps(check)
        def watched(value, what="denominator search"):
            key = what.replace(" ", "_")
            if value > high.get(key, 0):
                high[key] = value
            return check(value, what)

        originals[id(check)] = (check, watched)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "afflat" or mname.startswith("afflat.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved = []

    def by_name(self):
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def layer_self_s(self):
        out = {}
        for n, s in zip(self.names, self.self_s):
            layer = n.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out

    @property
    def span_count(self):
        return len(self._times) // 2

    def write_spans(self, stem):
        """<stem>.bin holds int64 (id, name, parent, op) then float64 (start,
        end) per span, as two consecutive arrays; <stem>.json names them."""
        with open(stem + ".bin", "wb") as fh:
            self._ints.tofile(fh)
            self._times.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"spans": self.span_count, "names": self.names,
                       "layout": ["int64[spans][id, name, parent, op]",
                                  "float64[spans][start_s, end_s]"],
                       "parent_root": 0}, fh)
