"""Layer tracing from outside the program.

A traced run wraps detline's public functions at every name their callers
use: the module attribute, each module that imported the function by name,
or the class attribute of a method.  Each wrapper records a span (name,
start, end, parent) when the call enters its layer from another layer;
calls inside the same layer are counted in that span, so recursion and
intra-layer helpers do not split it.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from functools import partial

import numpy as np

# (module, owner attribute path, span name); an owner "Class.method" patches
# the class, a plain name patches the function wherever it is bound.
SPANS = [
    ("cocycle3", "cocycle_c", "cocycle3.cocycle_c"),
    ("coproduct", "compose", "coproduct.compose"),
    ("coproduct", "change_base", "coproduct.change_base"),
    ("coproduct", "ternary_compose", "coproduct.ternary_compose"),
    ("torus", "F_op", "torus.build"),
    ("torus", "big_F", "torus.build"),
    ("torus", "big_Omega", "torus.build"),
    ("torus", "Omega_op", "torus.build"),
    ("torus", "projection_P", "torus.build"),
    ("torus", "projection_Q", "torus.build"),
    ("torus", "sigma_apply", "torus.build"),
    ("torus", "sigma_apply_region_op", "torus.build"),
    ("torus", "gamma_projection", "torus.build"),
    ("torus", "diagonal_difference_P", "torus.build"),
    ("torus", "diagonal_difference_Q", "torus.build"),
    ("lattice", "FiberedLatticeOp.__init__", "lattice.construct"),
    ("lattice", "FiberedLatticeOp.compose", "lattice.compose"),
    ("lattice", "FiberedLatticeOp.presentation", "lattice.presentation"),
    ("_intervals", "_cells", "intervals"),
    ("_intervals", "_cell_rep", "intervals"),
    ("_intervals", "full_box", "intervals"),
    ("_intervals", "point_box", "intervals"),
    *(
        ("_intervals", f"Box.{m}", "intervals")
        for m in ("contains", "intersect", "is_finite", "is_empty")
    ),
    *(
        ("_intervals", f"BoxUnion.{m}", "intervals")
        for m in (
            "__init__", "contains", "is_empty", "union", "intersect", "subtract",
            "complement", "breakpoints", "canonical", "canonical_boxes", "is_finite",
            "points", "size", "__eq__", "__hash__",
        )
    ),
    *(
        ("_linalg", m, "linalg.elim")
        for m in ("rref", "nullspace", "image_pivot_rows", "coker_free_rows", "solve_exact", "det")
    ),
    ("graded", "torsion_of_triangle", "graded.torsion"),
    ("fredlines", "torsion", "fredlines.torsion"),
    ("fredlines", "torsion_chain", "fredlines.torsion"),
    ("fredlines", "perturbation", "fredlines.perturbation"),
    ("fredlines", "stabilization", "fredlines.stabilization"),
    ("windows", "DenseOp.presentation", "windows.presentation"),
    ("circle", "WindowContext.toeplitz", "circle.toeplitz"),
    ("circle", "_cres_window", "circle.cres_window"),
]

# Per-layer metrics: (name, unit, better).  Counts come from the traced
# round only; `setup.*` and `trace.overhead_s` are filled in by run.py.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("cocycle3.cocycle_c.calls", "count", "lower"),
    ("cocycle3.cocycle_c.self_s", "s", "lower"),
    ("coproduct.cache.hits", "count", "higher"),
    ("coproduct.cache.misses", "count", "lower"),
    ("coproduct.cache.entries", "count", "lower"),
    ("coproduct.compose.calls", "count", "lower"),
    ("coproduct.compose.self_s", "s", "lower"),
    ("coproduct.change_base.self_s", "s", "lower"),
    ("coproduct.ternary_compose.self_s", "s", "lower"),
    ("torus.build.calls", "count", "lower"),
    ("torus.build.self_s", "s", "lower"),
    ("lattice.construct.calls", "count", "lower"),
    ("lattice.construct.self_s", "s", "lower"),
    ("lattice.compose.self_s", "s", "lower"),
    ("lattice.presentation.calls", "count", "lower"),
    ("lattice.presentation.self_s", "s", "lower"),
    ("lattice.probe_points.count", "count", "lower"),
    ("intervals.calls", "count", "lower"),
    ("intervals.self_s", "s", "lower"),
    ("linalg.elim.calls", "count", "lower"),
    ("linalg.elim.distinct", "count", "lower"),
    ("linalg.elim.self_s", "s", "lower"),
    ("graded.torsion.calls", "count", "lower"),
    ("graded.torsion.self_s", "s", "lower"),
    ("fredlines.torsion.self_s", "s", "lower"),
    ("fredlines.perturbation.calls", "count", "lower"),
    ("fredlines.perturbation.self_s", "s", "lower"),
    ("fredlines.stabilization.calls", "count", "lower"),
    ("fredlines.stabilization.self_s", "s", "lower"),
    ("windows.svd.calls", "count", "lower"),
    ("windows.presentation.self_s", "s", "lower"),
    ("circle.toeplitz.builds", "count", "lower"),
    ("circle.toeplitz.self_s", "s", "lower"),
    ("circle.cres_window.calls", "count", "lower"),
    ("circle.cres_window.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _array_key(x):
    a = np.asarray(x)
    return (a.shape, a.dtype.str, a.tobytes())


class Tracer:
    """Installs the wrappers, keeps spans in memory and sums self times."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts = Counter()  # calls per span and the count-only hooks
        self.self_s = defaultdict(float)
        self._stack = []  # open spans: [name id, child seconds, span index]
        self._restore = []
        self._elim_keys = set()
        self._caches = {}

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, name, pre=None, post=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, counts, self_s = self._stack, self.counts, self.self_s
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        clock = time.perf_counter

        calls_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            token = pre(args) if pre else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][2] if stack else -1)
            ends.append(0.0)
            frame = [nid, 0.0, idx]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                dur = end - start
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post:
                post(token, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install(self, mod_name, path, make):
        """Replace the function at `path` in every detline module binding it."""
        mod = sys.modules[f"detline.{mod_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or attr not in cls.__dict__:
                return
            self._patch(cls, attr, make(cls.__dict__[attr]))
            return
        fn = getattr(mod, path, None)
        if fn is None:
            return
        new = make(fn)
        for name, m in list(sys.modules.items()):
            if name == "detline" or name.startswith("detline."):
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, new)

    def install(self):
        for mod_name, path, name in SPANS:
            pre = post = None
            if name == "linalg.elim":
                pre = partial(self._elim_pre, path)
            elif name == "circle.toeplitz":
                pre, post = self._ops_size, self._toeplitz_post
            self._install(mod_name, path, lambda fn, n=name, a=pre, b=post: self._span(fn, n, a, b))
        self._install("coproduct", "Context._get", self._cache_counter)
        self._install("lattice", "FiberedLatticeOp.probe_points", self._probe_counter)
        self._install("windows", "DenseOp._decompose", self._svd_counter)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- count-only hooks ------------------------------------------------------

    def _elim_pre(self, fn_name, args):
        self._elim_keys.add(hash((fn_name,) + tuple(_array_key(a) for a in args)))

    def _ops_size(self, args):
        return len(getattr(args[0], "_ops", ()))

    def _toeplitz_post(self, before, args, _result):
        if len(getattr(args[0], "_ops", ())) > before:
            self.counts["circle.toeplitz.builds"] += 1

    def _cache_counter(self, fn):
        counts, caches = self.counts, self._caches

        def get(ctx, key, builder):
            cache = ctx._cache
            caches[id(cache)] = cache
            counts["coproduct.cache.hits" if key in cache else "coproduct.cache.misses"] += 1
            return fn(ctx, key, builder)

        return get

    def _probe_counter(self, fn):
        counts = self.counts

        def probe_points(op):
            pts = fn(op)
            counts["lattice.probe_points.count"] += len(pts)
            return pts

        return probe_points

    def _svd_counter(self, fn):
        counts = self.counts

        def decompose(op):
            if getattr(op, "_svd", None) is None:
                counts["windows.svd.calls"] += 1
            return fn(op)

        return decompose

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Counts and self times of everything traced so far, by metric name."""
        out = dict(self.counts)
        out["coproduct.cache.entries"] = sum(len(c) for c in self._caches.values())
        out["linalg.elim.distinct"] = len(self._elim_keys)
        for _, _, span in SPANS:
            out[f"{span}.self_s"] = self.self_s[span]
        return out

    def write_spans(self, path, origin: float):
        """Spans as columns; times in nanoseconds from `origin`."""
        ns = lambda t: int(round((t - origin) * 1e9))  # noqa: E731
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_ns": [ns(t) for t in self.span_start],
            "end_ns": [ns(t) for t in self.span_end],
            "parent": self.span_parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
