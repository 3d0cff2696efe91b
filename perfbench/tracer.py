"""Tracing from outside the program: wrappers, spans, self time, counters.

The tracer wraps every public function of each ordermetric module, the
public methods of the classes those modules define, and three private
primitives that carry a counter (the two order comparisons and the
contraction pair stream). Each wrapper is installed in every namespace that
bound the original object, because several modules import by name and a
patch of the defining module alone would miss their calls.

A call pushes a frame; on return the frame's duration minus the time of
its wrapped children is its self time, charged to the frame's layer (the
module that defines the function). Callables that are not wrapped, such as
the lambdas a group or metric is built from, count toward their caller. The benchmark opens one root span per
op with layer ``bench``, so the self times of all layers, ``bench``
included, add up to the traced op time. Spans are aggregated in memory by
(caller, callee) edge, with one individual span per op, and written out as
one JSON file when the run ends.

``Fraction.__new__`` is wrapped only while tracing, and each construction
is charged to the layer on top of the stack.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("order_core", "topo", "cone_metric", "contraction", "solver",
          "corpus", "harness", "instance_files", "cli")

# private names that carry a named counter
_PRIVATE = {
    "order_core": ("_scalar_cmp", "_cone_cmp"),
    "contraction": ("_distinct_pairs",),
}

# groups whose outermost-call inclusive time is reported
_GROUPS = {
    "topo.verify_convergence": "convergence",
    "topo.verify_convergence_twosided": "convergence",
    "topo.check_topo_laws": "topo_law",
    "order_core.check_group_laws": "order_law",
    "order_core.check_module_laws": "order_law",
    "cone_metric.check_metric_laws": "metric_law",
    "solver.iterate_endpoint": "walk",
    "contraction.is_weak_contraction": "hypothesis",
    "contraction.is_global_weak_contraction": "hypothesis",
    "contraction.validate_witness": "hypothesis",
    "contraction.c_condition_status": "hypothesis",
}

HARNESS_PREFIXES = ("group", "module", "topo", "metric", "seq", "hausdorff", "map",
                    "endpoint", "solver")

_HYPOTHESIS_CHECKS = ("contraction.is_weak_contraction",
                      "contraction.is_global_weak_contraction",
                      "contraction.validate_witness")


class Tracer:
    """Span stack, per-layer self time and counters of one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # [qualname, layer, child_time, groups]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: dict[tuple, list] = {}
        self.group_depth: Counter = Counter()
        self.group_s: dict[str, float] = defaultdict(float)
        self.hypothesis_in_walk_s = 0.0
        self.fraction_new: Counter = Counter()
        self.pair_checks = 0
        self.walk_steps = 0
        self.corpus_kept = 0
        self.hypothesis_keys: set = set()
        self.row_runtime_s: dict[str, float] = defaultdict(float)
        self.ops: list[tuple] = []
        self._undo: list = []
        self._t0 = time.perf_counter()

    # -- spans -----------------------------------------------------------
    def _enter(self, qual, layer, groups):
        frame = [qual, layer, 0.0, groups]
        self.stack.append(frame)
        for g in groups:
            self.group_depth[g] += 1
        return frame

    def _exit(self, frame, dt):
        stack = self.stack
        stack.pop()
        qual, layer, child, groups = frame
        own = dt - child
        self.self_s[layer] += own
        parent = stack[-1][0] if stack else None
        edge = self.edges.get((parent, qual))
        if edge is None:
            self.edges[(parent, qual)] = [1, dt, own]
        else:
            edge[0] += 1
            edge[1] += dt
            edge[2] += own
        if stack:
            stack[-1][2] += dt
        for g in groups:
            self.group_depth[g] -= 1
            if not self.group_depth[g]:
                self.group_s[g] += dt
                if g == "hypothesis" and self.group_depth["walk"]:
                    self.hypothesis_in_walk_s += dt

    @contextlib.contextmanager
    def op(self, kind: str, label: str = ""):
        """Root span around one benchmark op; the op's self time per layer is
        kept with the span."""
        before = dict(self.self_s)
        frame = self._enter(f"op:{kind}", "bench", ())
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._exit(frame, dt)
            layers = {k: v - before.get(k, 0.0) for k, v in self.self_s.items()
                      if v != before.get(k, 0.0)}
            self.ops.append((label or kind, t0 - self._t0, dt, layers))

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, layer, qual):
        tracer = self
        groups = (_GROUPS[qual],) if qual in _GROUPS else ()
        post = _POST.get(qual)
        calls = self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            frame = tracer._enter(qual, layer, groups)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, perf() - t0)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper

    def install(self, package) -> None:
        """Wrap the package's layers; ``uninstall`` restores every binding."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not name.startswith("_") or name in _PRIVATE.get(layer, ())):
                    replacements[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        original_new = Fraction.__dict__["__new__"]
        raw_new = original_new.__func__
        stack, counts = self.stack, self.fraction_new

        def counting_new(cls, *args, **kwargs):
            counts[stack[-1][1] if stack else "outside"] += 1
            return raw_new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(counting_new))

    def _wrap_methods(self, cls, layer):
        fields = {f.name for f in dataclasses.fields(cls)} \
            if dataclasses.is_dataclass(cls) else set()
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or name in fields:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, qual))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(attr.__func__, layer, qual)))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        c = self.calls
        hyp_calls = sum(c[q] for q in _HYPOTHESIS_CHECKS)
        built = c["corpus.build_instance"]
        walk_s = self.group_s["walk"]
        out = {
            "topo.term_calls": c["topo.PositiveSequence.term"],
            "topo.convergence_calls": c["topo.verify_convergence"]
            + c["topo.verify_convergence_twosided"],
            "topo.convergence_s": self.group_s["convergence"],
            "topo.law_s": self.group_s["topo_law"],
            "topo.fraction_new": self.fraction_new["topo"],
            "order_core.cmp_calls": c["order_core._scalar_cmp"] + c["order_core._cone_cmp"],
            "order_core.extreme_calls": c["order_core.order_min"] + c["order_core.order_max"],
            "order_core.law_s": self.group_s["order_law"],
            "order_core.fraction_new": self.fraction_new["order_core"],
            "cone_metric.distance_calls": c["cone_metric.ConeMetricSpace.distance"],
            "cone_metric.law_s": self.group_s["metric_law"],
            "cone_metric.hausdorff_calls": c["cone_metric.hausdorff"],
            "contraction.pair_checks": self.pair_checks,
            "contraction.hypothesis_calls": hyp_calls,
            "contraction.hypothesis_reuse_ratio":
                len(self.hypothesis_keys) / hyp_calls if hyp_calls else 0.0,
            "contraction.images_calls": c["contraction.SetValuedMap.images"],
            "solver.walk_calls": c["solver.iterate_endpoint"],
            "solver.walk_steps": self.walk_steps,
            "solver.hypothesis_share": self.hypothesis_in_walk_s / walk_s if walk_s else 0.0,
            "corpus.build_calls": built,
            "corpus.kept_ratio": self.corpus_kept / built if built else 0.0,
            "instance_files.build_calls": c["instance_files.build_bundle"],
            "fraction_new": sum(self.fraction_new.values()),
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self.self_s[layer]
        for prefix in HARNESS_PREFIXES:
            out[f"harness.{prefix}_s"] = self.row_runtime_s[prefix]
        return out

    def dump(self, path, extra: dict) -> None:
        edges = [{"caller": p, "callee": q, "calls": n, "total_s": tot, "self_s": own}
                 for (p, q), (n, tot, own) in sorted(self.edges.items(),
                                                     key=lambda kv: (str(kv[0][0]), kv[0][1]))]
        ops = [{"op": name, "start_s": start, "dur_s": dur, "self_s": layers}
               for name, start, dur, layers in self.ops]
        doc = {"metrics": self.metrics(), "calls": dict(sorted(self.calls.items())),
               "fraction_new": dict(sorted(self.fraction_new.items())),
               "edges": edges, "ops": ops, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=str)


def _post_pairs(tr, args, kwargs, result):
    tr.pair_checks += len(result)


def _post_walk(tr, args, kwargs, result):
    tr.walk_steps += len(result.trace)


def _post_build(tr, args, kwargs, result):
    tr.corpus_kept += result is not None


def _post_report(tr, args, kwargs, result):
    for row in result.rows:
        tr.row_runtime_s[row.check.split("/", 1)[0]] += row.runtime


def _post_hypothesis(name):
    def post(tr, args, kwargs, result):
        bound = dict(zip(("T", "w"), args), **kwargs)
        tr.hypothesis_keys.add((name, bound["T"], bound["w"]))
    return post


_POST = {
    "contraction._distinct_pairs": _post_pairs,
    "solver.iterate_endpoint": _post_walk,
    "corpus.build_instance": _post_build,
    "harness.run_suite": _post_report,
    **{q: _post_hypothesis(q) for q in _HYPOTHESIS_CHECKS},
}
