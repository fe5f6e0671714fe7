"""Layer trace taken from outside the package.

``Tracer.install`` wraps each layer's public functions, and the listed
methods on their classes, with span recorders; every module binding of a
wrapped function is replaced, so calls through ``from .order import
validate_poset`` in other modules are seen too.  Hot methods are counted,
not spanned.  Spans (name, start, end, parent, job) stay in memory and are
written out once, when the round ends.

A layer's self time is the time of its spans minus the time of the spans
nested directly inside them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("order", "partitions", "staralg", "ortho", "cantor", "scatter", "cli", "acceptance")

#: cheap helpers called in inner loops: a span around them would only
#: measure the tracer
NOT_SPANNED = {
    "order": {"popcount", "lub", "glb"},
    "partitions": {"label_of"},
    "staralg": {"gr"},
    "cantor": {"stage_intervals", "is_full", "max_offdiag_width"},
}

#: methods spanned on their class
SPANNED_METHODS = {
    "order": ("FinPoset.directed_masks", "FinPoset.covers"),
    "partitions": ("EqRel.from_pairs",),
    "scatter": ("FinTop.__init__", "FinTop.subspace", "FinTop.closure"),
}

#: hot calls: counted under a metric name, not spanned
COUNTED = {
    "order.FinPoset.lub_mask": "order.bound_calls",
    "order.FinPoset.glb_mask": "order.bound_calls",
    "partitions.EqRel.refines": "partitions.refines_calls",
    "staralg.rref": "staralg.rref_calls",
    "staralg.StarAlgebra.contains_algebra": "staralg.containment_tests",
    "cantor.tri_join": "cantor.tri_join_calls",
    "cantor.relation_S": "cantor.relation_S_calls",
}

#: inclusive span times reported by name (outermost spans only)
INCLUSIVE = {
    "order.domain_report_s": "order.domain_report",
    "order.validate_poset_s": "order.validate_poset",
    "partitions.all_partitions_s": "partitions.all_partitions",
    "staralg.c_lattice_s": "staralg.c_lattice",
    "staralg.generated_algebra_s": "staralg.generated_algebra",
    "ortho.boolean_subalgebras_s": "ortho.boolean_subalgebras",
    "ortho.validate_omp_s": "ortho.validate_omp",
    "cantor.verify_counterexample_s": "cantor.verify_counterexample",
    "cantor.sample_to_grid_s": "cantor.sample_to_grid",
    "scatter.fintop_s": "scatter.FinTop.__init__",
    "scatter.cb_rank_fin_s": "scatter.cb_rank_fin",
}

CRITERIA = range(1, 12)
#: spans named after an argument: one per acceptance criterion
SPAN_LABELS = {"acceptance.run_criterion": lambda args: f"acceptance.c{args[0]}"}

#: every per-layer metric, in report order, with its unit
METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "acceptance"]
    + [(name, "s") for name in INCLUSIVE]
    + [(name, "count") for name in sorted(set(COUNTED.values()))]
    + [("order.directed_subsets", "count"), ("ortho.boolean_found", "count"),
       ("cli.requests", "count"), ("cli.report_bytes", "bytes")]
    + [(f"acceptance.c{n}_s", "s") for n in CRITERIA]
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, outermost]
        self.counts = {name: 0 for name, unit in METRICS if unit != "s"}
        self.job = None
        self._stack = []
        self._active = {}

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, func, label=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = label(args) if label else name
            sid = len(spans)
            outermost = not active.get(span_name)
            active[span_name] = active.get(span_name, 0) + 1
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.job, outermost]
            spans.append(record)
            stack.append(sid)
            record[1] = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                active[span_name] -= 1

        return wrapper

    def _counted(self, metric, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the package's layers; call once, before any job runs."""
        modules = {layer: importlib.import_module(f"cstardom.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED:
                    replaced[id(obj)] = self._counted(COUNTED[name], obj)
                elif attr not in NOT_SPANNED.get(layer, ()):
                    replaced[id(obj)] = self._spanned(name, obj, SPAN_LABELS.get(name))
        # rebind every module-level binding of a wrapped function
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])
        for name, metric in COUNTED.items():
            layer, *path = name.split(".")
            if len(path) == 2:
                cls = getattr(modules[layer], path[0])
                setattr(cls, path[1], self._counted(metric, getattr(cls, path[1])))
        for layer, methods in SPANNED_METHODS.items():
            for dotted in methods:
                cls_name, attr = dotted.split(".")
                cls = getattr(modules[layer], cls_name)
                original = inspect.getattr_static(cls, attr)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._spanned(f"{layer}.{dotted}", original.__func__))
                else:
                    wrapped = self._spanned(f"{layer}.{dotted}", original)
                setattr(cls, attr, wrapped)
        self._count_results(modules)

    def _count_results(self, modules):
        """Counts read off results: directed subsets when enumerated, Boolean
        subalgebras found."""
        poset_cls = modules["order"].FinPoset
        enumerate_directed = poset_cls.directed_masks
        counts = self.counts

        def directed_masks(poset):
            fresh = poset._directed is None
            out = enumerate_directed(poset)
            if fresh:
                counts["order.directed_subsets"] += len(out)
            return out

        poset_cls.directed_masks = directed_masks

        ortho = modules["ortho"]
        search = ortho.boolean_subalgebras

        def boolean_subalgebras(*args, **kwargs):
            out = search(*args, **kwargs)
            counts["ortho.boolean_found"] += out.n
            return out

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if obj is search:
                    setattr(module, attr, boolean_subalgebras)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _outer in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: 0.0 for name, unit in METRICS if unit == "s"}
        out.update(self.counts)
        inclusive = {span: metric for metric, span in INCLUSIVE.items()}
        for sid, (name, start, end, _parent, _job, outer) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer != "acceptance":
                out[f"{layer}.self_s"] += end - start - child_time[sid]
            if outer and name in inclusive:
                out[inclusive[name]] += end - start
            if outer and layer == "acceptance" and name != "acceptance.run_acceptance":
                out[f"{name}_s"] += end - start
        out["cli.requests"] = sum(1 for s in self.spans if s[0] == "cli.main")
        return out

    def write_spans(self, path):
        with open(path, "w") as handle:
            for sid, (name, start, end, parent, job, _outer) in enumerate(self.spans):
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")
