"""Per-layer trace taken from outside the program.

The tracer wraps the public boundaries of the ``graspsynth`` modules at
the bindings their callers use: a function is replaced in every
``graspsynth`` module that holds it under its name (so
``forward_kinematics`` is wrapped in ``closure``, ``metrics``,
``grasp_opt`` and the rest), and a method is replaced on its class.
Each call records a span (name, start, end, parent span, unit id) in
memory; nothing is written until the run ends. ``uninstall`` restores
every binding, so the untraced pass never runs through a wrapper.
"""

import functools
import importlib
import json
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute path). A dotted attribute is a method on
# a class; a plain one is a module-level function. Some boundaries feed no
# metric of their own: they keep ``pipeline.self_s`` down to glue and show
# the set-up steps in trace.json.
BOUNDARIES = [
    ("grasp_opt.optimize", "graspsynth.grasp_opt", "optimize"),
    ("grasp_opt.refine_physical", "graspsynth.grasp_opt", "refine_physical"),
    ("grasp_opt.evaluate", "graspsynth.grasp_opt", "evaluate"),
    ("grasp_opt._descend", "graspsynth.grasp_opt", "_descend"),
    ("grasp_opt.GraspScene", "graspsynth.grasp_opt", "GraspScene.__init__"),
    ("geometry.MeshSDF.build", "graspsynth.geometry.sdf", "MeshSDF.__init__"),
    ("geometry.MeshSDF.query", "graspsynth.geometry.sdf", "MeshSDF.query"),
    ("geometry.MeshSDF.inside", "graspsynth.geometry.sdf", "MeshSDF.inside"),
    ("geometry.MeshSDF.query_with_gradient", "graspsynth.geometry.sdf",
     "MeshSDF.query_with_gradient"),
    ("geometry.TriangleBVH.ray_crossings", "graspsynth.geometry.sdf",
     "TriangleBVH.ray_crossings"),
    ("geometry.winding_numbers", "graspsynth.geometry.sdf", "winding_numbers"),
    ("geometry.SdfGrid.query", "graspsynth.geometry.grid", "SdfGrid.query"),
    ("geometry.SdfGrid.gradient", "graspsynth.geometry.grid",
     "SdfGrid.gradient"),
    ("geometry.sdf_grid_from_mesh", "graspsynth.geometry.grid",
     "sdf_grid_from_mesh"),
    ("geometry.sample_surface", "graspsynth.geometry.sampling",
     "sample_surface"),
    ("metrics.evaluate_grasp", "graspsynth.metrics", "evaluate_grasp"),
    ("metrics.closure_success", "graspsynth.metrics", "closure_success"),
    ("metrics.penetration", "graspsynth.metrics", "penetration"),
    ("metrics.self_penetration", "graspsynth.metrics", "self_penetration"),
    ("closure.march_closure", "graspsynth.closure", "march_closure"),
    ("closure.close_until_contact", "graspsynth.closure",
     "close_until_contact"),
    ("correspondence.fit_deformation", "graspsynth.correspondence",
     "fit_deformation"),
    ("correspondence.correspond", "graspsynth.correspondence", "correspond"),
    ("correspondence.diffuse_contacts", "graspsynth.correspondence",
     "diffuse_contacts"),
    ("retarget.problem_from_demo", "graspsynth.retarget", "problem_from_demo"),
    ("retarget.retarget", "graspsynth.retarget", "retarget"),
    ("hands.forward_kinematics", "graspsynth.hands.model",
     "forward_kinematics"),
    ("contact.extract_bundle", "graspsynth.contact", "extract_bundle"),
    ("contact.load_demo", "graspsynth.contact", "load_demo"),
    ("fit.fit_state", "graspsynth.fit", "fit_state"),
    ("fit.icp_init", "graspsynth.fit", "icp_init"),
    ("fit._fit_one", "graspsynth.fit", "_fit_one"),
    ("fixtures.author_wrap_demo", "graspsynth.fixtures", "author_wrap_demo"),
    ("fixtures.write_category", "graspsynth.fixtures", "write_category"),
    ("pipeline.run_category", "graspsynth.pipeline", "run_category"),
]

LAYERS = ["grasp_opt", "geometry", "metrics", "closure", "correspondence",
          "retarget", "hands", "contact", "fit", "fixtures", "pipeline"]


def _tag_evaluate(args, kwargs):
    """``evaluate`` computes the gradient only when ``accumulate`` is set."""
    grad = kwargs.get("accumulate", args[4] if len(args) > 4 else False)
    return "grasp_opt.evaluate.grad" if grad else "grasp_opt.evaluate.nograd"


def _count_points(args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return len(points) if np.ndim(points) > 1 else 1


def _iterations_of_report(result):
    return result[1].iterations            # fit_deformation -> (field, report)


def _accepted_steps(result):
    return len(result[1]) - 1              # _descend -> (grasp, rows)


TAGS = {"grasp_opt.evaluate": _tag_evaluate}
SIZES = {"geometry.MeshSDF.query": _count_points}
RESULTS = {
    "correspondence.fit_deformation": _iterations_of_report,
    "retarget.retarget": lambda result: result.iterations,
    "grasp_opt._descend": _accepted_steps,
}


class Tracer:
    """Spans in memory around every boundary in ``BOUNDARIES``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, unit, size]
        self.unit = None
        self.absent = []
        self.warnings = Counter()
        self._stack = []
        self._patches = []
        self._saved_showwarning = None

    # -- installing ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("graspsynth") and m is not None]
        for span, module_name, attr in BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, span)
                    continue
                original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(span)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, span)
        self._saved_showwarning = warnings.showwarning
        warnings.showwarning = self._on_warning
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        if self._saved_showwarning is not None:
            warnings.showwarning = self._saved_showwarning
            self._saved_showwarning = None

    def _patch(self, owner, attr, original, span):
        setattr(owner, attr, self._wrap(span, original))
        self._patches.append((owner, attr, original))

    def _wrap(self, name, fn):
        tag = TAGS.get(name)
        size = SIZES.get(name)
        on_result = RESULTS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [tag(args, kwargs) if tag else name, clock(), None,
                      stack[-1] if stack else -1, self.unit,
                      size(args, kwargs) if size else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                record[5] = on_result(result)
            return result

        return traced

    def _on_warning(self, message, category, filename, lineno, file=None,
                    line=None):
        layer = (self.spans[self._stack[-1]][0].split(".")[0]
                 if self._stack else "outside")
        self.warnings[(layer, category.__name__)] += 1

    # -- reading ------------------------------------------------------------

    def to_reference_time(self, clock):
        """Turn every span's readings into reference seconds (refclock)."""
        if not self.spans:
            return
        starts = clock.reference_time([s[1] for s in self.spans])
        ends = clock.reference_time([s[2] for s in self.spans])
        for span, start, end in zip(self.spans, starts, ends):
            span[1], span[2] = float(start), float(end)

    def self_times(self):
        """Span duration minus the part its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit",
                                  "size"],
                       "absent": self.absent,
                       "spans": self.spans}, fh)


class _Spans:
    """Sums over the recorded spans, by span name."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.total = defaultdict(float)
        self.count = Counter()
        self.sizes = defaultdict(float)
        self.ms = defaultdict(list)
        for name, start, end, parent, unit, size in self.spans:
            self.total[name] += end - start
            self.count[name] += 1
            self.ms[name].append((end - start) * 1e3)
            if size is not None:
                self.sizes[name] += size
        self.self_time = defaultdict(float)
        for span, t in zip(self.spans, tracer.self_times()):
            self.self_time[span[0]] += t

    def p50_ms(self, name):
        return statistics.median(self.ms[name]) if self.ms[name] else 0.0

    def calls_under(self, name, parent):
        return sum(1 for s in self.spans if s[0] == name and s[3] >= 0
                   and self.spans[s[3]][0] == parent)

    @staticmethod
    def ratio(a, b):
        return a / b if b else 0.0


def _of(kind, *names):
    """Sum of ``kind`` ("total", "count" or "sizes") over the named spans."""
    return list(names), lambda s: sum(getattr(s, kind)[n] for n in names)


# metric -> (span names it reads, how it is computed from the spans)
LAYER_METRICS = {
    "grasp_opt.optimize_s": _of("total", "grasp_opt.optimize"),
    "grasp_opt.refine_s": _of("total", "grasp_opt.refine_physical"),
    "grasp_opt.evaluate_calls_grad": _of("count", "grasp_opt.evaluate.grad"),
    "grasp_opt.evaluate_calls_nograd":
        _of("count", "grasp_opt.evaluate.nograd"),
    "grasp_opt.evaluate_grad_ms_p50": (
        ["grasp_opt.evaluate.grad"],
        lambda s: s.p50_ms("grasp_opt.evaluate.grad")),
    "grasp_opt.evaluate_nograd_ms_p50": (
        ["grasp_opt.evaluate.nograd"],
        lambda s: s.p50_ms("grasp_opt.evaluate.nograd")),
    "grasp_opt.accepted_steps": _of("sizes", "grasp_opt._descend"),
    "grasp_opt.evals_per_step": (
        ["grasp_opt.evaluate.nograd", "grasp_opt._descend"],
        lambda s: s.ratio(s.count["grasp_opt.evaluate.nograd"],
                          s.sizes["grasp_opt._descend"])),
    "geometry.mesh_sdf_builds": _of("count", "geometry.MeshSDF.build"),
    "geometry.mesh_sdf_build_s": _of("total", "geometry.MeshSDF.build"),
    "geometry.mesh_sdf_query_calls": _of("count", "geometry.MeshSDF.query"),
    "geometry.mesh_sdf_query_points": _of("sizes", "geometry.MeshSDF.query"),
    "geometry.points_per_query": (
        ["geometry.MeshSDF.query"],
        lambda s: s.ratio(s.sizes["geometry.MeshSDF.query"],
                          s.count["geometry.MeshSDF.query"])),
    "geometry.mesh_sdf_query_s": _of("total", "geometry.MeshSDF.query"),
    "geometry.query_with_gradient_calls":
        _of("count", "geometry.MeshSDF.query_with_gradient"),
    "geometry.ray_casts_per_inside": (
        ["geometry.TriangleBVH.ray_crossings", "geometry.MeshSDF.inside"],
        lambda s: s.ratio(s.count["geometry.TriangleBVH.ray_crossings"],
                          s.count["geometry.MeshSDF.inside"])),
    "geometry.winding_fallbacks": (
        ["geometry.winding_numbers", "geometry.MeshSDF.inside"],
        lambda s: s.calls_under("geometry.winding_numbers",
                                "geometry.MeshSDF.inside")),
    "geometry.sdf_grid_query_calls":
        _of("count", "geometry.SdfGrid.query", "geometry.SdfGrid.gradient"),
    "geometry.sdf_grid_query_s":
        _of("total", "geometry.SdfGrid.query", "geometry.SdfGrid.gradient"),
    "geometry.sample_surface_s": _of("total", "geometry.sample_surface"),
    "metrics.evaluate_grasp_s": _of("total", "metrics.evaluate_grasp"),
    "metrics.closure_success_s": _of("total", "metrics.closure_success"),
    "metrics.penetration_s": _of("total", "metrics.penetration"),
    "metrics.self_penetration_s": _of("total", "metrics.self_penetration"),
    "closure.march_closure_calls": _of("count", "closure.march_closure"),
    "closure.march_closure_s": _of("total", "closure.march_closure"),
    "closure.close_until_contact_s":
        _of("total", "closure.close_until_contact"),
    "correspondence.fit_deformation_s":
        _of("total", "correspondence.fit_deformation"),
    "correspondence.fit_deformation_calls":
        _of("count", "correspondence.fit_deformation"),
    "correspondence.fit_iterations":
        _of("sizes", "correspondence.fit_deformation"),
    "correspondence.diffuse_s":
        _of("total", "correspondence.diffuse_contacts"),
    "retarget.retarget_s": _of("total", "retarget.retarget"),
    "retarget.iterations": _of("sizes", "retarget.retarget"),
    "hands.forward_kinematics_calls": _of("count", "hands.forward_kinematics"),
    "hands.forward_kinematics_s": _of("total", "hands.forward_kinematics"),
    "contact.extract_bundle_s": _of("total", "contact.extract_bundle"),
    "fit.fit_state_s": _of("total", "fit.fit_state"),
    "fit.icp_init_s": _of("total", "fit.icp_init"),
    "fit.templates_refit": _of("count", "fit._fit_one"),
    "fixtures.author_wrap_demo_s": _of("total", "fixtures.author_wrap_demo"),
    "pipeline.self_s": (["pipeline.run_category"],
                        lambda s: s.self_time["pipeline.run_category"]),
}


def layer_metrics(tracer, overhead):
    """Per-layer metrics derived from the spans, keyed as in BENCHMARK.json.

    Times are inclusive reference seconds (``refclock``) summed over the
    traced work, except ``pipeline.self_s``. A boundary the workload
    never crosses reads 0; a metric that reads a boundary missing from
    the program is ``None`` (absent).
    """
    spans = _Spans(tracer)

    def missing(names):
        return any(n == b or n.startswith(b + ".")
                   for n in names for b in tracer.absent)

    values = {metric: None if missing(names) else compute(spans)
              for metric, (names, compute) in LAYER_METRICS.items()}
    for layer in LAYERS:
        values[f"{layer}.runtime_warnings"] = tracer.warnings[
            (layer, "RuntimeWarning")]
    values["trace.overhead"] = overhead
    return values
