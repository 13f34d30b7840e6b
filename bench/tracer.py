"""Span tracing around the public entry points of each thetakernels layer.

Nothing here changes the package: ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back.  A call reaches a wrapper only when it goes through a
patched name, so the patch list below names every module namespace that
imports a traced function (``theta.theta_batch`` and
``kernels.theta_batch`` are the same function under two names).

Each wrapped call records a span: name, round id, parent span, start and
end.  A span's self time is its duration minus the durations of its
direct children.  Spans stay in memory and are aggregated into the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span name); "Class.method" attributes patch the class.
FUNCTION_TARGETS = [
    ("thetakernels.theta", "theta_batch", "theta.theta_batch"),
    ("thetakernels.kernels", "theta_batch", "theta.theta_batch"),
    ("thetakernels.theta", "log_theta_hessian", "theta.log_theta_hessian"),
    ("thetakernels.kernels", "log_theta_hessian", "theta.log_theta_hessian"),
    ("thetakernels.curves", "build_curve", "curves.build_curve"),
    ("thetakernels.cli", "build_curve", "curves.build_curve"),
    ("thetakernels.curves", "HyperellipticCurve.local_expansion",
     "curves.local_expansion"),
    ("thetakernels.curves", "HyperellipticCurve.cycle_contour",
     "curves.cycle_contour"),
    ("thetakernels.series", "Series.compose", "series.Series.compose"),
    ("thetakernels.series", "Series.reversion", "series.Series.reversion"),
    ("thetakernels.series", "Series.pow_fraction",
     "series.Series.pow_fraction"),
    ("thetakernels.series", "Series.reciprocal", "series.Series.reciprocal"),
]

KERNEL_FUNCTIONS = [
    "select_odd_characteristic", "prime_form", "szego_kernel",
    "bergman_kernel", "klein_kernel", "klein_coordinates",
    "wirtinger_connection", "bergman_a_period", "finiteness_probe",
]
for _name in KERNEL_FUNCTIONS:
    FUNCTION_TARGETS.append(("thetakernels.kernels", _name, f"kernels.{_name}"))
    FUNCTION_TARGETS.append(("thetakernels.cli", _name, f"kernels.{_name}"))

JET_FUNCTIONS = [
    "build_oper", "matrix_oper", "trace_map", "det_kernel", "quadratic_S",
    "change_coordinate", "projective_chart", "kernel_to_operator",
    "operator_to_kernel",
]
for _name in JET_FUNCTIONS:
    FUNCTION_TARGETS.append(("thetakernels.jets", _name, f"jets.{_name}"))

SELF_TIME_LAYERS = (
    ["curves.build_curve", "curves.local_expansion", "curves.cycle_contour"]
    + [f"kernels.{n}" for n in KERNEL_FUNCTIONS]
    + [f"jets.{n}" for n in JET_FUNCTIONS]
    + [f"series.Series.{n}" for n in
       ("compose", "reversion", "pow_fraction", "reciprocal")]
)


class Tracer:
    """Records nested spans while installed; a no-op once uninstalled."""

    def __init__(self):
        self.spans = []      # [name, round, parent, start, end, child_time]
        self._stack = []
        self.round = 0
        self.paused = False
        self._saved = []
        self._abel_seen = {}  # curve -> set of point keys passed to abel_map

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.round, parent, 0.0, 0.0, 0.0]
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][5] += rec[4] - rec[3]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _wrap_abel(self, fn):
        """abel_map spans split into first and repeat calls of a point.

        The split uses the points this tracer has seen passed in, not the
        curve's private cache.
        """
        @functools.wraps(fn)
        def wrapper(curve, p, base=None):
            if self.paused:
                return fn(curve, p, base)
            seen = self._abel_seen.setdefault(curve, set())
            key = (p.key(), None if base is None else base.key())
            kind = "repeat" if key in seen else "first"
            seen.add(key)
            return self._call(f"curves.abel_map.{kind}", fn, (curve, p, base),
                              {})
        return wrapper

    @contextlib.contextmanager
    def paused_context(self):
        """Calls made inside run unrecorded (used for output checks)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every target whose module is importable."""
        curves = importlib.import_module("thetakernels.curves")
        cls = curves.HyperellipticCurve
        self._patch(cls, "abel_map", self._wrap_abel(cls.abel_map))
        for module_name, attr, span in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            if not hasattr(owner, attr):
                continue
            self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def totals(self):
        """name -> [calls, self seconds]."""
        out = {}
        for name, _round, _parent, start, end, child in self.spans:
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += end - start - child
        return out

    def distinct_abel_points(self):
        return sum(len(s) for s in self._abel_seen.values())


def layer_metrics(tracer: Tracer):
    """Per-layer metric values from the recorded spans (0 for unused layers)."""
    tot = tracer.totals()

    def get(name, k):
        return tot.get(name, [0, 0.0])[k]

    calls = get("theta.theta_batch", 0)
    m = {
        "theta.theta_batch.calls": calls,
        "theta.theta_batch.self_s": get("theta.theta_batch", 1),
        "theta.theta_batch.mean_us": (1e6 * get("theta.theta_batch", 1) / calls
                                      if calls else 0.0),
        "theta.log_theta_hessian.calls": get("theta.log_theta_hessian", 0),
        "curves.abel_map.first_calls": get("curves.abel_map.first", 0),
        "curves.abel_map.first_self_s": get("curves.abel_map.first", 1),
        "curves.abel_map.repeat_calls": get("curves.abel_map.repeat", 0),
        "curves.abel_map.repeat_self_s": get("curves.abel_map.repeat", 1),
        "curves.abel_map.distinct_points": tracer.distinct_abel_points(),
        "kernels.select_odd_characteristic.calls":
            get("kernels.select_odd_characteristic", 0),
    }
    for name in SELF_TIME_LAYERS:
        m[f"{name}.self_s"] = get(name, 1)
    return m
