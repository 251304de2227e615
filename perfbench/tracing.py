"""Span tracing around the program's layer boundaries, from the outside.

``Tracer.install()`` wraps the public functions of each layer in every
utmcont module namespace that bound them (``from ..quad import
integrate_segment`` makes a second binding), and wraps methods at their
class.  Each call records a span (layer, start, end, parent span, op id)
and the counters its layer defines; spans stay in memory and are written
out by ``save()``.  A layer's self time is its span durations minus the
time its child spans cover.  ``uninstall()`` restores every binding.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute or Class.method, layer, counter hook name)
TARGETS = (
    ("utmcont.quad", "integrate_segment", "quad.segment", "segment"),
    ("utmcont.quad", "HalfLineTransform.__call__", "quad.transform",
     "transform"),
    ("utmcont.quad", "finite_interval_transform", "quad.interval_transform",
     None),
    ("utmcont.quad", "singular_time_convolution", "quad.time_conv", None),
    ("utmcont.continuous.heat", "i0", "continuous.i0", None),
    ("utmcont.continuous.advected", "i0", "continuous.i0", None),
    ("utmcont.continuous.kdv", "i0_one_bc", "continuous.i0", None),
    ("utmcont.continuous.kdv", "i0_two_bc", "continuous.i0", None),
    ("utmcont.continuous.finite_interval", "i0", "continuous.i0", None),
    ("utmcont.continuous.finite_interval", "i0_at_zero", "continuous.i0",
     None),
    ("utmcont.continuous.heat", "boundary_integral", "continuous.boundary",
     None),
    ("utmcont.continuous.heat", "single_layer", "continuous.boundary", None),
    ("utmcont.continuous.advected", "boundary_integral",
     "continuous.boundary", None),
    ("utmcont.continuous.kdv", "if0_one_bc", "continuous.boundary", None),
    ("utmcont.continuous.kdv", "_kdv2_boundary", "continuous.boundary", None),
    ("utmcont.continuous.finite_interval", "left_boundary_integral",
     "continuous.boundary", None),
    ("utmcont.continuous.finite_interval", "right_boundary_integral",
     "continuous.boundary", None),
    ("utmcont.continuous.finite_interval", "left_extension",
     "continuous.tiling", None),
    ("utmcont.continuous.finite_interval", "right_extension",
     "continuous.tiling", None),
    ("utmcont.continuous.heat", "dirichlet_odd_coefficient",
     "continuous.coeff.heat", None),
    ("utmcont.continuous.heat", "full_series_coefficient",
     "continuous.coeff.heat", None),
    ("utmcont.continuous.advected", "boundary_coefficient",
     "continuous.coeff.advected", None),
    ("utmcont.continuous.kdv", "kdv1_coefficient", "continuous.coeff.kdv1",
     None),
    ("utmcont.continuous.kdv", "kdv2_coefficient", "continuous.coeff.kdv2",
     None),
    ("utmcont.continuous.finite_interval", "odd_center_coefficient",
     "continuous.coeff.fi_center", None),
    ("utmcont.continuous._common", "adaptive_series", "continuous.series",
     "series"),
    ("utmcont.continuous._common", "CoeffLadder.get", "continuous.series",
     "ladder"),
    ("utmcont.expr", "DerivativeCache.derivative", "expr.derivative",
     "derivative"),
    ("utmcont.expr", "DerivativeCache.value", "expr.value", "value"),
    ("utmcont.expr", "Expression.eval", "expr.eval", None),
    ("utmcont.expr", "Expression.compiled", "expr.eval", None),
    ("utmcont.specfun", "gamma", "specfun", None),
    ("utmcont.specfun", "log_gamma", "specfun", None),
    ("utmcont.specfun", "lower_incomplete_gamma", "specfun", None),
    ("utmcont.specfun", "regularized_lower_gamma", "specfun", None),
    ("utmcont.specfun", "bessel_i_scaled", "specfun", None),
    ("utmcont.specfun", "reflection_product_dirichlet", "specfun", None),
    ("utmcont.specfun", "reflection_product_neumann", "specfun", None),
    ("utmcont.specfun", "gamma_ratio", "specfun", None),
    ("utmcont.semidiscrete", "sd_heat_dirichlet_range", "semidiscrete.range",
     "range"),
    ("utmcont.semidiscrete", "sd_heat_neumann_range", "semidiscrete.range",
     "range"),
    ("utmcont.semidiscrete", "sd_heat_dirichlet_continued",
     "semidiscrete.continued", None),
    ("utmcont.semidiscrete", "sd_heat_neumann_continued",
     "semidiscrete.continued", None),
    ("utmcont.cli", "load_config", "cli.config", None),
    ("utmcont.cli", "validate_config", "cli.config", None),
    ("utmcont.cli", "build_problem", "cli.config", None),
    ("utmcont.cli", "build_reference", "cli.config", None),
    ("utmcont.cli", "_write_outputs", "cli.io", None),
)

# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "quad.transform.k_requested": ("count", "lower"),
    "quad.transform.k_computed": ("count", "lower"),
    "quad.transform.hit_ratio": ("ratio", "higher"),
    "quad.transform.cache_entries": ("count", "lower"),
    "quad.transform.self_s": ("s", "lower"),
    "quad.segment.calls": ("count", "lower"),
    "quad.segment.evals": ("count", "lower"),
    "quad.segment.tol_missed": ("count", "lower"),
    "quad.segment.self_s": ("s", "lower"),
    "quad.interval_transform.calls": ("count", "lower"),
    "quad.interval_transform.self_s": ("s", "lower"),
    "quad.time_conv.calls": ("count", "lower"),
    "quad.time_conv.self_s": ("s", "lower"),
    "continuous.i0.calls": ("count", "lower"),
    "continuous.i0.self_s": ("s", "lower"),
    "continuous.boundary.calls": ("count", "lower"),
    "continuous.boundary.self_s": ("s", "lower"),
    "continuous.tiling.calls": ("count", "lower"),
    "continuous.tiling.self_s": ("s", "lower"),
    **{f"continuous.coeff.{fam}.{m}": (u, "lower")
       for fam in ("heat", "advected", "kdv1", "kdv2", "fi_center")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "continuous.series.calls": ("count", "lower"),
    "continuous.series.terms": ("count", "lower"),
    "continuous.series.entries_built": ("count", "lower"),
    "continuous.series.cap_stops": ("count", "lower"),
    "continuous.series.self_s": ("s", "lower"),
    "expr.derivative.built": ("count", "lower"),
    "expr.derivative.max_order": ("count", "lower"),
    "expr.derivative.self_s": ("s", "lower"),
    "expr.value.calls": ("count", "lower"),
    "expr.value.hit_ratio": ("ratio", "higher"),
    "expr.eval.self_s": ("s", "lower"),
    "specfun.calls": ("count", "lower"),
    "specfun.self_s": ("s", "lower"),
    "semidiscrete.range.calls": ("count", "lower"),
    "semidiscrete.range.indices": ("count", "lower"),
    "semidiscrete.range.self_s": ("s", "lower"),
    "semidiscrete.continued.calls": ("count", "lower"),
    "semidiscrete.continued.self_s": ("s", "lower"),
    "cli.config.self_s": ("s", "lower"),
    "cli.io.bytes": ("bytes", "lower"),
    "cli.io.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class TraceError(RuntimeError):
    """The program lacks a layer boundary or a counted container that the
    tracer reads; the per-layer metrics would silently read zero."""


class Tracer:
    """Records spans and counters while installed; one per traced pass."""

    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = []  # [span index, start, time covered by children]
        self.self_s = {}
        self.counts = {}
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _push(self, layer_id):
        idx = len(self.start)
        parent = self._stack[-1][0] if self._stack else -1
        now = time.perf_counter()
        self.name.append(layer_id)
        self.start.append(now)
        self.end.append(0.0)
        self.parent.append(parent)
        self.op.append(self.op_id)
        frame = [idx, now, 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, layer):
        now = time.perf_counter()
        self._stack.pop()
        idx, began, covered = frame
        self.end[idx] = now
        duration = now - began
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, layer, hook):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        layer_id = self._layer_ids[layer]
        before, after = HOOKS.get(hook, (None, None))
        # ladder reads count as series terms, not as series calls
        calls_key = f"{layer}.calls" if hook != "ladder" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if calls_key:
                tracer.count(calls_key)
            state = before(tracer, args, kwargs) if before else None
            frame = tracer._push(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, layer)
            if after:
                after(tracer, state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        """Wrap every target.  A target the program no longer has raises
        TraceError before anything is patched: its layer would otherwise
        read as zero, which looks like a large gain."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "utmcont" or n.startswith("utmcont.")]
        found, missing = [], []
        for mod_name, attr, layer, hook in TARGETS:
            mod = importlib.import_module(mod_name)
            owner, name = mod, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mod, cls_name, None)
            orig = None if owner is None else vars(owner).get(name)
            if orig is None:
                missing.append(f"{mod_name}.{attr}")
            else:
                found.append((owner, name, orig, layer, hook))
        if missing:
            raise TraceError("trace targets not found in the program: "
                             + ", ".join(missing))
        for owner, name, orig, layer, hook in found:
            wrapped = self._wrap(orig, layer, hook)
            if isinstance(owner, type):
                # a method: patch every alias at the class (__call__ = eval)
                bindings = [(owner, n) for n, v in list(vars(owner).items())
                            if v is orig]
            else:
                # a function: patch every module namespace that bound it
                bindings = [(m, name) for m in modules
                            if getattr(m, name, None) is orig]
            for target, binding in bindings:
                self._patched.append((target, binding, orig))
                setattr(target, binding, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def metrics(self, io_bytes, overhead_s):
        c = self.counts
        out = {name: 0.0 for name in LAYER_METRICS}
        for key, value in c.items():
            if key in out:
                out[key] = float(value)
        for layer, value in self.self_s.items():
            out[f"{layer}.self_s"] = value
        # the transform and the series span two wrapped callables each
        req = c.get("quad.transform.k_requested", 0)
        out["quad.transform.hit_ratio"] = (
            (req - c.get("quad.transform.k_computed", 0)) / req if req else 0.0)
        calls = c.get("expr.value.calls", 0)
        out["expr.value.hit_ratio"] = (c.get("expr.value.hits", 0) / calls
                                       if calls else 0.0)
        out["cli.io.bytes"] = float(io_bytes)
        out["trace.overhead_s"] = overhead_s
        return {k: out[k] for k in LAYER_METRICS}

    def save(self, path):
        np.savez_compressed(
            path, layers=np.array(self.layers), name=np.frombuffer(self.name,
                                                                   np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32),
            op=np.frombuffer(self.op, np.int32))


# -- counter hooks: (before, after) -------------------------------------


def _segment_after(tr, _state, _args, _kwargs, result):
    tr.count("quad.segment.evals", int(getattr(result, "evaluations", 0)))
    if getattr(result, "warning", None):
        tr.count("quad.segment.tol_missed")


def _size(obj, attr):
    """len(obj.attr); the counters built on it mean nothing without it."""
    held = getattr(obj, attr, None)
    if held is None:
        raise TraceError(f"{type(obj).__name__} has no {attr!r} to count")
    return len(held)


def _transform_before(_tr, args, _kwargs):
    return _size(args[0], "_cache")


def _transform_after(tr, state, args, kwargs, _result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    tr.count("quad.transform.k_requested", int(np.size(k)))
    size = _size(args[0], "_cache")
    tr.count("quad.transform.k_computed", size - state)
    tr.peak("quad.transform.cache_entries", size)


def _series_after(tr, _state, _args, _kwargs, result):
    if isinstance(result, tuple) and len(result) > 2 and result[2] == "cap":
        tr.count("continuous.series.cap_stops")


def _ladder_before(_tr, args, _kwargs):
    return _size(args[0], "entries")


def _ladder_after(tr, state, args, _kwargs, _result):
    tr.count("continuous.series.terms")
    tr.count("continuous.series.entries_built",
             _size(args[0], "entries") - state)


def _derivative_before(_tr, args, _kwargs):
    return _size(args[0], "_ladder")


def _derivative_after(tr, state, args, _kwargs, _result):
    size = _size(args[0], "_ladder")
    tr.count("expr.derivative.built", size - state)
    tr.peak("expr.derivative.max_order", size - 1)


def _value_before(_tr, args, kwargs):
    # only scalar points are memoized; an array call is never a hit
    x = args[2] if len(args) > 2 else kwargs["x"]
    return _size(args[0], "_values") if np.ndim(x) == 0 else None


def _value_after(tr, state, args, _kwargs, _result):
    if state is not None and _size(args[0], "_values") == state:
        tr.count("expr.value.hits")


def _range_after(tr, _state, args, kwargs, _result):
    ns = args[1] if len(args) > 1 else kwargs["ns"]
    tr.count("semidiscrete.range.indices", int(np.size(ns)))


HOOKS = {
    "segment": (None, _segment_after),
    "transform": (_transform_before, _transform_after),
    "series": (None, _series_after),
    "ladder": (_ladder_before, _ladder_after),
    "derivative": (_derivative_before, _derivative_after),
    "value": (_value_before, _value_after),
    "range": (None, _range_after),
}
