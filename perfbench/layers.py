"""Layer tracing from outside the library: wrappers around public entry points.

``Tracer.install()`` replaces each traced public function at every zolocirc
module that binds it by name (``zolocirc.analysis.solve_lambda`` as well as
``zolocirc.elliptic.solve_lambda``), and class entry points on the class.
``Tracer.remove()`` puts every original object back.  Each wrapped call is a
span with a parent; self time is the span minus the spans of its children.
Coarse calls keep one span record each; per-point calls (scalar
evaluations, oracle scan points, Groetzsch solver iterations, ...) are only
aggregated as count and time per (parent, name), so the scalar loops of an
``error`` report do not each leave a record.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

import numpy as np

import zolocirc
from zolocirc import analysis, approximants, composition, connections, elliptic, oracle, selftest

# (module, attribute, layer name, per_point)
FUNCTIONS = (
    (elliptic, "solve_lambda", "elliptic.solve_lambda", False),
    (elliptic, "mu_inverse", "elliptic.mu_inverse", False),
    (elliptic, "groetzsch_mu", "elliptic.groetzsch_mu", True),
    (elliptic, "inverse_sn", "elliptic.inverse_sn", True),
    (approximants, "build_s", "approximants.build", False),
    (approximants, "build_r", "approximants.build", False),
    (approximants, "z4_solution", "approximants.build", False),
    (approximants, "coeff_a", "approximants.coeff", True),
    (approximants, "coeff_b", "approximants.coeff", True),
    (approximants, "eval_F_product", "approximants.eval_F", True),
    (approximants, "eval_F_direct", "approximants.eval_F", True),
    (approximants, "eval_s_via_FG", "approximants.eval_s_via_FG", True),
    (analysis, "phase_error_sign", "analysis.phase_error", False),
    (analysis, "phase_error_sqrt", "analysis.phase_error", False),
    (analysis, "max_phase_error", "analysis.max_phase_error", False),
    (analysis, "contour_grid", "analysis.contour_grid", False),
    (composition, "compose_s", "composition.compose", False),
    (composition, "compose_s_tilde", "composition.compose", False),
    (composition, "compose_r", "composition.compose", False),
    (composition, "compose_F", "composition.compose", True),
    (composition, "theta_tilde", "composition.theta_tilde", False),
    (connections, "blaschke_h", "connections", False),
    (connections, "blaschke_composition_modulus", "connections", False),
    (connections, "blaschke_s_relation", "connections", True),
    (connections, "scaled_F_via_blaschke", "connections", True),
    (connections, "pade_p", "connections", False),
    (connections, "pade_limit_check", "connections", False),
    (oracle, "oracle_minimax_degree1", "oracle.minimax", False),
    (oracle, "degree1_max_phase_error", "oracle.scan", True),
    (oracle, "oracle_K", "oracle.quadrature", False),
    (oracle, "oracle_amplitude", "oracle.ode", False),
    (oracle, "oracle_sn", "oracle.ode", False),
)

# (class, attribute, layer name, per_point); a callable layer name picks
# the layer from the call's positional arguments.
METHODS = (
    (
        approximants.UnimodularRational,
        "__call__",
        lambda args: "approximants.eval_array" if isinstance(args[1], np.ndarray) else "approximants.eval_scalar",
        True,
    ),
    (approximants.ZolotarevFraction, "from_ell", "approximants.fraction", False),
    (connections.BlaschkeProduct, "__call__", "connections", True),
    (connections.PadeApproximant, "__call__", "connections", True),
)

CRITERIA = len(selftest.CRITERIA)

# Per-layer metrics reported by a traced run: name -> (unit, better).
METRICS = {
    "elliptic.solve_lambda.calls": ("count", "lower"),
    "elliptic.solve_lambda.total_ms": ("ms", "lower"),
    "elliptic.mu_inverse.calls": ("count", "lower"),
    "elliptic.mu_inverse.self_ms": ("ms", "lower"),
    "elliptic.groetzsch_mu.calls": ("count", "lower"),
    "elliptic.inverse_sn.calls": ("count", "lower"),
    "elliptic.inverse_sn.self_ms": ("ms", "lower"),
    "approximants.build.calls": ("count", "lower"),
    "approximants.build.self_ms": ("ms", "lower"),
    "approximants.coeff.calls": ("count", "lower"),
    "approximants.coeff.self_ms": ("ms", "lower"),
    "approximants.eval_array.calls": ("count", "lower"),
    "approximants.eval_array.points": ("count", "lower"),
    "approximants.eval_array.self_ms": ("ms", "lower"),
    "approximants.eval_scalar.calls": ("count", "lower"),
    "approximants.eval_scalar.self_ms": ("ms", "lower"),
    "approximants.fraction.calls": ("count", "lower"),
    "approximants.fraction.self_ms": ("ms", "lower"),
    "approximants.eval_F.calls": ("count", "lower"),
    "approximants.eval_F.self_ms": ("ms", "lower"),
    "approximants.eval_s_via_FG.calls": ("count", "lower"),
    "approximants.eval_s_via_FG.self_ms": ("ms", "lower"),
    "analysis.phase_error.calls": ("count", "lower"),
    "analysis.phase_error.self_ms": ("ms", "lower"),
    "analysis.evals_per_report": ("count", "lower"),
    "analysis.deficient_ratio": ("1", "lower"),
    "analysis.max_phase_error.calls": ("count", "lower"),
    "analysis.max_phase_error.self_ms": ("ms", "lower"),
    "analysis.contour_grid.cells": ("count", "lower"),
    "analysis.contour_grid.self_ms": ("ms", "lower"),
    "composition.compose.calls": ("count", "lower"),
    "composition.compose.self_ms": ("ms", "lower"),
    "composition.theta_tilde.calls": ("count", "lower"),
    "connections.calls": ("count", "lower"),
    "connections.self_ms": ("ms", "lower"),
    "oracle.minimax.self_ms": ("ms", "lower"),
    "oracle.scan_evals": ("count", "lower"),
    "oracle.scan.self_ms": ("ms", "lower"),
    "oracle.quadrature.self_ms": ("ms", "lower"),
    "oracle.ode.self_ms": ("ms", "lower"),
    "cli.build.self_ms": ("ms", "lower"),
    "cli.error.self_ms": ("ms", "lower"),
    "cli.bounds.self_ms": ("ms", "lower"),
    "cli.compose.self_ms": ("ms", "lower"),
    "cli.contour.self_ms": ("ms", "lower"),
    "cli.bytes_out": ("count", "lower"),
    **{f"selftest.criterion_{i}.total_ms": ("ms", "lower") for i in range(1, CRITERIA + 1)},
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.overhead_ops_per_s": ("1/s", "lower"),
}


def _library_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "zolocirc" or name.startswith("zolocirc.")]


class Tracer:
    """Spans and per-layer counters for the library calls made while installed."""

    def __init__(self):
        self._stack = []  # frames: [span id, layer name, child seconds]
        self._next_id = 1
        self._patches = []  # (owner, attribute, original)
        self.spans = []  # (id, parent id, name, start, end) of coarse calls
        self.stats = {}  # name -> [calls, total s, self s]
        self.edges = {}  # (parent name, name) -> calls
        self.counters = {"points": 0, "cells": 0, "reports": 0, "deficient": 0, "bytes_out": 0}
        self.paused = False  # while True, wrapped calls pass straight through

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, layer, per_point, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                row = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                key = (parent[1] if parent else None, name)
                tracer.edges[key] = tracer.edges.get(key, 0) + 1
                if not per_point:
                    tracer.spans.append((span_id, parent[0] if parent else None, name, start, end))
                if observe is not None:
                    observe(args, kwargs, result, exc)

        return traced

    def _observe_eval(self, args, _kwargs, _result, _exc):
        if isinstance(args[1], np.ndarray):
            self.counters["points"] += args[1].size

    def _observe_grid(self, args, kwargs, _result, exc):
        if exc is None:
            resolution = kwargs["resolution"] if "resolution" in kwargs else args[3]
            self.counters["cells"] += resolution * resolution

    def _observe_report(self, args, _kwargs, result, exc, per_factor, offset):
        self.counters["reports"] += 1
        expected = per_factor * len(args[0].factors) + offset
        if exc is not None or any(c < expected for c in result.arcs):
            self.counters["deficient"] += 1

    @contextlib.contextmanager
    def pause(self):
        """Leave the library calls made inside (the benchmark's own checks) out of the trace."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def span(self, name, fn, *args):
        """Run fn(*args) as a span named ``name`` (used for the CLI commands)."""
        return self._wrap(fn, name, False)(*args)

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        observers = {
            "phase_error_sign": lambda a, k, r, e: self._observe_report(a, k, r, e, 1, 1),
            "phase_error_sqrt": lambda a, k, r, e: self._observe_report(a, k, r, e, 2, 2),
            "contour_grid": self._observe_grid,
        }
        for module, attribute, layer, per_point in FUNCTIONS:
            original = getattr(module, attribute)
            wrapper = self._wrap(original, layer, per_point, observers.get(attribute))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for cls, attribute, layer, per_point in METHODS:
            descriptor = vars(cls)[attribute]
            if isinstance(descriptor, classmethod):
                wrapper = classmethod(self._wrap(descriptor.__func__, layer, per_point))
            else:
                observe = self._observe_eval if cls is approximants.UnimodularRational else None
                wrapper = self._wrap(descriptor, layer, per_point, observe)
            self._patch(cls, attribute, wrapper)
        criteria = tuple(
            self._wrap(fn, f"selftest.criterion_{i}", False) for i, fn in enumerate(selftest.CRITERIA, start=1)
        )
        self._patch(selftest, "CRITERIA", criteria)
        return self

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *_exc):
        self.remove()

    # -- results ---------------------------------------------------------
    def _get(self, name, column):
        row = self.stats.get(name)
        return row[column] if row else 0

    def metrics(self) -> dict:
        """Per-layer metric values (without the trace.* overhead rows)."""
        out = {}
        for metric in METRICS:
            if metric.startswith("trace."):
                continue
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self._get(layer, 0)
            elif field == "total_ms":
                out[metric] = 1e3 * self._get(layer, 1)
            elif field == "self_ms":
                out[metric] = 1e3 * self._get(layer, 2)
        reports = self.counters["reports"]
        scalar_in_reports = self.edges.get(("analysis.phase_error", "approximants.eval_scalar"), 0)
        out["analysis.evals_per_report"] = scalar_in_reports / reports if reports else 0.0
        out["analysis.deficient_ratio"] = self.counters["deficient"] / reports if reports else 0.0
        out["approximants.eval_array.points"] = self.counters["points"]
        out["analysis.contour_grid.cells"] = self.counters["cells"]
        out["oracle.scan_evals"] = self._get("oracle.scan", 0)
        out["cli.bytes_out"] = self.counters["bytes_out"]
        return out

    def dump(self, path: str) -> None:
        """Write the spans and the per-(parent, name) aggregates as JSON."""
        payload = {
            "library": zolocirc.__file__,
            "spans": [
                {"id": i, "parent": p, "name": n, "start_s": s, "end_s": e} for i, p, n, s, e in self.spans
            ],
            "layers": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": c} for (p, n), c in sorted(self.edges.items(), key=str)],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
