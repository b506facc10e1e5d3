"""Span recording around the public functions of each trabessel layer.

The wrappers live here, in the benchmark, not in the program.  A caller that
bound a function at import (``from .basis import basis_block``) keeps its own
reference, so every module attribute that holds the function is replaced,
under whatever name it is bound.

A span is ``(name, start, end, parent, op_id, size)``: ``parent`` is the index
of the enclosing span in the same list (or None), ``size`` the work count the
wrapper reads from the call's arguments (degrees, grid cells, points).
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import statistics
import sys
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cells(args, kwargs):
    x = _arg(args, kwargs, 2, "x")
    count = getattr(x, "size", None)
    return (_arg(args, kwargs, 1, "n") + 1) * (1 if count is None else count)


# (module, function, span name, size of the call or None)
TARGETS = (
    ("families", "eval_poly", "families.eval_poly", None),
    ("families", "eval_poly_sequence", "families.eval_poly_sequence",
     lambda a, k: _arg(a, k, 1, "n") + 1),
    ("solver", "resolve_class", "solver.resolve", None),
    ("solver", "recursion_coeffs", "solver.recursion", None),
    ("solver", "expansion_coefficients", "solver.coeffs",
     lambda a, k: _arg(a, k, 1, "N") + 1),
    ("solver", "evaluate_series", "solver.eval_series", None),
    ("solver", "jacobi_matrix", "solver.jacobi",
     lambda a, k: _arg(a, k, 1, "N") + 1),
    ("solver", "tridiag_eigenvalues", "solver.eigh",
     lambda a, k: len(_arg(a, k, 0, "diag"))),
    ("basis", "basis_block", "basis.block", _cells),
    ("basis", "basis_derivatives", "basis.deriv", _cells),
    ("basis", "basis_value", "basis.value", _cells),
    ("ode", "apply_D_values", "ode.apply_D", None),
    ("verify", "tridiagonality_check", "verify.check", None),
    ("verify", "tridiagonality_sweep", "verify.sweep",
     lambda a, k: len(_arg(a, k, 1, "n_values"))),
    ("verify", "residual", "verify.residual", None),
    ("quantum", "confining_well", "quantum.well", None),
    ("quantum", "fd_oracle", "quantum.fd",
     lambda a, k: 3 * (a[2] if len(a) > 2 else k.get("grid_size", 4000))),
    ("quantum", "singular_oscillator", "quantum.oscillator", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans in memory while ``active``; ``install`` patches the layers."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.op_id = None
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id,
                                     size(args, kwargs) if size else None)
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the root span of an op)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def install(self):
        """Replace every binding of each target in the loaded trabessel modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "trabessel" or key.startswith("trabessel."))]
        for mod_name, fn_name, span_name, size in TARGETS:
            key = f"trabessel.{mod_name}"
            if key not in sys.modules:
                continue
            original = getattr(importlib.import_module(key), fn_name)
            wrapper = self._wrap(original, span_name, size)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def loglog_slope(points):
    """Least-squares slope of log(time) on log(size) over (size, time) pairs."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def ladder_exponent(spans, name, ladder):
    """Median over op families of the log-log slope of ``name`` span time
    against span size; ``ladder`` maps op id to its family.  0.0 when no
    family has two or more sizes."""
    times = {}
    for s in spans:
        if s[0] == name and s[4] in ladder:
            times.setdefault(ladder[s[4]], {}).setdefault(s[5], []).append(s[2] - s[1])
    slopes = [loglog_slope([(size, statistics.median(ts)) for size, ts in by_size.items()])
              for by_size in times.values() if len(by_size) >= 2]
    return statistics.median(slopes) if slopes else 0.0


def layer_metrics(spans, rounds, ladder_families):
    """Per-layer counts and self times, each per round of the workload's mix."""
    own = self_times(spans)
    ms = {}
    calls = {}
    sizes = {}
    for s, t in zip(spans, own):
        ms[s[0]] = ms.get(s[0], 0.0) + t * 1e3
        calls[s[0]] = calls.get(s[0], 0) + 1
        sizes[s[0]] = sizes.get(s[0], 0) + (s[5] or 0)
    family = ("families.eval_poly", "families.eval_poly_sequence")
    top_family_calls = sum(1 for s in spans if s[0] in family
                           and not (s[3] is not None and spans[s[3]][0] in family))

    def per_round(value):
        return value / rounds

    return {
        "families.eval_calls": per_round(top_family_calls),
        "families.eval_ms": per_round(sum(ms.get(n, 0.0) for n in family)),
        "families.degrees_stepped": per_round(sizes.get("families.eval_poly_sequence", 0)),
        "solver.resolve_ms": per_round(ms.get("solver.resolve", 0.0)),
        "solver.coeffs_ms": per_round(ms.get("solver.coeffs", 0.0)),
        "solver.coeffs_count": per_round(sizes.get("solver.coeffs", 0)),
        "solver.coeffs_exponent": ladder_exponent(spans, "solver.coeffs", ladder_families),
        "solver.recursion_ms": per_round(ms.get("solver.recursion", 0.0)),
        "solver.eval_series_ms": per_round(ms.get("solver.eval_series", 0.0)),
        "solver.jacobi_ms": per_round(ms.get("solver.jacobi", 0.0)),
        "solver.eigh_ms": per_round(ms.get("solver.eigh", 0.0)),
        "basis.block_ms": per_round(ms.get("basis.block", 0.0)),
        "basis.block_cells": per_round(sizes.get("basis.block", 0)),
        "basis.deriv_calls": per_round(calls.get("basis.deriv", 0)),
        "basis.deriv_ms": per_round(ms.get("basis.deriv", 0.0)),
        "basis.deriv_cells": per_round(sizes.get("basis.deriv", 0)),
        "verify.residual_ms": per_round(ms.get("verify.residual", 0.0)),
        "verify.sweep_ms": per_round(ms.get("verify.sweep", 0.0) + ms.get("verify.check", 0.0)),
        "verify.degrees_checked": per_round(calls.get("verify.check", 0)),
        "verify.sweep_exponent": ladder_exponent(spans, "verify.sweep", ladder_families),
        "ode.apply_D_calls": per_round(calls.get("ode.apply_D", 0)),
        "ode.apply_D_ms": per_round(ms.get("ode.apply_D", 0.0)),
        "quantum.well_ms": per_round(ms.get("quantum.well", 0.0)),
        "quantum.fd_ms": per_round(ms.get("quantum.fd", 0.0)),
        "quantum.fd_points": per_round(sizes.get("quantum.fd", 0)),
        "quantum.oscillator_ms": per_round(ms.get("quantum.oscillator", 0.0)),
    }
