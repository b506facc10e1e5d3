"""Operator-action verification: the tridiagonal identity and ODE residuals.

This module is the decisive validator for every printed coefficient set:
it applies the differential operator to actual basis functions and compares
against omega(x) [u_n phi_n + s_{n-1} phi_{n-1} + t_n phi_{n+1}].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, basis_block, basis_derivatives, basis_value, series_sum
from .errors import DomainError, SeriesOverflow
from .ode import apply_D_values, stencil_derivatives
from .solver import ClassSolution, SeriesSolution, recursion_coeffs

__all__ = ["GridSpec", "CheckReport", "default_grid", "tridiagonality_check",
           "tridiagonality_sweep", "residual", "derivative_crosscheck"]

_SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    count: int = 64
    spacing: str = "logarithmic"

    def __post_init__(self):
        if not (0 < self.x_min < self.x_max):
            raise DomainError("grid needs 0 < x_min < x_max")
        if self.count < 2:
            raise DomainError("grid needs count >= 2")
        if self.spacing not in ("linear", "logarithmic"):
            raise DomainError(f"unknown spacing {self.spacing!r}")

    def points(self):
        if self.spacing == "linear":
            return np.linspace(self.x_min, self.x_max, self.count)
        return np.geomspace(self.x_min, self.x_max, self.count)


def default_grid() -> GridSpec:
    """Logarithmic, 64 points on [0.05, 20]: spans the e^{-beta/x} boundary
    layer and the polynomial-growth region."""
    return GridSpec(0.05, 20.0, 64, "logarithmic")


@dataclass(frozen=True)
class CheckReport:
    max_abs_deviation: float
    max_rel_deviation: float
    argmax_x: float
    scale: float
    tolerance: float
    passed: bool
    per_n: dict = field(default_factory=dict)
    notes: tuple = ()

    def __bool__(self):
        return self.passed


def tridiagonality_check(sol: ClassSolution, n: int, grid: GridSpec | None = None,
                         tol: float = 1e-8) -> CheckReport:
    """Verify D phi_n = omega(x) [u_n phi_n + s_{n-1} phi_{n-1} + t_n phi_{n+1}].

    At n = 0 the lower neighbour is absent (boundary convention f_{-1} = 0).
    Relative deviation is scaled by max |D phi_n| over the grid.
    """
    return tridiagonality_sweep(sol, [n], grid, tol)


def tridiagonality_sweep(sol: ClassSolution, n_values, grid: GridSpec | None = None,
                         tol: float = 1e-8) -> CheckReport:
    """tridiagonality_check over several degrees, worst case reported.

    Every degree is checked from one basis block for degrees 0..max + 1, so
    the cost is linear in the top degree.  Errors are those of checking the
    degrees one at a time in the order given.
    """
    degrees = list(n_values)
    if not degrees:
        raise DomainError("a tridiagonality sweep needs at least one degree")
    x = (grid or default_grid()).points()
    rows = []
    try:
        for n in degrees:
            u_n, _, t_n = recursion_coeffs(sol, n)
            rows.append((n, u_n, t_n, recursion_coeffs(sol, n - 1)[1] if n > 0 else None))
    finally:
        # a basis failure of an earlier degree (no phi_{n_max+1}, an
        # overflowing prefactor) precedes a later degree's coefficient error
        if rows:
            vals, der1, der2 = basis_block(sol.basis, max(r[0] for r in rows) + 1, x)
    omega = sol.omega(x)
    checks = {}
    for n, u_n, t_n, s_prev in rows:
        lhs = apply_D_values(sol.ode, vals[n], der1[n], der2[n], x)
        rhs = u_n * vals[n] + t_n * vals[n + 1]
        if n > 0:
            rhs = rhs + s_prev * vals[n - 1]
        dev = np.abs(lhs - omega * rhs)
        scale = max(float(np.max(np.abs(lhs))), _SCALE_FLOOR)
        i = int(np.argmax(dev))
        checks[n] = (float(dev[i]), float(dev[i]) / scale, float(x[i]), scale)
    dev, rel, argmax, scale = max(checks.values(), key=lambda c: c[1])
    return CheckReport(max_abs_deviation=dev, max_rel_deviation=rel, argmax_x=argmax,
                       scale=scale, tolerance=tol,
                       passed=all(c[1] <= tol for c in checks.values()),
                       per_n={n: c[1] for n, c in checks.items()}, notes=tuple(sol.notes))


def _residual_core(ode, coeffs, block, x):
    """Residual of sum_n coeffs[n] phi_n; `block` may hold more degrees than used."""
    with np.errstate(over="ignore", invalid="ignore"):
        y, y1, y2 = (series_sum(coeffs, rows) for rows in block)
        dvals = np.abs(apply_D_values(ode, y, y1, y2, x))
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dvals))):
        raise SeriesOverflow(
            f"the series truncated at N={len(coeffs) - 1} overflows double "
            "precision on this grid")
    scale = max(float(np.max(np.abs(y))), _SCALE_FLOOR)
    i = int(np.argmax(dvals))
    return float(dvals[i]), float(dvals[i]) / scale, float(x[i]), scale


def residual(series: SeriesSolution, grid: GridSpec | None = None,
             tol: float | None = None) -> CheckReport:
    """max |D y_N| over the grid, scaled by max |y_N|.

    One basis block for degrees 0..N serves both sums: for a series attached
    to an infinite class the report also carries the half-truncation
    residual (per_n keys N and N//2), summed over the block's first N//2 + 1
    degrees, so decay with N is visible.  The cost is O(N) in the degree.
    A series with all-zero coefficients is flagged degenerate; one that
    overflows double precision on the grid raises SeriesOverflow.
    """
    x = (grid or default_grid()).points()
    coeffs = np.asarray(series.coeffs, dtype=float)
    if np.all(coeffs == 0.0):
        return CheckReport(0.0, 0.0, float(x[0]), 0.0, tol or 0.0, True,
                           per_n={}, notes=("degenerate: all coefficients zero",))
    block = basis_block(series.basis, series.order, x)
    dev, rel, argmax, scale = _residual_core(series.ode, coeffs, block, x)
    per_n = {series.order: rel}
    notes = []
    infinite = series.solution is not None and series.solution.n_max is None
    if infinite and series.order >= 2:
        half = series.order // 2
        _, rel_half, _, _ = _residual_core(series.ode, coeffs[:half + 1], block, x)
        per_n[half] = rel_half
        notes.append("decaying with N" if rel < rel_half else "not decaying with N")
    passed = True if tol is None else rel <= tol
    return CheckReport(max_abs_deviation=dev, max_rel_deviation=rel,
                       argmax_x=argmax, scale=scale, tolerance=tol or math.nan,
                       passed=passed, per_n=per_n, notes=tuple(notes))


def derivative_crosscheck(basis: BasisSpec, n: int, x) -> float:
    """Relative gap between analytic and stencil derivatives of phi_n at x."""
    x = np.asarray(x, dtype=float)
    _, d1, d2 = basis_derivatives(basis, n, x)
    _, s1, s2 = stencil_derivatives(lambda xx: basis_value(basis, n, xx), x)
    g1 = np.max(np.abs(d1 - s1) / np.maximum(1.0, np.abs(d1)))
    g2 = np.max(np.abs(d2 - s2) / np.maximum(1.0, np.abs(d2)))
    return float(max(g1, g2))
