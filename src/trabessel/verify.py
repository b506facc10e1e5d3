"""Operator-action verification: the tridiagonal identity and ODE residuals.

This module is the decisive validator for every printed coefficient set:
it applies the differential operator to actual basis functions and compares
against omega(x) [u_n phi_n + s_{n-1} phi_{n-1} + t_n phi_{n+1}].
"""
from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .basis import basis_block, series_derivatives
from .errors import ConstraintViolation, DomainError, SeriesOverflow
from .grid import GridSpec, default_grid
from .ode import apply_D_values
from .solver import ClassSolution, SeriesSolution, _coefficients

__all__ = ["GridSpec", "CheckReport", "default_grid", "tridiagonality_check",
           "tridiagonality_sweep", "residual"]

_SCALE_FLOOR = 1e-300


def _check_tol(tol):
    if not tol >= 0:  # NaN too: no deviation would pass it
        raise ConstraintViolation("tol >= 0", got=tol)


class CheckReport(Record):
    max_abs_deviation: float
    max_rel_deviation: float
    argmax_x: float
    scale: float
    tolerance: float
    passed: bool
    per_n: dict = {}
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

    First every degree's coefficients, in the order given, each distinct degree
    evaluated once; then one basis block for degrees 0..max + 1.  So the cost is
    linear in the top degree, and a coefficient error comes before a basis error.
    """
    _check_tol(tol)
    degrees = list(n_values)
    if not degrees:
        raise DomainError("a tridiagonality sweep needs at least one degree")
    x = (grid or default_grid()).points()
    rows = []
    coeffs = _coefficients(sol)
    for n in degrees:
        u_n, _, t_n = coeffs(n)
        rows.append((n, u_n, t_n, coeffs(n - 1)[1] if n > 0 else 0.0))
    vals, der1, der2 = basis_block(sol.basis, max(degrees) + 1, x)
    ns, u, t, s_prev = (np.array(c) for c in zip(*rows))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as a non-finite check
        lhs = apply_D_values(sol.ode, vals[ns], der1[ns], der2[ns], x)
        rhs = u[:, None] * vals[ns] + t[:, None] * vals[ns + 1]
        lower = ns > 0  # no s_{-1} term at n = 0: + 0 * phi_0 would turn -0.0 into +0.0
        rhs[lower] += s_prev[lower, None] * vals[ns[lower] - 1]
        dev = np.abs(lhs - sol.omega(x) * rhs)
    i = dev.argmax(axis=1)
    checks = {}
    for (n, *_), d, x_i, peak in zip(rows, dev[np.arange(len(ns)), i].tolist(), x[i].tolist(),
                                     np.abs(lhs).max(axis=1).tolist()):
        scale = max(peak, _SCALE_FLOOR)
        checks[n] = (d, d / scale, x_i, scale)
    # a NaN degree is the worst: max alone passes over it, as NaN compares false
    dev, rel, argmax, scale = max(checks.values(), key=lambda c: (math.isnan(c[1]), c[1]))
    return CheckReport(max_abs_deviation=dev, max_rel_deviation=rel, argmax_x=argmax,
                       scale=scale, tolerance=tol,
                       passed=all(c[1] <= tol for c in checks.values()),
                       per_n={n: c[1] for n, c in checks.items()}, notes=tuple(sol.notes))


def _residual_core(ode, y, y1, y2, N, x):
    """Residual of y_N = sum_{n<=N} coeffs[n] phi_n from its values and derivatives."""
    with np.errstate(over="ignore", invalid="ignore"):
        dvals = np.abs(apply_D_values(ode, y, y1, y2, x))
    if not (np.isfinite(y).all() and np.isfinite(dvals).all()):
        raise SeriesOverflow(
            f"the series truncated at N={N} overflows double precision on this grid")
    scale = max(float(np.abs(y).max()), _SCALE_FLOOR)
    i = int(dvals.argmax())
    return float(dvals[i]), float(dvals[i]) / scale, float(x[i]), scale


def residual(series: SeriesSolution, grid: GridSpec | None = None,
             tol: float | None = None) -> CheckReport:
    """max |D y_N| over the grid, scaled by max |y_N|.

    One call of basis.series_derivatives serves both truncations: for a series
    attached to an infinite class the report also carries the half-truncation
    residual (per_n keys N and N//2), so decay with N is visible.  A Laguerre
    series takes y' and y'' from its basis values alone, by the structure relation
    and the Laguerre equation; a Bessel series sums the basis block's derivative
    rows.  The cost is O(N) in the degree.
    A series with all-zero coefficients is flagged degenerate; one that
    overflows double precision on the grid raises SeriesOverflow.
    """
    if tol is not None:
        _check_tol(tol)
    x = (grid or default_grid()).points()
    coeffs = np.asarray(series.coeffs, dtype=float)
    if (coeffs == 0.0).all():
        return CheckReport(0.0, 0.0, float(x[0]), 0.0, tol or 0.0, True,
                           per_n={}, notes=("degenerate: all coefficients zero",))
    N = series.order
    infinite = series.solution is not None and series.solution.n_max is None
    orders = (N, N // 2) if infinite and N >= 2 else (N,)
    triples = series_derivatives(series.basis, coeffs, x, orders)
    dev, rel, argmax, scale = _residual_core(series.ode, *triples[0], N, x)
    per_n = {N: rel}
    notes = []
    if len(orders) == 2:
        _, rel_half, _, _ = _residual_core(series.ode, *triples[1], orders[1], x)
        per_n[orders[1]] = rel_half
        notes.append("decaying with N" if rel < rel_half else "not decaying with N")
    passed = True if tol is None else rel <= tol
    return CheckReport(max_abs_deviation=dev, max_rel_deviation=rel,
                       argmax_x=argmax, scale=scale, tolerance=tol or math.nan,
                       passed=passed, per_n=per_n, notes=tuple(notes))
