"""The six-parameter differential operator and its numeric application."""
from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import DerivativeUnavailable

__all__ = ["OdeParams", "apply_D", "apply_D_values", "stencil_derivatives"]


class OdeParams(Record):
    """Coefficients of  x^2 y'' + (a x + b) y' + (A+ x + A-/x + A1/x^2 - A0) y = 0."""
    a: float
    b: float
    A_plus: float
    A_minus: float
    A_one: float
    A_zero: float

    def __post_init__(self):
        for name in ("a", "b", "A_plus", "A_minus", "A_one", "A_zero"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"OdeParams.{name} must be finite")


def apply_D_values(params: OdeParams, f, f1, f2, x):
    """Operator applied to known (f, f', f'') values at x > 0."""
    x = np.asarray(x, dtype=float)
    return (x ** 2 * f2 + (params.a * x + params.b) * f1
            + (params.A_plus * x + params.A_minus / x
               + params.A_one / x ** 2 - params.A_zero) * f)


def stencil_derivatives(f, x, h=None):
    """(f, f', f'') by 5-point central differences with one Richardson level.

    First derivative at step h = 1e-5 * max(1, x); the second derivative uses
    a larger step (1e-3 scale) since its roundoff floor is eps/h^2.  Fragile
    near x -> 0; intended as a cross-check of analytic derivatives only.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * np.maximum(1.0, x)
    h2 = 100.0 * h

    def first(step):
        fm2, fm1 = f(x - 2 * step), f(x - step)
        fp1, fp2 = f(x + step), f(x + 2 * step)
        return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * step)

    def second(step):
        fm2, fm1 = f(x - 2 * step), f(x - step)
        fp1, fp2 = f(x + step), f(x + 2 * step)
        return (-fm2 + 16 * fm1 - 30 * f(x) + 16 * fp1 - fp2) / (12 * step ** 2)

    # 4th-order stencils: one Richardson step removes the h^4 error term
    d1 = (16 * first(h / 2) - first(h)) / 15
    d2 = (16 * second(h2 / 2) - second(h2)) / 15
    return f(x), d1, d2


def apply_D(params: OdeParams, f, x, derivatives=None):
    """Apply the operator to a function handle at x > 0.

    `f` either returns a (value, first, second) triple, or plain values in
    which case stencil derivatives are used (or pass them via `derivatives`).
    """
    if derivatives is not None:
        v, d1, d2 = derivatives
        return apply_D_values(params, v, d1, d2, x)
    if not callable(f):
        raise DerivativeUnavailable("f is not callable and no derivatives were given")
    probe = f(np.asarray(x, dtype=float))
    if isinstance(probe, tuple) and len(probe) == 3:
        v, d1, d2 = probe
        return apply_D_values(params, v, d1, d2, x)
    v, d1, d2 = stencil_derivatives(f, x)
    return apply_D_values(params, v, d1, d2, x)
