"""The six-parameter differential operator and its numeric application."""
from __future__ import annotations

import math

from ._record import Record

__all__ = ["OdeParams", "apply_D_values"]


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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"OdeParams.{name} must be finite")


def apply_D_values(params: OdeParams, f, f1, f2, x):
    """Operator applied to known (f, f', f'') values at x > 0."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    return (x ** 2 * f2 + (params.a * x + params.b) * f1
            + (params.A_plus * x + params.A_minus / x
               + params.A_one / x ** 2 - params.A_zero) * f)

