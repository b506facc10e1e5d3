"""Evaluation grids on x > 0: the points a series is printed on and the
operator checks and residuals are read at."""
from __future__ import annotations

import functools

import numpy as np

from ._record import Record
from .errors import DomainError, _check_integer

__all__ = ["GridSpec", "default_grid"]


class GridSpec(Record):
    x_min: float
    x_max: float
    count: int = 64
    spacing: str = "logarithmic"

    def __post_init__(self):
        if not (0 < self.x_min < self.x_max):
            raise DomainError("grid needs 0 < x_min < x_max")
        _check_integer(self.count, "grid count")
        if self.count < 2:
            raise DomainError("grid needs count >= 2")
        if self.spacing not in ("linear", "logarithmic"):
            raise DomainError(f"unknown spacing {self.spacing!r}")

    def points(self):
        """The grid points, a new writable array on each call."""
        return _points(self.x_min, self.x_max, self.count, self.spacing).copy()


@functools.lru_cache(maxsize=64, typed=True)
def _points(x_min, x_max, count, spacing):
    """Each spec value's points, computed once; typed, so each key has one result."""
    space = np.linspace if spacing == "linear" else np.geomspace
    points = space(x_min, x_max, count)
    points.flags.writeable = False  # handed out only as copies
    return points


_DEFAULT_GRID = GridSpec(0.05, 20.0, 64, "logarithmic")


def default_grid() -> GridSpec:
    """Logarithmic, 64 points on [0.05, 20]: spans the e^{-beta/x} boundary
    layer and the polynomial-growth region."""
    return _DEFAULT_GRID
