"""The basis specification, in a module of its own: classifying and resolving
read it without loading numpy, which only the basis functions need."""
from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError, _check_integer, _count_text


def _bessel_top(mu):
    """-mu - 1/2 - 1e-9: a bessel basis has degrees 0..floor of it, so at least one
    exactly where it is >= 0."""
    return -mu - 0.5 - 1e-9


class BasisSpec(Record):
    """Prefactor exponents plus polynomial parameters for one basis kind.

    bessel kind uses (alpha, beta, mu) and is finite: mu < -n_max - 1/2.
    laguerre kind uses (exponent, beta, nu); order of the Laguerre is 2 nu.
    Every field given is a finite float.
    """
    kind: str
    beta: float
    alpha: float | None = None
    mu: float | None = None
    exponent: float | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in ("bessel", "laguerre"):
            raise DomainError(f"unknown basis kind {self.kind!r}")
        if self.kind == "bessel" and (self.alpha is None or self.mu is None):
            raise DomainError("bessel basis needs alpha and mu")
        if self.kind == "laguerre" and (self.exponent is None or self.nu is None):
            raise DomainError("laguerre basis needs exponent and nu")
        for name in self._fields[1:]:  # every field but kind
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"BasisSpec.{name} must be finite (got {value})")

    @property
    def n_max(self):
        if self.kind == "bessel":
            return int(math.floor(_bessel_top(self.mu)))
        return None

    def check_degree(self, n, name="n"):
        """DomainError unless n is a degree of this basis: an integer, 0 <= n <= n_max."""
        if type(n) is not int:  # the cheap test first: the sweeps check every degree
            _check_integer(n, name)
        if n < 0:
            raise DomainError(f"{name} must be nonnegative")
        if self.kind == "bessel" and n > self.n_max:
            raise DomainError(f"{name}={n} exceeds the basis bound "
                              f"n_max={_count_text(self.n_max)} (mu={self.mu})")

    def power(self):
        return self.alpha if self.kind == "bessel" else self.exponent
