"""Square-integrable basis elements and their analytic derivatives.

Two kinds are used by the solution classes:

- bessel:   phi_n(x) = x^alpha e^{-beta/x} J_n^mu(x)          (G_n = 1)
- laguerre: phi_n(x) = x^exponent e^{-beta/x} L_n^{2nu}(1/x)   (g_n = 1)

Polynomial derivatives come from the term-by-term differentiated upward
recursions (seeds P_0' = P_0'' = 0), the prefactor from the product rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesOverflow

__all__ = ["BasisSpec", "basis_derivatives", "basis_value", "basis_block",
           "bessel_poly_derivs", "laguerre_poly_derivs"]

_LOG_OVERFLOW = 700.0  # exp argument ceiling for double precision


@dataclass(frozen=True)
class BasisSpec:
    """Prefactor exponents plus polynomial parameters for one basis kind.

    bessel kind uses (alpha, beta, mu) and is finite: mu < -n_max - 1/2.
    laguerre kind uses (exponent, beta, nu); order of the Laguerre is 2 nu.
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

    @property
    def n_max(self):
        if self.kind == "bessel":
            return int(math.floor(-self.mu - 0.5 - 1e-9))
        return None

    def power(self):
        return self.alpha if self.kind == "bessel" else self.exponent


def bessel_poly_derivs(mu: float, n: int, x):
    """(J_k, J_k', J_k'') for k = 0..n via the differentiated recursion."""
    x = np.asarray(x, dtype=float)
    p = [np.ones_like(x)]
    d1 = [np.zeros_like(x)]
    d2 = [np.zeros_like(x)]
    for m in range(n):
        k = (m + mu + 1) * (2 * m + 2 * mu + 1) / (m + 2 * mu + 1)
        a = k * mu / ((m + mu) * (m + mu + 1))
        b = 2.0 * k
        c = k * (m / ((m + mu) * (2 * m + 2 * mu + 1))) if m else 0.0
        pm = p[m - 1] if m else 0.0
        pm1 = d1[m - 1] if m else 0.0
        pm2 = d2[m - 1] if m else 0.0
        p.append((a + b * x) * p[m] + c * pm)
        d1.append(b * p[m] + (a + b * x) * d1[m] + c * pm1)
        d2.append(2 * b * d1[m] + (a + b * x) * d2[m] + c * pm2)
    return p, d1, d2


def laguerre_poly_derivs(alpha: float, n: int, u):
    """(L_k^alpha, dL/du, d2L/du2) for k = 0..n at argument u."""
    u = np.asarray(u, dtype=float)
    p = [np.ones_like(u)]
    d1 = [np.zeros_like(u)]
    d2 = [np.zeros_like(u)]
    for m in range(n):
        pm = p[m - 1] if m else 0.0
        pm1 = d1[m - 1] if m else 0.0
        pm2 = d2[m - 1] if m else 0.0
        w = 2 * m + alpha + 1 - u
        p.append((w * p[m] - (m + alpha) * pm) / (m + 1))
        d1.append((w * d1[m] - p[m] - (m + alpha) * pm1) / (m + 1))
        d2.append((w * d2[m] - 2 * d1[m] - (m + alpha) * pm2) / (m + 1))
    return p, d1, d2


def _prefactor(power: float, beta: float, x):
    logw = power * np.log(x) - beta / x
    if np.any(logw > _LOG_OVERFLOW):
        raise SeriesOverflow(
            f"x^{power} e^(-{beta}/x) overflows double precision on this grid")
    w = np.exp(logw)
    lw1 = power / x + beta / x ** 2              # w'/w
    lw2 = lw1 ** 2 - power / x ** 2 - 2 * beta / x ** 3  # w''/w
    return w, lw1, lw2


def _poly_triples(basis: BasisSpec, n: int, x):
    """Polynomial factor (value, d/dx, d2/dx2) for degrees 0..n at x."""
    if basis.kind == "bessel":
        if n > basis.n_max:
            raise DomainError(
                f"degree {n} exceeds n_max={basis.n_max} (mu={basis.mu})")
        return bessel_poly_derivs(basis.mu, n, x)
    u = 1.0 / np.asarray(x, dtype=float)
    p, du, duu = laguerre_poly_derivs(2 * basis.nu, n, u)
    # d/dx L(1/x) = -u^2 L_u ;  d2/dx2 = u^4 L_uu + 2 u^3 L_u
    d1 = [-u ** 2 * g for g in du]
    d2 = [u ** 4 * g2 + 2 * u ** 3 * g1 for g1, g2 in zip(du, duu)]
    return p, d1, d2


def basis_block(basis: BasisSpec, n: int, x):
    """(phi_k, phi_k', phi_k'') for all degrees k = 0..n at once.

    An overflowing prefactor raises SeriesOverflow before any degree check.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("basis functions are defined for x > 0")
    w, lw1, lw2 = _prefactor(basis.power(), basis.beta, x)
    # a polynomial factor that overflows leaves inf/nan rows without a warning;
    # the callers that sum or compare rows check them for finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        p, d1, d2 = _poly_triples(basis, n, x)
        vals = [w * pk for pk in p]
        der1 = [w * (lw1 * pk + pk1) for pk, pk1 in zip(p, d1)]
        der2 = [w * (lw2 * pk + 2 * lw1 * pk1 + pk2) for pk, pk1, pk2 in zip(p, d1, d2)]
    return vals, der1, der2


def basis_derivatives(basis: BasisSpec, n: int, x):
    """(phi_n, phi_n', phi_n'') at x > 0: row n of basis_block."""
    vals, der1, der2 = basis_block(basis, n, x)
    return vals[n], der1[n], der2[n]


def basis_value(basis: BasisSpec, n: int, x):
    """phi_n(x): row n of basis_block's values."""
    return basis_block(basis, n, x)[0][n]
