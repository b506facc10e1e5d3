"""Square-integrable basis elements and their analytic derivatives.

Two kinds are used by the solution classes:

- bessel:   phi_n(x) = x^alpha e^{-beta/x} J_n^mu(x)          (G_n = 1)
- laguerre: phi_n(x) = x^exponent e^{-beta/x} L_n^{2nu}(1/x)   (g_n = 1)

Polynomial derivatives come from the term-by-term differentiated upward
recursions (seeds P_0' = P_0'' = 0), the prefactor from the product rule.
`basis_block` gives (n+1,) + x.shape arrays, row k for degree k, in one pass
(phi alone with derivs=False), bit for bit as the loops in tests/test_basis.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesOverflow

__all__ = ["BasisSpec", "basis_derivatives", "basis_value", "basis_block", "series_sum"]

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


def _differentiated_rows(n, shape, derivs, step):
    """(P, P', P'') or (P,) for k = 0..n: P_{k+1} = (A_k P_k + C_k P_{k-1}) / d_k, P_0 = 1,
    (A_k, beta_k, C_k, d_k) = step(k), A_k = alpha_k + beta_k t; P' and P'' add beta_k P_k
    and 2 beta_k P'_k.  Each degree's values lie together; row 0 is degree -1, all zeros."""
    rows = np.zeros((n + 2, 3 if derivs else 1) + shape)
    rows[1, 0] = 1.0
    lift = np.array([1.0, 2.0]).reshape((2,) + (1,) * len(shape))
    for m in range(n):
        A, beta, C, d = step(m)
        new, prev = rows[m + 2], rows[m + 1]
        np.multiply(A, prev, out=new)
        if derivs:
            new[1:] += beta * lift * prev[:2]
        new += C * rows[m]
        new /= d
    return np.moveaxis(rows[1:], 1, 0)


def _prefactor(power: float, beta: float, x):
    logw = power * np.log(x) - beta / x
    if np.any(logw > _LOG_OVERFLOW):
        raise SeriesOverflow(
            f"x^{power} e^(-{beta}/x) overflows double precision on this grid")
    w = np.exp(logw)
    lw1 = power / x + beta / x ** 2              # w'/w
    lw2 = lw1 ** 2 - power / x ** 2 - 2 * beta / x ** 3  # w''/w
    return w, lw1, lw2


def _poly_rows(basis: BasisSpec, n: int, x, derivs):
    """Polynomial factor (value, d/dx, d2/dx2) for degrees 0..n: J^mu(x) or L^{2nu}(1/x)."""
    if n < 0:
        raise DomainError(f"degree {n} is negative")
    if basis.kind == "bessel":
        if n > basis.n_max:
            raise DomainError(f"degree {n} exceeds n_max={basis.n_max} (mu={basis.mu})")

        def step(m, mu=basis.mu):
            k = (m + mu + 1) * (2 * m + 2 * mu + 1) / (m + 2 * mu + 1)
            a = k * mu / ((m + mu) * (m + mu + 1))
            b = 2.0 * k
            c = k * (m / ((m + mu) * (2 * m + 2 * mu + 1))) if m else 0.0
            return a + b * x, b, c, 1
        return _differentiated_rows(n, x.shape, derivs, step)
    u, alpha = 1.0 / x, 2 * basis.nu
    rows = _differentiated_rows(
        n, x.shape, derivs, lambda m: (2 * m + alpha + 1 - u, -1.0, -(m + alpha), m + 1))
    if derivs:
        # d/dx L(1/x) = -u^2 L_u ;  d2/dx2 = u^4 L_uu + 2 u^3 L_u
        _, du, duu = rows
        duu *= u ** 4
        duu += 2 * u ** 3 * du
        du *= -u ** 2
    return rows


def basis_block(basis: BasisSpec, n: int, x, derivs=True):
    """(phi_k, phi_k', phi_k'') for k = 0..n, each (n+1,) + x.shape; without
    `derivs` the last two are None.  An overflowing prefactor raises
    SeriesOverflow before any degree check."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("basis functions are defined for x > 0")
    w, lw1, lw2 = _prefactor(basis.power(), basis.beta, x)
    # a polynomial factor that overflows leaves inf/nan rows without a warning;
    # the callers that sum or compare rows check them for finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _poly_rows(basis, n, x, derivs)
        if derivs:
            # product rule, in place: phi' = w (lw1 P + P'), phi'' = w (lw2 P + 2 lw1 P' + P'')
            p, d1, d2 = rows
            d2 += lw2 * p + 2 * lw1 * d1
            d1 += lw1 * p
        rows *= w
    return (rows[0], rows[1], rows[2]) if derivs else (rows[0], None, None)


def series_sum(coeffs, rows):
    """sum_k coeffs[k] rows[k], bit for bit as Python's sum(): cumsum adds
    strictly in order (.sum(axis=0) may pair terms), and the final + 0.0
    turns an all -0.0 sum into sum()'s +0.0, as its int 0 start does."""
    terms = np.reshape(coeffs, (-1,) + (1,) * (rows.ndim - 1)) * rows[:len(coeffs)]
    return np.cumsum(terms, axis=0, out=terms)[-1] + 0.0


def basis_derivatives(basis: BasisSpec, n: int, x):
    """(phi_n, phi_n', phi_n'') at x > 0: row n of basis_block."""
    return tuple(rows[n] for rows in basis_block(basis, n, x))


def basis_value(basis: BasisSpec, n: int, x):
    """phi_n(x): row n of basis_block's values."""
    return basis_block(basis, n, x, derivs=False)[0][n]
