"""Square-integrable basis elements and their analytic derivatives.

Two kinds are used by the solution classes:

- bessel:   phi_n(x) = x^alpha e^{-beta/x} J_n^mu(x)          (G_n = 1)
- laguerre: phi_n(x) = x^exponent e^{-beta/x} L_n^{2nu}(1/x)   (g_n = 1)

Polynomial derivatives come from the term-by-term differentiated upward recursions
(seeds P_0' = P_0'' = 0), then one pass applies the chain rule (laguerre) and the product rule.
Coefficient rows for all degrees come first, by the scalar recursion's float operations
in its order (no denominator vanishes for m < n <= n_max); the loop over degrees then
makes 3 same-shape ufunc calls per degree for values (2 where d_m = 1, as for bessel),
5 with derivatives (4): one multiply forms all of a degree's products.
`basis_block` gives (n+1,) + x.shape arrays, row k for degree k, in one pass
(phi alone with derivs=False), bit for bit as the loops in tests/test_basis.py.
`series_derivatives` gives (y, y', y'') of a truncated series: from the derivative
block for bessel, from the values alone for laguerre (the structure relation and
the Laguerre equation give L' and L'' from L_n and L_{n-1}).
"""
from __future__ import annotations

from itertools import repeat

import numpy as np

from ._basisspec import BasisSpec
from .errors import DomainError, SeriesOverflow

__all__ = ["BasisSpec", "basis_derivatives", "basis_value", "basis_block", "series_sum",
           "series_derivatives"]

_LOG_OVERFLOW = 700.0  # exp argument ceiling for double precision
_BLOCK = 64  # degrees per pass through scratch: 64 x 2k x grid operand rows, 2 x 64 x grid terms


def _differentiated_rows(alpha, beta, t, C, d, derivs):
    """(P, P', P'') or (P,) for k = 0..n: P_{m+1} = (A_m P_m + C_m P_{m-1}) / d_m, P_0 = 1,
    A_m = alpha_m + beta_m t, from rows over m < n of alpha, beta, C and d, each
    (n,) + (1,) * t.ndim.  P' and P'' add beta_m P_m and 2 beta_m P'_m.  Each degree's
    rows lie together; row 0 is degree -1, all zeros.

    Degree m's k rows follow degree m-1's, so the pair block rows[m:m+2] times the
    operand rows [C_m]*k + [A_m]*k forms C_m P_{m-1} and A_m P_m in one multiply; the
    lift [beta_m P_m, 2 beta_m P'_m] is added to A_m (P', P''), then C_m P_{m-1}, as
    (A_m P + lift) + C_m P_{m-1}.  Operand rows are built _BLOCK degrees at a time, so
    no (n,) + t.shape array is held besides the rows."""
    n, k, shape = len(alpha), 3 if derivs else 1, np.shape(t)
    rows = np.zeros((n + 2, k) + shape)
    rows[1, 0] = 1.0
    # pairs[m] is rows[m:m+2]: one contiguous (2, k) + shape block per degree
    pairs = np.ndarray((n + 1, 2, k) + shape, float, rows, 0, (rows.strides[0],) + rows.strides)
    ops = np.empty((min(n, _BLOCK), 2, k) + shape)
    A = np.empty((len(ops),) + shape)
    prod = np.empty((2, k) + shape)
    lower, upper = prod
    derived = upper[1:]  # A_m (P', P'')
    if derivs:
        lifts = np.empty((len(ops), 2) + shape)
        lifted = np.empty((2,) + shape)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        np.add(alpha[lo:hi], np.multiply(beta[lo:hi], t, out=A[:hi - lo]), out=A[:hi - lo])
        ops[:hi - lo, 1] = A[:hi - lo, None]
        ops[:hi - lo, 0] = C[lo:hi, None]
        if derivs:  # [beta_m, 2 beta_m] over the grid, by assignment: no ufunc buffers
            lifts[:hi - lo, 0] = beta[lo:hi]
            lifts[:hi - lo, 1] = 2.0 * beta[lo:hi]
        lift_rows = zip(lifts, rows[lo + 1:hi + 1, :2]) if derivs else repeat(None)
        divisors = d[lo:hi].ravel().tolist()  # Python floats: numpy takes them faster
        for op, pair, new, d_m, lift in zip(ops, pairs[lo:hi], rows[lo + 2:hi + 2],
                                            divisors, lift_rows):
            np.multiply(op, pair, out=prod)
            if derivs:
                np.add(derived, np.multiply(*lift, out=lifted), out=derived)
            np.add(upper, lower, out=new)
            if d_m != 1.0:  # x / 1 is exact
                np.divide(new, d_m, out=new)
    return rows[1:].swapaxes(0, 1)


def _prefactor(power: float, beta: float, x):
    logw = power * np.log(x) - beta / x
    if (logw > _LOG_OVERFLOW).any():
        raise SeriesOverflow(
            f"x^{power} e^(-{beta}/x) overflows double precision on this grid")
    return np.exp(logw)


def _log_derivatives(power: float, beta: float, x):
    """(w'/w, w''/w) of the prefactor w = x^power e^(-beta/x)."""
    lw1 = power / x + beta / x ** 2
    return lw1, lw1 ** 2 - power / x ** 2 - 2 * beta / x ** 3


def _poly_rows(basis: BasisSpec, n: int, x, derivs):
    """Polynomial rows (P, P', P'') for degrees 0..n: J^mu(x), or L^{2nu}(u) in u = 1/x."""
    basis.check_degree(n, "degree")
    m = np.arange(n, dtype=float).reshape((-1,) + (1,) * x.ndim)
    if basis.kind == "bessel":
        mu = basis.mu
        k = (m + mu + 1) * (2 * m + 2 * mu + 1) / (m + 2 * mu + 1)
        a = k * mu / ((m + mu) * (m + mu + 1))
        b = 2.0 * k
        c = k * (m / ((m + mu) * (2 * m + 2 * mu + 1)))
        c[:1] = 0.0
        return _differentiated_rows(a, b, x, c, np.ones_like(m), derivs)
    u, alpha = 1.0 / x, 2 * basis.nu
    # 2m + alpha + 1 - u, as (2m + alpha + 1) + (-1) u: the same bits
    return _differentiated_rows(
        2 * m + alpha + 1, np.full_like(m, -1.0), u, -(m + alpha), m + 1, derivs)


def basis_block(basis: BasisSpec, n: int, x, derivs=True):
    """(phi_k, phi_k', phi_k'') for k = 0..n, each (n+1,) + x.shape; without
    `derivs` the last two are None.  An overflowing prefactor raises
    SeriesOverflow before any degree check."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise DomainError("basis functions are defined for x > 0")
    power, beta = basis.power(), basis.beta
    w = _prefactor(power, beta, x)
    # a polynomial factor that overflows leaves inf/nan rows without a warning;
    # the callers that sum or compare rows check them for finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _poly_rows(basis, n, x, derivs)
        if derivs:
            lw1, lw2 = _log_derivatives(power, beta, x)
            two_lw1 = 2 * lw1
            laguerre = basis.kind == "laguerre"
            if laguerre:
                u = 1.0 / x
                u4, two_u3, minus_u2 = u ** 4, 2 * u ** 3, -u ** 2
            # in place, _BLOCK degrees at a time through one scratch pair: the chain rule
            # d/dx L(1/x) = -u^2 L_u, d2/dx2 = u^4 L_uu + 2 u^3 L_u (laguerre), then the
            # product rule phi' = w (lw1 P + P'), phi'' = w (lw2 P + 2 lw1 P' + P'')
            scratch = np.empty((2, min(n + 1, _BLOCK)) + x.shape)
            for lo in range(0, n + 1, _BLOCK):
                p, d1, d2 = rows[:, lo:lo + _BLOCK]
                term, lift = scratch[:, :len(p)]
                if laguerre:
                    d2 *= u4
                    d2 += np.multiply(two_u3, d1, out=term)
                    d1 *= minus_u2
                d2 += np.add(np.multiply(lw2, p, out=term), np.multiply(two_lw1, d1, out=lift),
                             out=term)
                d1 += np.multiply(lw1, p, out=term)
        rows *= w
    return (rows[0], rows[1], rows[2]) if derivs else (rows[0], None, None)


def _prefix_sums(coeffs, rows, out=None):
    """Row N is sum_{k<=N} coeffs[k] rows[k], added strictly in order by cumsum
    (.sum(axis=0) may pair terms); + 0.0 then gives Python's sum() bit for bit.
    out=rows sums in place, when rows holds exactly len(coeffs) degrees."""
    terms = np.multiply(np.reshape(coeffs, (-1,) + (1,) * (rows.ndim - 1)),
                        rows[:len(coeffs)], out=out)
    return np.cumsum(terms, axis=0, out=terms)


def series_sum(coeffs, rows):
    """sum_k coeffs[k] rows[k], bit for bit as Python's sum(): the final + 0.0
    turns an all -0.0 sum into sum()'s +0.0, as its int 0 start does."""
    return _prefix_sums(coeffs, rows)[-1] + 0.0


def series_derivatives(basis: BasisSpec, coeffs, x, orders):
    """(y, y', y'') of y_r = sum_{n<=r} coeffs[n] phi_n at x, one triple per r in
    orders (each r < len(coeffs)), every sum added in degree order, bit for bit as
    Python's sum().  An overflowing series leaves inf/nan values without a warning.

    bessel: prefix sums of basis_block's three arrays.
    laguerre: the values alone.  With u = 1/x, alpha = 2nu and S = sum f_n L_n^alpha(u),
    u L_n' = n L_n - (n+alpha) L_{n-1} (DLMF 18.9.14) gives w u S_u = D = A_r - B_{r-1},
    where A and B sum the phi_m with weights m f_m and (m+1+alpha) f_{m+1}, and the
    Laguerre equation u L'' = (u - alpha - 1) L' - n L gives w u^2 S_uu; then
    y' = lw1 y - u D and y'' = lw2 y - 2 lw1 u D + u^2 ((1 - alpha + u) D - u A_r),
    with lw1 = w'/w and lw2 = w''/w.  Nothing divides by u or by w."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) - 1
    if basis.kind == "bessel":
        block = basis_block(basis, n, x)
        with np.errstate(over="ignore", invalid="ignore"):  # in place: the block is used only here
            sums = [_prefix_sums(coeffs, rows, out=rows) for rows in block]
        return [tuple(rows[r] + 0.0 for rows in sums) for r in orders]
    vals = basis_block(basis, n, x, derivs=False)[0]
    x, alpha, m = np.asarray(x, dtype=float), 2 * basis.nu, np.arange(n + 1.0)
    triples = []
    with np.errstate(over="ignore", invalid="ignore"):
        A = _prefix_sums(m * coeffs, vals)
        B = _prefix_sums((m[:-1] + 1 + alpha) * coeffs[1:], vals)  # rows 0..n-1
        Y = _prefix_sums(coeffs, vals, out=vals)
        lw1, lw2 = _log_derivatives(basis.power(), basis.beta, x)
        u = 1.0 / x
        two_lw1, u2, shift = 2 * lw1, u ** 2, 1 - alpha + u
        for r in orders:
            y, a = Y[r] + 0.0, A[r] + 0.0
            D = a - B[r - 1] if r else a
            uD = u * D
            triples.append((y, lw1 * y - uD, lw2 * y - two_lw1 * uD + u2 * (shift * D - u * a)))
    return triples


def basis_derivatives(basis: BasisSpec, n: int, x):
    """(phi_n, phi_n', phi_n'') at x > 0: row n of basis_block."""
    return tuple(rows[n] for rows in basis_block(basis, n, x))


def basis_value(basis: BasisSpec, n: int, x):
    """phi_n(x): row n of basis_block's values."""
    return basis_block(basis, n, x, derivs=False)[0][n]
