"""Orthogonal-polynomial families evaluated by three-term recursion.

Twelve families cover the expansion coefficients of every solution class:
the finite Bessel polynomial on the real line and its one-parameter
deformation, the singular Bessel variant tied to Laguerre polynomials,
the (dual/continuous) Hahn group, Meixner-Pollaczek and Meixner, and the
deformed Meixner-Pollaczek pair Y/Z.

One engine evaluates every family upward, P_{m+1} = (a_m P_m + b_m P_{m-1}) / d_m
from P_0 = 1, P_{-1} = 0; a family supplies only its (a_m, b_m, d_m), with the
float operations of its recursion in their order.  Meixner-Pollaczek and Meixner
are the deformed Y and Z at eta = 0.0, bit for bit, and share their coefficient
functions.  Families with a terminating-hypergeometric representation expose
an independent oracle (`eval_oracle`); the three deformed families are defined
by recursion only and are cross-checked through reduction identities instead.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from ._record import Record
from .errors import DomainError, QuadratureFailure, UnsupportedOracle, _check_integer

__all__ = [
    "BesselJ", "BesselJbar", "LaguerreL", "DeformedB", "DualHahnR",
    "ContDualHahnS", "HahnQ", "ContHahnH", "MeixnerPollaczekP", "MeixnerM",
    "DeformedY", "DeformedZ", "pochhammer", "eval_poly", "eval_poly_sequence",
    "eval_oracle", "reduce_identity", "generating_check",
    "orthogonality_integral",
]


def pochhammer(a, n: int):
    """Shifted factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    _check_integer(n)
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    result = 1.0 if not isinstance(a, complex) else complex(1.0)
    for k in range(n):
        result = result * (a + k)
    return result


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------

class BesselJ(Record):
    """Bessel polynomial on the real line; finite family, mu < -n_max - 1/2."""
    mu: float
    n_max: int = 10

    def validate(self):
        if self.n_max < 0 or not self.mu < -self.n_max - 0.5:
            raise DomainError(
                f"BesselJ needs mu < -n_max - 1/2 (mu={self.mu}, n_max={self.n_max})")


class BesselJbar(Record):
    """Bessel variant with degree-dependent order, J-bar_n = n!(-x)^n L_n^{2nu}(1/x)."""
    nu: float

    def validate(self):
        pass


class LaguerreL(Record):
    """Generalized Laguerre L_n^alpha."""
    alpha: float

    def validate(self):
        pass


class DeformedB(Record):
    """Deformed Bessel polynomial B_n^mu(z; gamma); recursion-only family."""
    mu: float
    gamma: float
    n_max: int = 10

    def validate(self):
        if self.n_max < 0 or not self.mu < -self.n_max - 0.5:
            raise DomainError(
                f"DeformedB needs mu < -n_max - 1/2 (mu={self.mu}, n_max={self.n_max})")


class DualHahnR(Record):
    """Dual Hahn R_n^N(z_m^2; p, q), argument given as m."""
    p: float
    q: float
    N: float

    def validate(self):
        if _is_integral(self.N):
            for v, name in ((self.p, "p"), (self.q, "q")):
                if not (v > -1 or v < -self.N):
                    raise DomainError(f"DualHahnR {name}={v} outside (> -1 or < -N)")


class ContDualHahnS(Record):
    """Continuous dual Hahn S_n^p(z^2; c, d), argument given as z^2."""
    p: float
    c: float
    d: float

    def validate(self):
        pass


class HahnQ(Record):
    """Hahn polynomial Q_n^N(m; p, q)."""
    p: float
    q: float
    N: float

    def validate(self):
        if _is_integral(self.N):
            for v, name in ((self.p, "p"), (self.q, "q")):
                if not (v > -1 or v < -self.N):
                    raise DomainError(f"HahnQ {name}={v} outside (> -1 or < -N)")


class ContHahnH(Record):
    """Continuous Hahn H_n^p(x; q, c, d); complex-valued for real x."""
    p: complex
    q: complex
    c: complex
    d: complex

    def validate(self):
        pass


class MeixnerPollaczekP(Record):
    """Meixner-Pollaczek P_n^lam(x; theta), lam > 0, 0 < theta < pi."""
    lam: float
    theta: float

    def validate(self):
        if not (self.lam > 0 and 0 < self.theta < math.pi):
            raise DomainError(
                f"MeixnerPollaczekP needs lam > 0, 0 < theta < pi "
                f"(lam={self.lam}, theta={self.theta})")


class MeixnerM(Record):
    """Meixner M_n^lam(m; theta), lam > 0, theta > 0."""
    lam: float
    theta: float

    def validate(self):
        if not (self.lam > 0 and self.theta > 0):
            raise DomainError(
                f"MeixnerM needs lam > 0, theta > 0 (lam={self.lam}, theta={self.theta})")


class DeformedY(Record):
    """Deformed Meixner-Pollaczek Y_n^lam(x; theta, eta); recursion-only."""
    lam: float
    theta: float
    eta: float

    def validate(self):
        if not (self.lam > 0 and 0 < self.theta < math.pi):
            raise DomainError(
                f"DeformedY needs lam > 0, 0 < theta < pi "
                f"(lam={self.lam}, theta={self.theta})")
        if abs(1.0 + self.eta * math.sin(self.theta)) < 1e-14:
            raise DomainError("DeformedY recursion degenerate: 1 + eta sin(theta) = 0")


class DeformedZ(Record):
    """Discrete deformed Meixner-Pollaczek Z_n^lam(m; theta, eta); recursion-only."""
    lam: float
    theta: float
    eta: float

    def validate(self):
        if not (self.lam > 0 and self.theta > 0):
            raise DomainError(
                f"DeformedZ needs lam > 0, theta > 0 (lam={self.lam}, theta={self.theta})")
        if abs(1.0 + self.eta * math.sinh(self.theta)) < 1e-14:
            raise DomainError("DeformedZ recursion degenerate: 1 + eta sinh(theta) = 0")


def _is_integral(x, tol=1e-9):
    return abs(x - round(x)) <= tol


# ---------------------------------------------------------------------------
# upward recursions; the sign flips (x - y as x + (-y)) and the divisions by
# 1.0 that the engine's form needs are exact
# ---------------------------------------------------------------------------

def _three_term(steps, one=1.0):
    """P_0, ..., P_n, one per next(), from P_0 = one, P_{-1} = 0 and the (a_m, b_m, d_m),
    m < n, of `steps`.  Its first next() after P_0 runs a family's set-up, so a list of
    it raises the set-up's errors at n = 0 too."""
    prev, cur = 0.0 * one, one
    yield cur
    for a, b, d in steps:
        prev, cur = cur, (a * cur + b * prev) / d
        yield cur


def _besselj(fam: BesselJ, n, x):
    # the bessel basis block's coefficients (basis._poly_rows): both give the same bits
    mu = fam.mu
    for m in range(n):
        k = (m + mu + 1) * (2 * m + 2 * mu + 1) / (m + 2 * mu + 1)
        yield (k * mu / ((m + mu) * (m + mu + 1)) + 2.0 * k * x,
               k * (m / ((m + mu) * (2 * m + 2 * mu + 1))) if m else 0.0, 1.0)


def _besseljbar(fam: BesselJbar, n, x):
    # from the Laguerre recursion: Jbar_{n+1} = [1-(2n+2nu+1)x] Jbar_n - n(n+2nu) x^2 Jbar_{n-1}
    nu = fam.nu
    for m in range(n):
        yield 1.0 - (2 * m + 2 * nu + 1) * x, -(m * (m + 2 * nu) * x * x), 1.0


def _laguerre(fam: LaguerreL, n, x):
    al = fam.alpha
    for m in range(n):
        yield 2 * m + al + 1 - x, -(m + al), m + 1


def _deformedb(fam: DeformedB, n, z):
    # deformation only shifts the diagonal; up-coefficient denominator
    # uses n+mu+1/2 so that B_n^mu(4x; 0) = J_n^mu(x) holds exactly
    mu, gam = fam.mu, fam.gamma
    for m in range(n):
        diag = -2 * mu / ((m + mu) * (m + mu + 1)) + gam * (m + mu + 0.5) ** 2
        down = (m / ((m + mu) * (m + mu + 0.5))) if m else 0.0
        up = (m + 2 * mu + 1) / ((m + mu + 1) * (m + mu + 0.5))
        yield z - diag, down, up


def _dualhahn(fam: DualHahnR, n, m_arg):
    p, q, N = fam.p, fam.q, fam.N
    z2 = (m_arg + (p + q + 1) / 2) ** 2
    for m in range(n):
        down = m * (N - m + q + 1) if m else 0.0
        up = (N - m) * (m + p + 1)
        if up == 0.0:
            raise DomainError(f"DualHahnR recursion stalls at n={m} (N-n or n+p+1 vanishes)")
        diag = (N - m) * (m + p + 1) + m * (N - m + q + 1) + 0.25 * (p + q + 1) ** 2
        yield diag - z2, -down, up


def _cdualhahn(fam: ContDualHahnS, n, z2):
    p, c, d = fam.p, fam.c, fam.d
    for m in range(n):
        down = m * (m + c + d - 1) if m else 0.0
        up = (m + p + c) * (m + p + d)
        if up == 0.0:
            raise DomainError(f"ContDualHahnS recursion stalls at n={m} ((n+p+c)(n+p+d)=0)")
        diag = m * (m + c + d - 1) + (m + p + c) * (m + p + d) - p ** 2
        yield diag - z2, -down, up


def _hahn(fam: HahnQ, n, m_arg):
    p, q, N = fam.p, fam.q, fam.N
    for m in range(n):
        denom_d = (2 * m + p + q) * (2 * m + p + q + 1)
        down = m * (m + q) * (m + p + q + N + 1) / denom_d if m else 0.0
        up = (N - m) * (m + p + 1) * (m + p + q + 1) / ((2 * m + p + q + 1) * (2 * m + p + q + 2))
        if up == 0.0:
            raise DomainError(f"HahnQ recursion stalls at n={m}")
        yield down + up - m_arg, -down, up


def _conthahn(fam: ContHahnH, n, x):
    p, q, c, d = (complex(fam.p), complex(fam.q), complex(fam.c), complex(fam.d))
    tot = p + q + c + d
    for m in range(n):
        down = (m * (m + q + c - 1) * (m + q + d - 1)
                / ((2 * m + tot - 2) * (2 * m + tot - 1))) if m else 0.0
        up = (m + p + c) * (m + p + d) * (m + tot - 1) / ((2 * m + tot - 1) * (2 * m + tot))
        if up == 0:
            raise DomainError(f"ContHahnH recursion stalls at n={m}")
        yield up - down - (p + 1j * x), down, up


def _y(fam, n, x, eta=0.0):
    # Y_n^lam(x; theta, eta); at eta = 0.0 Meixner-Pollaczek P_n^lam(x; theta), bit for bit
    lam, th = fam.lam, fam.theta
    s, c = math.sin(th), math.cos(th)
    lo, hi = 1 - eta * s, 1 + eta * s
    for m in range(n):
        yield 2 * x * s + 2 * (m + lam) * c, -((m + 2 * lam - 1) * lo), (m + 1) * hi


def _z(fam, n, m_arg, eta=0.0):
    # Z_n^lam(m; theta, eta); at eta = 0.0 Meixner M_n^lam(m; theta), bit for bit
    lam, th = fam.lam, fam.theta
    ch, sh = math.cosh(th), math.sinh(th)
    lo, hi = 1 - eta * sh, 1 + eta * sh
    for m in range(n):
        yield 2 * ((m + lam) * ch - lam * sh - m_arg * sh), -((m + 2 * lam - 1) * lo), (m + 1) * hi


_STEPS = {
    BesselJ: _besselj,
    BesselJbar: _besseljbar,
    LaguerreL: _laguerre,
    DeformedB: _deformedb,
    DualHahnR: _dualhahn,
    ContDualHahnS: _cdualhahn,
    HahnQ: _hahn,
    ContHahnH: _conthahn,
    MeixnerPollaczekP: _y,
    MeixnerM: _z,
    DeformedY: lambda fam, n, x: _y(fam, n, x, fam.eta),
    DeformedZ: lambda fam, n, m_arg: _z(fam, n, m_arg, fam.eta),
}


def _check_degree(family, n):
    _check_integer(n)
    if n < 0:
        raise DomainError("degree must be nonnegative")
    n_max = getattr(family, "n_max", None)
    if n_max is not None and n > n_max:
        raise DomainError(f"degree {n} exceeds n_max={n_max} for {type(family).__name__}")
    N = getattr(family, "N", None)
    if N is not None and _is_integral(N) and n > round(N):
        raise DomainError(f"degree {n} exceeds N={N} for {type(family).__name__}")


def degree_bound(family):
    """Highest degree `_check_degree` accepts for `family`, or None if unbounded."""
    bounds = [getattr(family, "n_max", None)]
    N = getattr(family, "N", None)
    if N is not None and _is_integral(N):
        bounds.append(round(N))
    return min((b for b in bounds if b is not None), default=None)


def _poly_values(family, n: int, z):
    """P_0..P_n of `family` at z by upward recursion, one per next(), after the family
    and the degree are checked.  The lowest failing degree raises: a non-finite value
    stops the recursion there.  NumPy-scalar steps warn on overflow, so step it under
    np.errstate."""
    family.validate()
    _check_degree(family, n)
    one = complex(1.0) if isinstance(family, ContHahnH) else 1.0
    for value in _three_term(_STEPS[type(family)](family, n, z), one):
        if not cmath.isfinite(value):  # real values too
            raise DomainError(f"{type(family).__name__} recursion produced a non-finite value")
        yield value


def eval_poly_sequence(family, n: int, z):
    """Values of degrees 0..n by upward recursion from P_0 = 1, P_{-1} = 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # NumPy scalars warn, floats do not
        return list(_poly_values(family, n, z))


def eval_poly(family, n: int, z):
    """Degree-n member of `family` at argument z (complex for ContHahnH)."""
    return eval_poly_sequence(family, n, z)[n]


# ---------------------------------------------------------------------------
# terminating hypergeometric oracles
#
# The alternating sums cancel catastrophically for n near 10, so the oracle
# accumulates in extended precision (80-bit long double); the recursion side
# stays in plain doubles.  An oracle should out-resolve what it checks.
# ---------------------------------------------------------------------------

_LD = np.longdouble
_CLD = np.clongdouble


def _poch_ld(a, n):
    r = a - a + 1  # one, in a's precision
    for k in range(n):
        r = r * (a + k)
    return r


def _oracle_besselj(fam, n, x):
    # 2F0(-n, n+2mu+1; -; -x)
    xl = _LD(x)
    s = _LD(0)
    for k in range(n + 1):
        s += _poch_ld(_LD(-n), k) * _poch_ld(_LD(n + 2 * fam.mu + 1), k) \
            / _LD(math.factorial(k)) * (-xl) ** k
    return float(s)


def _oracle_besseljbar(fam, n, x):
    # 2F0(-n, -n-2nu; -; -x)
    xl = _LD(x)
    s = _LD(0)
    for k in range(n + 1):
        s += _poch_ld(_LD(-n), k) * _poch_ld(_LD(-n - 2 * fam.nu), k) \
            / _LD(math.factorial(k)) * (-xl) ** k
    return float(s)


def _oracle_laguerre(fam, n, x):
    # ((alpha+1)_n / n!) 1F1(-n; alpha+1; x)
    al = _LD(fam.alpha)
    xl = _LD(x)
    s = _LD(0)
    for k in range(n + 1):
        s += _poch_ld(_LD(-n), k) / (_poch_ld(al + 1, k) * _LD(math.factorial(k))) \
            * xl ** k
    return float(_poch_ld(al + 1, n) / _LD(math.factorial(n)) * s)


def _oracle_dualhahn(fam, n, m_arg):
    # 3F2(-n, -m, m+p+q+1; p+1, -N; 1)
    p, q, N = _LD(fam.p), _LD(fam.q), _LD(fam.N)
    m = _LD(m_arg)
    s = _LD(0)
    for k in range(n + 1):
        s += (_poch_ld(_LD(-n), k) * _poch_ld(-m, k) * _poch_ld(m + p + q + 1, k)
              / (_poch_ld(p + 1, k) * _poch_ld(-N, k) * _LD(math.factorial(k))))
    return float(s)


def _oracle_cdualhahn(fam, n, z2):
    # 3F2(-n, p+iz, p-iz; p+c, p+d; 1); (p+iz)_k (p-iz)_k = prod((p+j)^2 + z^2)
    p, c, d = _LD(fam.p), _LD(fam.c), _LD(fam.d)
    z2l = _LD(z2)
    s = _LD(0)
    for k in range(n + 1):
        num = _LD(1)
        for j in range(k):
            num *= (p + j) ** 2 + z2l
        s += _poch_ld(_LD(-n), k) * num / (_poch_ld(p + c, k) * _poch_ld(p + d, k)
                                           * _LD(math.factorial(k)))
    return float(s)


def _oracle_hahn(fam, n, m_arg):
    # 3F2(-n, -m, n+p+q+1; p+1, -N; 1)
    p, q, N = _LD(fam.p), _LD(fam.q), _LD(fam.N)
    m = _LD(m_arg)
    s = _LD(0)
    for k in range(n + 1):
        s += (_poch_ld(_LD(-n), k) * _poch_ld(-m, k) * _poch_ld(_LD(n) + p + q + 1, k)
              / (_poch_ld(p + 1, k) * _poch_ld(-N, k) * _LD(math.factorial(k))))
    return float(s)


def _oracle_conthahn(fam, n, x):
    # 3F2(-n, n+p+q+c+d-1, p+ix; p+c, p+d; 1)
    p, q, c, d = (_CLD(fam.p), _CLD(fam.q), _CLD(fam.c), _CLD(fam.d))
    xl = _CLD(x)
    s = _CLD(0)
    for k in range(n + 1):
        s += (_poch_ld(_CLD(-n), k) * _poch_ld(n + p + q + c + d - 1, k)
              * _poch_ld(p + 1j * xl, k)
              / (_poch_ld(p + c, k) * _poch_ld(p + d, k) * _LD(math.factorial(k))))
    return complex(s)


def _oracle_mp(fam, n, x):
    # ((2lam)_n / n!) e^{in theta} 2F1(-n, lam+ix; 2lam; 1 - e^{-2i theta})
    lam, th = fam.lam, fam.theta
    zz = _CLD(1 - cmath.exp(-2j * th))
    s = _CLD(0)
    for k in range(n + 1):
        s += (_poch_ld(_CLD(-n), k) * _poch_ld(_CLD(lam) + 1j * _CLD(x), k)
              / (_poch_ld(_CLD(2 * lam), k) * _LD(math.factorial(k))) * zz ** k)
    out = _poch_ld(_LD(2 * lam), n) / _LD(math.factorial(n)) \
        * _CLD(cmath.exp(1j * n * th)) * s
    return float(out.real)


def _oracle_meixner(fam, n, m_arg):
    # ((2lam)_n / n!) e^{-n theta} 2F1(-n, -m; 2lam; 1 - e^{2 theta})
    lam, th = _LD(fam.lam), _LD(fam.theta)
    zz = 1 - np.exp(2 * th)
    s = _LD(0)
    for k in range(n + 1):
        s += (_poch_ld(_LD(-n), k) * _poch_ld(_LD(-m_arg), k)
              / (_poch_ld(2 * lam, k) * _LD(math.factorial(k))) * zz ** k)
    return float(_poch_ld(2 * lam, n) / _LD(math.factorial(n)) * np.exp(-n * th) * s)


_ORACLES = {
    BesselJ: _oracle_besselj,
    BesselJbar: _oracle_besseljbar,
    LaguerreL: _oracle_laguerre,
    DualHahnR: _oracle_dualhahn,
    ContDualHahnS: _oracle_cdualhahn,
    HahnQ: _oracle_hahn,
    ContHahnH: _oracle_conthahn,
    MeixnerPollaczekP: _oracle_mp,
    MeixnerM: _oracle_meixner,
}


def eval_oracle(family, n: int, z):
    """Terminating hypergeometric evaluation, independent of the recursion.

    Raises UnsupportedOracle for the three recursion-only deformed families.
    """
    family.validate()
    _check_degree(family, n)
    oracle = _ORACLES.get(type(family))
    if oracle is None:
        raise UnsupportedOracle(
            f"{type(family).__name__} has no hypergeometric representation; "
            "use reduce_identity for cross-checks")
    return oracle(family, n, z)


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def reduce_identity(name: str, n: int, point, params: dict):
    """Evaluate both sides of a named reduction identity.

    Returns (lhs, rhs); the caller asserts closeness.  Supported names:

    - ``B_to_J``:           B_n^mu(4x; 0) = J_n^mu(x)          params: mu
    - ``Y_to_P``:           Y via Meixner-Pollaczek, |eta| < 1  params: lam, theta, eta
    - ``Z_to_M``:           Z via Meixner, |eta sinh theta| < 1 params: lam, theta, eta
    - ``Jbar_to_Laguerre``: Jbar_n^nu(x) = n!(-x)^n L_n^{2nu}(1/x)      params: nu
    - ``J_to_Laguerre``:    J_n^mu(x) = n!(-x)^n L_n^{-(2n+2mu+1)}(1/x) params: mu
    """
    if name == "B_to_J":
        mu = params["mu"]
        x = point
        lhs = eval_poly(DeformedB(mu=mu, gamma=0.0, n_max=n), n, 4.0 * x)
        rhs = eval_poly(BesselJ(mu=mu, n_max=n), n, x)
        return lhs, rhs
    if name == "Y_to_P":
        lam, th, eta = params["lam"], params["theta"], params["eta"]
        if abs(eta) >= 1:
            raise DomainError(f"Y_to_P needs |eta| < 1 (eta={eta})")
        x = point
        lhs = eval_poly(DeformedY(lam, th, eta), n, x)
        s = math.sin(th)
        q = (1 - eta * s) / (1 + eta * s)
        y = x / math.sqrt(1 - eta ** 2)
        phi = math.acos(math.cos(th) / math.sqrt(1 - eta ** 2 * s ** 2))
        rhs = q ** (n / 2.0) * eval_poly(MeixnerPollaczekP(lam, phi), n, y)
        return lhs, rhs
    if name == "Z_to_M":
        lam, th, eta = params["lam"], params["theta"], params["eta"]
        sh, ch = math.sinh(th), math.cosh(th)
        if abs(eta * sh) >= 1:
            raise DomainError(f"Z_to_M needs |eta sinh theta| < 1 (got {eta * sh})")
        m_arg = point
        lhs = eval_poly(DeformedZ(lam, th, eta), n, m_arg)
        q = (1 - eta * sh) / (1 + eta * sh)
        phi = math.acosh(ch / math.sqrt(1 - eta ** 2 * sh ** 2))
        mt = (m_arg + lam) / math.sqrt(1 + eta ** 2) - lam
        rhs = q ** (n / 2.0) * eval_poly(MeixnerM(lam, phi), n, mt)
        return lhs, rhs
    if name == "Jbar_to_Laguerre":
        nu = params["nu"]
        x = point
        lhs = eval_poly(BesselJbar(nu), n, x)
        rhs = math.factorial(n) * (-x) ** n * eval_poly(LaguerreL(2 * nu), n, 1.0 / x)
        return lhs, rhs
    if name == "J_to_Laguerre":
        mu = params["mu"]
        x = point
        lhs = eval_poly(BesselJ(mu=mu, n_max=n), n, x)
        rhs = math.factorial(n) * (-x) ** n \
            * eval_poly(LaguerreL(-(2 * n + 2 * mu + 1)), n, 1.0 / x)
        return lhs, rhs
    raise DomainError(f"unknown reduction identity {name!r}")


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def generating_check(family, x, t: float, n_terms: int = 30):
    """Partial sum of the family's generating series against its closed form.

    Default |t| <= 0.05 with 30 terms keeps the geometric truncation tail
    below 1e-10 for the documented parameter ranges.  Returns
    (partial_sum, closed_form).
    """
    family.validate()
    if isinstance(family, BesselJ):
        if family.n_max < n_terms:
            raise DomainError("BesselJ generating check needs n_max >= n_terms")
        disc = 1.0 - 4.0 * x * t
        if disc <= 0.0:
            raise DomainError(f"branch cut: 1 - 4xt = {disc} <= 0")
        seq = eval_poly_sequence(family, n_terms, x)
        partial = sum(seq[n] * t ** n / math.factorial(n) for n in range(n_terms + 1))
        r = math.sqrt(disc)
        mu = family.mu
        closed = 2.0 ** (2 * mu) / r * (1 + r) ** (-2 * mu) * math.exp(2 * t / (1 + r))
        return partial, closed
    if not isinstance(family, (MeixnerPollaczekP, MeixnerM, DeformedY, DeformedZ)):
        raise DomainError(f"no generating function implemented for {type(family).__name__}")
    seq = eval_poly_sequence(family, n_terms, x)
    partial = sum(seq[n] * t ** n for n in range(n_terms + 1))
    lam, th = family.lam, family.theta
    if isinstance(family, MeixnerPollaczekP):
        closed = ((1 - t * cmath.exp(1j * th)) ** (-lam + 1j * x)
                  * (1 - t * cmath.exp(-1j * th)) ** (-lam - 1j * x))
        return partial, closed.real
    if isinstance(family, MeixnerM):
        closed = (1 - t * math.exp(th)) ** x * (1 - t * math.exp(-th)) ** (-x - 2 * lam)
        return partial, closed
    eta = family.eta
    if isinstance(family, DeformedY):
        s, c = math.sin(th), math.cos(th)
        rt = cmath.sqrt(complex(eta ** 2 - 1))
        alpha = (c + rt * s) / (1 + eta * s)
        beta = (c - rt * s) / (1 + eta * s)
        big_a = lam + x / rt
        big_b = lam - x / rt
        closed = (1 - alpha * t) ** (-big_a) * (1 - beta * t) ** (-big_b)
        return partial, closed.real
    # DeformedZ: the closed form carries the sqrt(q) rescaling of t implied by
    # the Meixner connection; the plain printed form fails at first order
    sh, ch = math.sinh(th), math.cosh(th)
    if abs(eta * sh) >= 1:
        raise DomainError(f"DeformedZ generating check needs |eta sinh theta| < 1")
    q = (1 - eta * sh) / (1 + eta * sh)
    phi = math.acosh(ch / math.sqrt(1 - eta ** 2 * sh ** 2))
    mt = (x + lam) / math.sqrt(1 + eta ** 2) - lam
    teff = t * math.sqrt(q)
    closed = (1 - teff * math.exp(phi)) ** mt * (1 - teff * math.exp(-phi)) ** (-mt - 2 * lam)
    return partial, closed


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def orthogonality_integral(family, n: int, m: int, tol: float = 1e-10):
    """Numeric orthogonality integral against its closed-form right-hand side.

    BesselJ: weight x^{2mu} e^{-1/x} on (0, inf), evaluated after u = 1/x as a
    Gauss-Laguerre integral of adaptive order (64 doubling to 1024).
    DeformedY with |eta| < 1: Meixner-Pollaczek-type weight on the real line,
    truncated where the envelope falls below 1e-16 of its peak and integrated
    by composite Gauss-Legendre panels.

    Returns (numeric_integral, analytic_rhs).
    """
    # imported here, so that only these quadrature oracles load scipy.special,
    # the slowest import the package has
    from numpy.polynomial.legendre import leggauss
    from scipy.special import loggamma, roots_laguerre

    family.validate()
    _check_degree(family, max(n, m))
    if isinstance(family, BesselJ):
        mu = family.mu

        def estimate(order):
            u, w = roots_laguerre(order)
            sn = np.array([eval_poly(family, n, 1.0 / ui) for ui in u])
            sm = sn if m == n else np.array([eval_poly(family, m, 1.0 / ui) for ui in u])
            terms = w * u ** (-2 * mu - 2) * sn * sm
            # the L1 mass sets the roundoff floor: off-diagonal integrals
            # cancel to ~eps of it, never to an absolute 0
            return float(np.sum(terms)), float(np.sum(np.abs(terms)))

        order = 64
        prev, l1 = estimate(order)
        while order < 1024:
            order *= 2
            cur, l1 = estimate(order)
            floor = 1e3 * np.finfo(float).eps * l1
            if abs(cur - prev) <= max(tol * abs(cur), floor):
                prev = cur
                break
            prev = cur
        else:
            raise QuadratureFailure(
                f"Gauss-Laguerre did not converge to {tol} by order 1024")
        rhs = 0.0
        if n == m:
            rhs = -math.factorial(n) * math.gamma(-n - 2 * mu) / (2 * n + 2 * mu + 1)
        return prev, rhs
    if isinstance(family, DeformedY):
        lam, th, eta = family.lam, family.theta, family.eta
        if abs(eta) >= 1:
            raise DomainError("DeformedY orthogonality needs |eta| < 1")
        s = math.sin(th)
        root = math.sqrt(1 - eta ** 2)
        q = (1 - eta * s) / (1 + eta * s)
        phi = math.acos(math.cos(th) / math.sqrt(1 - eta ** 2 * s ** 2))

        def integrand(x):
            y = x / root
            w = math.exp((2 * phi - math.pi) * y + 2 * loggamma(complex(lam, y)).real)
            vals = eval_poly_sequence(family, max(n, m), x)
            return w * vals[n] * vals[m]

        peak = abs(integrand(0.0)) + 1e-300
        hi = 1.0
        while abs(integrand(hi)) > 1e-16 * peak and hi < 500:
            hi *= 1.25
        lo = -1.0
        while abs(integrand(lo)) > 1e-16 * peak and lo > -500:
            lo *= 1.25

        def panels(npan):
            xs, ws = leggauss(24)
            edges = np.linspace(lo, hi, npan + 1)
            total = 0.0
            for i in range(npan):
                mid = (edges[i] + edges[i + 1]) / 2
                half = (edges[i + 1] - edges[i]) / 2
                total += half * sum(w * integrand(mid + half * xx) for xx, w in zip(xs, ws))
            return total

        first, second = panels(48), panels(96)
        if abs(second - first) > 1e-8 * max(1.0, abs(second)):
            raise QuadratureFailure("panel refinement did not stabilize the B20 integral")
        pref = (2 * math.sin(phi)) ** (2 * lam) / (2 * math.pi * root)
        num = pref * second
        rhs = q ** n * math.gamma(n + 2 * lam) / math.factorial(n) if n == m else 0.0
        return num, rhs
    raise DomainError(
        f"orthogonality integral implemented for BesselJ and DeformedY only, "
        f"not {type(family).__name__}")
