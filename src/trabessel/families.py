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
functions.  Families with a terminating-hypergeometric representation have
an independent oracle (`trabessel.oracles.eval_oracle`); the three deformed
families are defined by recursion only and are cross-checked through
reduction identities instead.
"""
from __future__ import annotations

import cmath
import math

from ._record import Record
from .errors import DomainError, _check_integer, _count_text, _quiet_numpy

__all__ = [
    "BesselJ", "BesselJbar", "LaguerreL", "DeformedB", "DualHahnR",
    "ContDualHahnS", "HahnQ", "ContHahnH", "MeixnerPollaczekP", "MeixnerM",
    "DeformedY", "DeformedZ", "pochhammer", "eval_poly", "eval_poly_sequence",
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
# family specs; each rule is one function, whose message names the family
# ---------------------------------------------------------------------------

def _no_rule(fam):
    """Every parameter value is admissible."""


def _finite_bessel(fam):
    if fam.n_max < 0 or not fam.mu < -fam.n_max - 0.5:
        raise DomainError(f"{type(fam).__name__} needs mu < -n_max - 1/2 "
                          f"(mu={fam.mu}, n_max={_count_text(fam.n_max)})")


def _hahn_p_q(fam):
    if _is_integral(fam.N):
        for v, name in ((fam.p, "p"), (fam.q, "q")):
            if not (v > -1 or v < -fam.N):
                raise DomainError(f"{type(fam).__name__} {name}={v} outside (> -1 or < -N)")


def _pollaczek_region(fam):
    if not (fam.lam > 0 and 0 < fam.theta < math.pi):
        raise DomainError(f"{type(fam).__name__} needs lam > 0, 0 < theta < pi "
                          f"(lam={fam.lam}, theta={fam.theta})")


def _meixner_region(fam):
    if not (fam.lam > 0 and fam.theta > 0):
        raise DomainError(f"{type(fam).__name__} needs lam > 0, theta > 0 "
                          f"(lam={fam.lam}, theta={fam.theta})")


class BesselJ(Record):
    """Bessel polynomial on the real line; finite family, mu < -n_max - 1/2."""
    mu: float
    n_max: int = 10
    validate = _finite_bessel


class BesselJbar(Record):
    """Bessel variant with degree-dependent order, J-bar_n = n!(-x)^n L_n^{2nu}(1/x)."""
    nu: float
    validate = _no_rule


class LaguerreL(Record):
    """Generalized Laguerre L_n^alpha."""
    alpha: float
    validate = _no_rule


class DeformedB(Record):
    """Deformed Bessel polynomial B_n^mu(z; gamma); recursion-only family."""
    mu: float
    gamma: float
    n_max: int = 10
    validate = _finite_bessel


class DualHahnR(Record):
    """Dual Hahn R_n^N(z_m^2; p, q), argument given as m."""
    p: float
    q: float
    N: float
    validate = _hahn_p_q


class ContDualHahnS(Record):
    """Continuous dual Hahn S_n^p(z^2; c, d), argument given as z^2."""
    p: float
    c: float
    d: float
    validate = _no_rule


class HahnQ(Record):
    """Hahn polynomial Q_n^N(m; p, q)."""
    p: float
    q: float
    N: float
    validate = _hahn_p_q


class ContHahnH(Record):
    """Continuous Hahn H_n^p(x; q, c, d); complex-valued for real x."""
    p: complex
    q: complex
    c: complex
    d: complex
    validate = _no_rule


class MeixnerPollaczekP(Record):
    """Meixner-Pollaczek P_n^lam(x; theta), lam > 0, 0 < theta < pi."""
    lam: float
    theta: float
    validate = _pollaczek_region


class MeixnerM(Record):
    """Meixner M_n^lam(m; theta), lam > 0, theta > 0."""
    lam: float
    theta: float
    validate = _meixner_region


class DeformedY(Record):
    """Deformed Meixner-Pollaczek Y_n^lam(x; theta, eta); recursion-only."""
    lam: float
    theta: float
    eta: float

    def validate(self):
        _pollaczek_region(self)
        if abs(1.0 + self.eta * math.sin(self.theta)) < 1e-14:
            raise DomainError("DeformedY recursion degenerate: 1 + eta sin(theta) = 0")


class DeformedZ(Record):
    """Discrete deformed Meixner-Pollaczek Z_n^lam(m; theta, eta); recursion-only."""
    lam: float
    theta: float
    eta: float

    def validate(self):
        _meixner_region(self)
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


def _degree_bounds(family):
    """(field, value, highest degree) of each bound on `family`'s degrees: n_max,
    and N where it is integral."""
    n_max, N = getattr(family, "n_max", None), getattr(family, "N", None)
    bounds = [] if n_max is None else [("n_max", n_max, n_max)]
    if N is not None and _is_integral(N):
        bounds.append(("N", N, round(N)))
    return bounds


def _check_degree(family, n):
    _check_integer(n)
    if n < 0:
        raise DomainError("degree must be nonnegative")
    for name, value, top in _degree_bounds(family):
        if n > top:
            raise DomainError(f"degree {n} exceeds {name}={_count_text(value)} "
                              f"for {type(family).__name__}")


def eval_poly_sequence(family, n: int, z):
    """Values of degrees 0..n by upward recursion from P_0 = 1, P_{-1} = 0, after the
    family and the degree are checked.  A non-finite value stops the recursion at its
    degree."""
    values = []
    with _quiet_numpy():
        family.validate()
        _check_degree(family, n)
        one = complex(1.0) if isinstance(family, ContHahnH) else 1.0
        for value in _three_term(_STEPS[type(family)](family, n, z), one):
            if not cmath.isfinite(value):  # real values too
                raise DomainError(f"{type(family).__name__} recursion produced a non-finite value")
            values.append(value)
    return values


def eval_poly(family, n: int, z):
    """Degree-n member of `family` at argument z (complex for ContHahnH)."""
    return eval_poly_sequence(family, n, z)[n]
