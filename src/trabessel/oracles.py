"""Independent checks of the package's results, for its tests.

Nothing here runs on a command-line path, so no command loads this module;
`trabessel` re-exports its public names, which load it on first use.

- terminating-hypergeometric oracles of the polynomial families, reduction
  identities, generating functions and orthogonality integrals;
- the printed closed forms C_n of the class coefficient products, the
  u_n = a_n - z c decomposition and the rejected or informational readings
  of the printed bindings;
- the differential operator applied through stencil derivatives, as a
  cross-check of the analytic basis derivatives.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from ._classid import ClassId
from .basis import BasisSpec, basis_derivatives, basis_value
from .errors import (DerivativeUnavailable, DomainError, QuadratureFailure,
                     SeriesOverflow, UnsupportedOracle, _check_integer)
from .families import (BesselJ, BesselJbar, ContDualHahnS, ContHahnH, DeformedB,
                       DeformedY, DeformedZ, DualHahnR, HahnQ, LaguerreL, MeixnerM,
                       MeixnerPollaczekP, _check_degree, _three_term, eval_poly,
                       eval_poly_sequence, pochhammer)
from .ode import OdeParams, apply_D_values
from .solver import ClassSolution, _coefficients, _row

__all__ = ["eval_oracle", "reduce_identity", "generating_check", "orthogonality_integral",
           "closed_form_cn", "u_decomposition", "dual_hahn_rejection",
           "alt_binding_deviation", "stencil_derivatives", "apply_D",
           "derivative_crosscheck"]


# ---------------------------------------------------------------------------
# terminating hypergeometric oracles
#
# Each family's textbook form (Koekoek, Lesky and Swarttouw, Hypergeometric
# Orthogonal Polynomials and Their q-Analogues, 2010), summed by mpmath in 30
# digits from the exact float parameters: the alternating sums cancel
# catastrophically for n near 10, while the recursion side stays in plain
# doubles.  An oracle should out-resolve what it checks.
# ---------------------------------------------------------------------------

def _terminating_form(mp, family, n, z):
    """The family's degree-n polynomial at z as an mpmath pFq call, with every
    parameter an mpmath number; UnsupportedOracle for the deformed families."""
    kind, z = type(family), mp.mpmathify(z)
    v = [mp.mpmathify(value) for value in family._values()]
    if kind is BesselJ:  # 2F0(-n, n+2mu+1; -; -x)
        return mp.hyp2f0(-n, n + 2 * v[0] + 1, -z)
    if kind is BesselJbar:  # 2F0(-n, -n-2nu; -; -x)
        return mp.hyp2f0(-n, -n - 2 * v[0], -z)
    # sum_k binom(n+alpha, n-k) (-x)^k / k!: ((alpha+1)_n / n!) 1F1(-n; alpha+1; x)
    # without its pole at an integer alpha <= -1 (where n >= -alpha)
    if kind is LaguerreL:
        return mp.fsum(mp.binomial(n + v[0], n - k) * (-z) ** k / mp.factorial(k)
                       for k in range(n + 1))
    if kind is DualHahnR:  # 3F2(-n, -m, m+p+q+1; p+1, -N; 1)
        p, q, N = v
        return mp.hyp3f2(-n, -z, z + p + q + 1, p + 1, -N, 1)
    if kind is ContDualHahnS:  # 3F2(-n, p+iz, p-iz; p+c, p+d; 1), argument z^2
        p, c, d = v
        iz = 1j * mp.sqrt(z)
        return mp.hyp3f2(-n, p + iz, p - iz, p + c, p + d, 1)
    if kind is HahnQ:  # 3F2(-n, -m, n+p+q+1; p+1, -N; 1)
        p, q, N = v
        return mp.hyp3f2(-n, -z, n + p + q + 1, p + 1, -N, 1)
    if kind is ContHahnH:  # 3F2(-n, n+p+q+c+d-1, p+ix; p+c, p+d; 1)
        p, q, c, d = v
        return mp.hyp3f2(-n, n + p + q + c + d - 1, p + 1j * z, p + c, p + d, 1)
    # ((2lam)_n / n!) e^{in theta} 2F1(-n, lam+ix; 2lam; 1-e^{-2i theta})
    if kind is MeixnerPollaczekP:
        lam, th = v
        return (mp.rf(2 * lam, n) / mp.factorial(n) * mp.expj(n * th)
                * mp.hyp2f1(-n, lam + 1j * z, 2 * lam, 1 - mp.expj(-2 * th)))
    if kind is MeixnerM:  # ((2lam)_n / n!) e^{-n theta} 2F1(-n, -m; 2lam; 1-e^{2 theta})
        lam, th = v
        return (mp.rf(2 * lam, n) / mp.factorial(n) * mp.exp(-n * th)
                * mp.hyp2f1(-n, -z, 2 * lam, 1 - mp.exp(2 * th)))
    raise UnsupportedOracle(f"{kind.__name__} has no hypergeometric representation; "
                            "use reduce_identity for cross-checks")


def eval_oracle(family, n: int, z):
    """Terminating hypergeometric evaluation, independent of the recursion:
    a float, or a complex for ContHahnH.

    Raises UnsupportedOracle for the three recursion-only deformed families.
    """
    family.validate()
    _check_degree(family, n)
    import mpmath  # here, so that only the oracle loads it

    with mpmath.workdps(30):
        value = _terminating_form(mpmath, family, n, z)
        return complex(value) if type(family) is ContHahnH else float(mpmath.re(value))


# ---------------------------------------------------------------------------
# the connections of the deformed families with Meixner-Pollaczek and Meixner
# ---------------------------------------------------------------------------

def _y_to_p(theta, eta):
    """(q, phi, root) of Y_n^lam(x; theta, eta) = q^{n/2} P_n^lam(x / root; phi),
    with root = sqrt(1 - eta^2); needs |eta| < 1."""
    if abs(eta) >= 1:
        raise DomainError(f"the Y to P connection needs |eta| < 1 (eta={eta})")
    s = math.sin(theta)
    root = math.sqrt(1 - eta ** 2)
    q = (1 - eta * s) / (1 + eta * s)
    phi = math.acos(math.cos(theta) / math.sqrt(1 - eta ** 2 * s ** 2))
    return q, phi, root


def _z_to_m(lam, theta, eta, m):
    """(q, phi, m') of Z_n^lam(m; theta, eta) = q^{n/2} M_n^lam(m'; phi);
    needs |eta sinh theta| < 1."""
    sh, ch = math.sinh(theta), math.cosh(theta)
    if abs(eta * sh) >= 1:
        raise DomainError(f"the Z to M connection needs |eta sinh theta| < 1 (got {eta * sh})")
    q = (1 - eta * sh) / (1 + eta * sh)
    phi = math.acosh(ch / math.sqrt(1 - eta ** 2 * sh ** 2))
    return q, phi, (m + lam) / math.sqrt(1 + eta ** 2) - lam


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
        q, phi, root = _y_to_p(th, eta)
        lhs = eval_poly(DeformedY(lam, th, eta), n, point)
        rhs = q ** (n / 2.0) * eval_poly(MeixnerPollaczekP(lam, phi), n, point / root)
        return lhs, rhs
    if name == "Z_to_M":
        lam, th, eta = params["lam"], params["theta"], params["eta"]
        q, phi, mt = _z_to_m(lam, th, eta, point)
        lhs = eval_poly(DeformedZ(lam, th, eta), n, point)
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
    q, phi, mt = _z_to_m(lam, th, eta, x)
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
        lam = family.lam
        q, phi, root = _y_to_p(family.theta, family.eta)

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


# ---------------------------------------------------------------------------
# closed forms and printed readings of the class coefficients
# ---------------------------------------------------------------------------

def _bessel_cn(mu, n):
    return ((n + mu + 0.5) / (mu + 0.5)) * pochhammer(-n - 2 * mu, n) \
        / math.factorial(n)


def _c8b_cn(row, n):
    mu, chi_sq, sp = row.mu, row.chi_sq, row.sp
    prod = 1.0
    for m in range(n):
        prod *= ((m + mu + 0.5) ** 2 - chi_sq + 2 * sp * m) \
            / ((m + mu + 1.5) ** 2 - chi_sq - 2 * sp * (m + 2 * mu + 2))
    return _bessel_cn(mu, n) * prod


def _k1_cn(row, n):
    mu, nu_sq = row.mu, row.chi_sq
    lead = ((mu + 0.5) ** 2 - nu_sq) / (mu + 0.5)
    return lead * (n + mu + 0.5) / ((n + mu + 0.5) ** 2 - nu_sq) \
        * pochhammer(-n - 2 * mu, n) / math.factorial(n)


def _l39c_cn(row, n):
    ratio = row.t_scale / row.s_scale
    return math.factorial(n) / pochhammer(2 * row.nu + 1, n) * ratio ** n


# class id: C_n from the class row bound to a solution's parameters
_CLOSED_FORM_CN = {
    ClassId.K0: lambda row, n: _bessel_cn(row.mu, n),
    ClassId.K1: _k1_cn,
    ClassId.C8B: _c8b_cn,
    ClassId.L39A: _l39c_cn,
    ClassId.L39B: lambda row, n: 1.0,  # f_n = Q_n carries no prefactor
    ClassId.L39C: _l39c_cn,
}


def closed_form_cn(sol: ClassSolution, n: int) -> float:
    """Printed closed form of C_n = prod_{m<n} t_m/s_m, where one exists."""
    sol.basis.check_degree(n)
    row = _row(sol, "closed-form C_n")
    try:
        return _CLOSED_FORM_CN[sol.class_id](row, n)
    except OverflowError:  # n! or a power past double range, from n = 171 on
        raise SeriesOverflow(f"closed-form C_n overflows double precision at n={n}") from None


def u_decomposition(sol: ClassSolution):
    """(a_n callable, c) with u_n = a_n - z*c and z the binding argument."""
    row = _row(sol)
    return row.a_n, row.c


def dual_hahn_rejection(sol: ClassSolution) -> dict:
    """The rejected dual-Hahn reading of the L39B coefficients.

    Returns the would-be parameters and the positivity contradiction that
    rules them out: the family requires a nonnegative integer N, while the
    identification forces N = -(2 nu + 1) < 0.
    """
    if sol.class_id is not ClassId.L39B:
        raise DomainError("the dual Hahn diagnostic applies to L39B only")
    row = _row(sol)
    nu, zeta = row.nu, row.zeta
    n_val = -(2 * nu + 1)
    return {
        "p": zeta + 0.5,
        "q": 2 * nu - zeta + 0.5,
        "N": n_val,
        "z_k_sq": sol.symbols.nu_sq,
        "rejected": True,
        "contradiction": (
            f"dual Hahn needs N a nonnegative integer, but N = -(2*nu+1) = "
            f"{n_val:.6g} < 0 for nu = {nu:.6g} > 0; rejected in favor of the "
            "continuous dual Hahn form"),
    }


def alt_binding_deviation(sol: ClassSolution, n_max: int = 8) -> float:
    """Max relative deviation of the printed continuous-Hahn alternative.

    Compares (-1)^n H_n(0) against the coefficient polynomials generated by
    the class recursion.  Informational: the printed identification fails by
    a diagonal sign, so this deviation is large.
    """
    _check_integer(n_max, "n_max")
    if sol.alt_binding is None:
        raise DomainError(f"{sol.class_id.value} has no alternative binding")

    def steps():  # P_{n+1} = (-u_n P_n - s_{n-1} P_{n-1}) / t_n, s_{-1} = 0
        s_prev = 0.0
        for u_n, s_n, t_n in map(_coefficients(sol), range(n_max)):
            yield -u_n, -s_prev, t_n
            s_prev = s_n

    p_direct = list(_three_term(steps()))
    worst = 0.0
    for n in range(n_max + 1):
        h = eval_poly(sol.alt_binding.family, n, sol.alt_binding.argument)
        alt = ((-1) ** n * h).real
        worst = max(worst, abs(alt - p_direct[n]) / max(1.0, abs(p_direct[n])))
    return worst


# ---------------------------------------------------------------------------
# the operator through stencil derivatives
# ---------------------------------------------------------------------------

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


def derivative_crosscheck(basis: BasisSpec, n: int, x) -> float:
    """Relative gap between analytic and stencil derivatives of phi_n at x."""
    x = np.asarray(x, dtype=float)
    _, d1, d2 = basis_derivatives(basis, n, x)
    _, s1, s2 = stencil_derivatives(lambda xx: basis_value(basis, n, xx), x)
    g1 = np.max(np.abs(d1 - s1) / np.maximum(1.0, np.abs(d1)))
    g2 = np.max(np.abs(d2 - s2) / np.maximum(1.0, np.abs(d2)))
    return float(max(g1, g2))
