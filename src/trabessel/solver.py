"""Solution-class machinery for the six-parameter Bessel-type equation.

A parameter set is classified into solution classes; each resolved class
carries a basis, recursion coefficients (u_n, s_n, t_n) for the expansion
coefficients, and a binding to an orthogonal-polynomial family evaluated at
an argument built from the equation parameters.  The same coefficients feed
a symmetric tridiagonal (Jacobi) matrix whose eigenvalues approximate the
discrete support of the coefficient-polynomial measure.

Everything class-specific is one row of the table `_CLASSES`: the class's
resolver, its coefficients u_n, s_n, t_n, a_n, c and its closed-form C_n.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import families
from .basis import BasisSpec, basis_block, series_sum
from .errors import (ConstraintViolation, ConvergenceFailure, DefinitenessError,
                     DomainError, RealityViolation)
from .ode import OdeParams, apply_D_values

__all__ = [
    "ClassId", "ClassReport", "DerivedSymbols", "Binding", "ClassSolution",
    "SeriesSolution", "classify", "resolve_class", "recursion_coeffs",
    "u_decomposition", "expansion_coefficients", "closed_form_cn",
    "evaluate_series", "favard_report", "FavardReport", "jacobi_matrix",
    "tridiag_eigenvalues", "dual_hahn_rejection", "alt_binding_deviation",
    "default_truncation",
]

DEFAULT_TOL = 1e-12


class ClassId(enum.Enum):
    K0 = "K0"
    K1 = "K1"
    C8B = "C8B"
    L39A = "L39A"
    L39B = "L39B"
    L39C = "L39C"
    K2_REDIRECT = "K2_REDIRECT"
    K3_REDIRECT = "K3_REDIRECT"
    C8C_REDIRECT = "C8C_REDIRECT"

    @property
    def is_redirect(self):
        return self.name.endswith("_REDIRECT")


@dataclass(frozen=True)
class ClassReport:
    class_id: ClassId
    admissible: bool
    residuals: dict
    reason: str = ""


@dataclass(frozen=True)
class DerivedSymbols:
    nu_sq: float
    nu: float | None          # None when nu_sq < 0
    nu_imaginary: bool
    xi: float
    zeta: float | None
    tau: float | None = None
    kappa: float | None = None
    chi_sq: float | None = None
    sigma_plus: float | None = None
    sigma_minus: float | None = None


def derived_symbols(p: OdeParams, alpha=None, beta=None, mu=None) -> DerivedSymbols:
    nu_sq = p.A_zero + 0.25 * (p.a - 1.0) ** 2
    nu = math.sqrt(nu_sq) if nu_sq >= 0 else None
    xi = p.A_minus + p.b * (1.0 - p.a / 2.0)
    zeta = None if nu is None else -p.A_minus + nu + p.b * (p.a / 2.0 - 1.0)
    tau = None if beta is None else 2.0 * beta + p.b - 1.0
    kappa = chi_sq = sp = sm = None
    if alpha is not None and mu is not None:
        kappa = xi + p.a / 2.0 + alpha - 1.0
        half = alpha + (p.a - 1.0) / 2.0
        sp = -(mu + 0.5) + half
        sm = -(mu + 0.5) - half
        chi_sq = nu_sq + sp * sm
    return DerivedSymbols(nu_sq=nu_sq, nu=nu, nu_imaginary=nu is None, xi=xi,
                          zeta=zeta, tau=tau, kappa=kappa, chi_sq=chi_sq,
                          sigma_plus=sp, sigma_minus=sm)


@dataclass(frozen=True)
class Binding:
    """Polynomial family plus the argument at which coefficients are evaluated.

    P_n = per_n_scale**n * eval_poly(family, n, argument).  `informational`
    marks bindings recorded from the source material that fail the recursion
    cross-check and must not be used to build solutions.
    """
    family: object
    argument: float
    per_n_scale: float = 1.0
    informational: bool = False
    note: str = ""

    def eval(self, n: int):
        """P_n alone, recursing from degree 0: O(n) per call.

        The per-degree reference for `expansion_coefficients`, which takes
        all degrees from one recursion pass; tests compare the two exactly.
        """
        return self.per_n_scale ** n * families.eval_poly(self.family, n, self.argument)


@dataclass(frozen=True)
class Omega:
    """omega(x) = coeff * x**power."""
    coeff: float
    power: int

    def __call__(self, x):
        return self.coeff * np.asarray(x, dtype=float) ** self.power

    def describe(self):
        if self.power == 0:
            return f"{self.coeff:g}"
        return f"{self.coeff:g} * x^{self.power}"


@dataclass(frozen=True)
class ClassSolution:
    class_id: ClassId
    ode: OdeParams
    basis: BasisSpec
    symbols: DerivedSymbols
    binding: Binding
    omega: Omega
    free: dict = field(default_factory=dict)
    alt_binding: Binding | None = None
    notes: tuple = ()

    @property
    def n_max(self):
        return self.basis.n_max

    def omega_description(self):
        return self.omega.describe()


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated expansion y_N(x) = sum_{n<=N} f_n phi_n(x), f_0 = 1."""
    solution: ClassSolution | None
    basis: BasisSpec
    ode: OdeParams
    coeffs: np.ndarray

    @property
    def order(self):
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(params: OdeParams, tol: float = DEFAULT_TOL):
    """All solution classes whose hard constraints hold within tol.

    Redirect pseudo-classes are reported with the reason they carry no
    solution of their own.  Multiple admissible classes are all returned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b2_res = abs(params.b ** 2 - 1.0 - 4.0 * params.A_one)
    ap_res = abs(params.A_plus)
    nu_sq = params.A_zero + 0.25 * (params.a - 1.0) ** 2
    w = 4.0 * params.A_one - params.b ** 2
    reports = []

    reports.append(ClassReport(
        ClassId.K0, admissible=(b2_res <= tol and ap_res > tol),
        residuals={"b^2 - 1 - 4*A1": b2_res, "|A+| (must be nonzero)": ap_res}))
    k1_note = ("forced constraint pair is b^2 = 1 + 4*A1 and A+ = 0; "
               "the printed variant with A+ in the square relation is not used")
    reports.append(ClassReport(
        ClassId.K1, admissible=(b2_res <= tol and ap_res <= tol),
        residuals={"b^2 - 1 - 4*A1": b2_res, "A+": ap_res}, reason=k1_note))
    reports.append(ClassReport(
        ClassId.C8B, admissible=(b2_res <= tol and ap_res <= tol),
        residuals={"b^2 - 1 - 4*A1": b2_res, "A+": ap_res}))
    reports.append(ClassReport(
        ClassId.L39A, admissible=(ap_res <= tol and w > tol and nu_sq >= 0),
        residuals={"A+": ap_res, "4*A1 - b^2 (must be > 0)": w,
                   "nu^2 (must be >= 0)": nu_sq}))
    reports.append(ClassReport(
        ClassId.L39B, admissible=(ap_res <= tol and b2_res <= tol),
        residuals={"A+": ap_res, "b^2 - 1 - 4*A1": b2_res}))
    reports.append(ClassReport(
        ClassId.L39C, admissible=(ap_res <= tol and nu_sq >= 0),
        residuals={"A+": ap_res, "nu^2 (must be >= 0)": nu_sq},
        reason="admissible for any deformation tau with 4*A1 - b^2 + tau^2 > 0"))
    if ap_res <= tol:
        reports.append(ClassReport(
            ClassId.K2_REDIRECT, admissible=True, residuals={"A+": ap_res},
            reason="treated in the singular Laguerre basis"))
        reports.append(ClassReport(
            ClassId.K3_REDIRECT, admissible=True, residuals={"A+": ap_res},
            reason="reverts to Bessel-polynomial equation"))
        reports.append(ClassReport(
            ClassId.C8C_REDIRECT, admissible=True, residuals={"A+": ap_res},
            reason="treated in the singular Laguerre basis"))
    return [r for r in reports if r.admissible]


# ---------------------------------------------------------------------------
# the class table: resolution, recursion coefficients and C_n per class
# ---------------------------------------------------------------------------

def _require(cond, relation, residual=None):
    if not cond:
        raise ConstraintViolation(relation, residual)


def _require_square(p: OdeParams, tol):
    """The relation b^2 = 1 + 4*A1 of K0, K1, C8B and L39B."""
    residual = abs(p.b ** 2 - 1 - 4 * p.A_one)
    _require(residual <= tol, "b^2 = 1 + 4*A1", residual)


def _real_symbols(p: OdeParams, class_id, **basis_params) -> DerivedSymbols:
    """derived_symbols for a class whose formulas need real nu."""
    sym = derived_symbols(p, **basis_params)
    if sym.nu_imaginary:
        raise RealityViolation(
            f"{class_id.value} needs 4*A0 >= -(a-1)^2; nu^2 = {sym.nu_sq} < 0")
    return sym


def _gated_laguerre_basis(p: OdeParams, sym, beta, row, omega):
    """(basis, notes) of L39A, L39B and L39C: the Laguerre basis for nu > -1/2.

    The prefactor exponent is picked by a small operator probe at n = 0:
    the printed -nu-(a+1)/2 is tried first; when it fails while
    -nu+(1-a)/2 passes, the passing exponent is adopted and the switch noted.
    """
    _require(sym.nu > -0.5, "nu > -1/2 (weight integrability)", sym.nu)
    xs = np.array([0.4, 1.1, 3.0])
    printed = -sym.nu - (p.a + 1.0) / 2.0
    for exponent in (printed, -sym.nu + (1.0 - p.a) / 2.0):
        basis = BasisSpec(kind="laguerre", beta=beta, exponent=exponent, nu=sym.nu)
        vals, der1, der2 = basis_block(basis, 1, xs)
        lhs = apply_D_values(p, vals[0], der1[0], der2[0], xs)
        rhs = omega(xs) * row.u(0) * vals[0] + omega(xs) * row.t(0) * vals[1]
        if np.max(np.abs(lhs - rhs)) / (np.max(np.abs(lhs)) + 1e-300) <= 1e-8:
            notes = [] if exponent == printed else [
                "laguerre exponent -nu-(a+1)/2 failed the operator check; "
                "adopted -nu+(1-a)/2"]
            return basis, notes
    raise ConstraintViolation("no laguerre basis exponent passes the operator check")


def _printed_alt(family) -> Binding:
    """A continuous-Hahn binding as printed, kept for alt_binding_deviation."""
    return Binding(family, 0.0, informational=True,
                   note="as printed; fails the coefficient recursion by a diagonal sign "
                        "(see alt_binding_deviation)")


def _z_family_binding(lam, w, tau, c0):
    """Discrete (Z-family) representation of the deformed coefficients, |eta| > 1.

    Solves for (theta_z, rho, m_hat) such that
    P_n = Z_n^lam(m_hat; theta_z, eta) / rho^n reproduces the class recursion,
    keeping eta at its resolved value.
    """
    big_s = w + tau ** 2
    eta = tau / math.sqrt(big_s)
    if abs(big_s - 1.0) < 1e-12:
        raise ConstraintViolation(
            "no discrete Z representation at 4*A1 - b^2 + tau^2 = 1 "
            "(diagonal slope vanishes)")
    up = w + (tau + 1) ** 2
    down = w + (tau - 1) ** 2
    rhs = eta ** 2 * (big_s - 1.0) ** 2 + up * down
    if rhs > 0:
        # gauge keeping eta at its resolved value
        k = math.copysign(math.sqrt(rhs / (1.0 + eta ** 2)), big_s - 1.0)
        ch = max((big_s - 1.0) / k, 1.0)
        eta_z = eta
    else:
        # indefinite couplings (up*down < 0): fix the angle instead and
        # solve the coupling product for eta_z
        ch = 2.0
        k = (big_s - 1.0) / ch
        eta_z = math.copysign(
            math.sqrt((1.0 - up * down / k ** 2) / (ch ** 2 - 1.0)), eta)
    theta_z = math.acosh(ch)
    sh = math.sinh(theta_z)
    if abs(1.0 + eta_z * sh) > abs(1.0 - eta_z * sh):
        rho = up / (k * (1.0 + eta_z * sh))
    else:
        rho = (1.0 - eta_z * sh) * k / down
    m_hat = c0 / (k * sh) - lam
    fam = families.DeformedZ(lam=lam, theta=theta_z, eta=eta_z)
    return Binding(fam, m_hat, per_n_scale=1.0 / rho,
                   note="derived discrete representation of the deformed coefficients")


def _bessel_cn(mu, n):
    return ((n + mu + 0.5) / (mu + 0.5)) * families.pochhammer(-n - 2 * mu, n) \
        / math.factorial(n)


class _Row:
    """One solution class: `resolve(params, free, tol)` builds its
    ClassSolution; an instance, made from (ode, symbols, basis mu, free
    tau), gives u_n, s_n, t_n, a_n and c (u_n = a_n - z*c) and C_n.

    Each coefficient is its own method on one degree in Python floats:
    numpy would square an array by x*x where ** calls pow, and computing
    all four at once would divide by zero at s_N of a finite basis.
    """

    def u(self, n):
        """u_n = u_const + a_n wherever u_n - a_n is constant in n."""
        return self.u_const + self.a_n(n)


class _K0(_Row):
    c = 1.0

    @staticmethod
    def resolve(p, free, tol):
        _require_square(p, tol)
        _require(p.A_one >= -0.25, "A1 >= -1/4 (reality of b)", p.A_one)
        _require(abs(p.A_plus) > tol, "A+ must be nonzero for K0", p.A_plus)
        alpha = (p.b - 1) * (p.a / 2 - 1) - p.A_minus
        beta = (1 - p.b) / 2
        mu = p.b * (p.a / 2 - 1) - p.A_minus
        sym = _real_symbols(p, ClassId.K0, alpha=alpha, beta=beta, mu=mu)
        _require(mu < -0.5, "mu < -1/2 (at least one basis degree)", mu)
        basis = BasisSpec(kind="bessel", beta=beta, alpha=alpha, mu=mu)
        fam = families.DeformedB(mu=mu, gamma=4.0 / p.A_plus, n_max=basis.n_max)
        return ClassSolution(ClassId.K0, p, basis, sym,
                             Binding(fam, 4.0 * sym.nu_sq / p.A_plus),
                             Omega(p.A_plus / 4.0, 0))

    def __init__(self, p, sym, mu, tau):
        self.mu, self.nu_sq, self.gamma = mu, sym.nu_sq, 4.0 / p.A_plus

    def u(self, n):
        mu = self.mu
        return (-2 * mu / ((n + mu) * (n + mu + 1))
                + self.gamma * ((n + mu + 0.5) ** 2 - self.nu_sq))

    def s(self, n):
        return -(n + 1) / ((n + self.mu + 1) * (n + self.mu + 1.5))

    def t(self, n):
        mu = self.mu
        return (n + 2 * mu + 1) / ((n + mu + 1) * (n + mu + 0.5))

    def a_n(self, n):
        mu = self.mu
        return -2 * mu / ((n + mu) * (n + mu + 1)) + self.gamma * (n + mu + 0.5) ** 2

    def cn(self, n):
        return _bessel_cn(self.mu, n)


class _C8B(_Row):
    c = 4.0

    @staticmethod
    def resolve(p, free, tol):
        _require_square(p, tol)
        _require(p.A_one >= -0.25, "A1 >= -1/4 (reality of b)", p.A_one)
        _require(abs(p.A_plus) <= tol, "A+ = 0", p.A_plus)
        missing = {"alpha", "mu"} - free.keys()
        if missing:
            raise ConstraintViolation(f"C8B needs free parameters {sorted(missing)}")
        alpha, mu = float(free["alpha"]), float(free["mu"])
        _require(mu < -0.5, "mu < -1/2", mu)
        beta = (1 - p.b) / 2
        sym = _real_symbols(p, ClassId.C8B, alpha=alpha, beta=beta, mu=mu)
        basis = BasisSpec(kind="bessel", beta=beta, alpha=alpha, mu=mu)
        nu, kappa = sym.nu, sym.kappa
        half = alpha + (p.a - 1) / 2
        branch = int(free.get("branch", +1))
        sgn = 1.0 if branch >= 0 else -1.0
        fam = families.HahnQ(p=half - 1 + sgn * nu, q=2 * mu + 1 - half - sgn * nu,
                             N=-half + sgn * nu)
        alt = _printed_alt(families.ContHahnH(
            p=-kappa, q=-kappa + 2 * (mu + 1) - (2 * alpha + p.a - 1),
            c=kappa + half + nu, d=kappa + half - nu))
        return ClassSolution(ClassId.C8B, p, basis, sym, Binding(fam, -kappa),
                             Omega(0.25, -1),
                             free={"alpha": alpha, "mu": mu, "branch": branch},
                             alt_binding=alt)

    def __init__(self, p, sym, mu, tau):
        self.mu, self.chi_sq, self.sp = mu, sym.chi_sq, sym.sigma_plus
        self.u_const = 4 * sym.kappa

    def s(self, n):
        mu, sp = self.mu, self.sp
        return (-(n + 1) * ((n + mu + 1.5) ** 2 - self.chi_sq - 2 * sp * (n + 2 * mu + 2))
                / ((n + mu + 1) * (n + mu + 1.5)))

    def t(self, n):
        mu = self.mu
        return ((n + 2 * mu + 1) * ((n + mu + 0.5) ** 2 - self.chi_sq + 2 * self.sp * n)
                / ((n + mu + 1) * (n + mu + 0.5)))

    def a_n(self, n):
        mu, sp = self.mu, self.sp
        return 2 * (mu * self.chi_sq + 2 * sp * (mu + 0.5) ** 2
                    - (mu + 2 * sp) * (n + mu + 0.5) ** 2) / ((n + mu) * (n + mu + 1))

    def cn(self, n):
        mu, chi_sq, sp = self.mu, self.chi_sq, self.sp
        prod = 1.0
        for m in range(n):
            prod *= ((m + mu + 0.5) ** 2 - chi_sq + 2 * sp * m) \
                / ((m + mu + 1.5) ** 2 - chi_sq - 2 * sp * (m + 2 * mu + 2))
        return _bessel_cn(mu, n) * prod


class _K1(_C8B):
    """C8B at alpha = mu + 1 - a/2, where sigma_+ = 0 and chi^2 = nu^2: it
    shares s_n and t_n to the bit; a_n and C_n keep their printed forms."""

    @staticmethod
    def resolve(p, free, tol):
        _require_square(p, tol)
        _require(abs(p.A_plus) <= tol, "A+ = 0", p.A_plus)
        if "mu" not in free:
            raise ConstraintViolation("K1 needs the free basis parameter mu")
        mu = float(free["mu"])
        _require(mu < -0.5, "mu < -1/2", mu)
        alpha = mu + 1 - p.a / 2
        beta = (1 - p.b) / 2
        sym = _real_symbols(p, ClassId.K1, alpha=alpha, beta=beta, mu=mu)
        basis = BasisSpec(kind="bessel", beta=beta, alpha=alpha, mu=mu)
        nu, xi = sym.nu, sym.xi
        fam = families.HahnQ(p=mu - nu - 0.5, q=mu + nu + 0.5, N=-(mu + nu + 0.5))
        alt = _printed_alt(families.ContHahnH(p=-(mu + xi), q=1 - (mu + xi),
                                              c=2 * mu + xi + 0.5 + nu,
                                              d=2 * mu + xi + 0.5 - nu))
        return ClassSolution(ClassId.K1, p, basis, sym, Binding(fam, -(mu + xi)),
                             Omega(0.25, -1), free={"mu": mu}, alt_binding=alt)

    def __init__(self, p, sym, mu, tau):
        self.mu, self.chi_sq, self.sp = mu, sym.nu_sq, 0.0
        self.u_const = 4 * (sym.xi + mu)

    def a_n(self, n):
        mu = self.mu
        return -2 * mu * ((n + mu + 0.5) ** 2 - self.chi_sq) / ((n + mu) * (n + mu + 1))

    def cn(self, n):
        mu, nu_sq = self.mu, self.chi_sq
        lead = ((mu + 0.5) ** 2 - nu_sq) / (mu + 0.5)
        return lead * (n + mu + 0.5) / ((n + mu + 0.5) ** 2 - nu_sq) \
            * families.pochhammer(-n - 2 * mu, n) / math.factorial(n)


class _L39C(_Row):
    @staticmethod
    def resolve(p, free, tol):
        _require(abs(p.A_plus) <= tol, "A+ = 0", p.A_plus)
        if "tau" in free:
            tau = float(free["tau"])
            beta = (tau + 1 - p.b) / 2
        elif "beta" in free:
            beta = float(free["beta"])
            tau = 2 * beta + p.b - 1
        else:
            raise ConstraintViolation("L39C needs the free deformation tau (or beta)")
        _require(abs(tau) > tol, "tau != 0 (tau = 0 is the undeformed class)", tau)
        w = 4 * p.A_one - p.b ** 2
        big_s = w + tau ** 2
        _require(big_s > tol, "4*A1 - b^2 + tau^2 > 0", big_s)
        sym = _real_symbols(p, ClassId.L39C, beta=beta)
        omega = Omega(-0.25, -1)
        basis, notes = _gated_laguerre_basis(p, sym, beta, _L39C(p, sym, None, tau), omega)
        lam = sym.nu + 0.5
        eta = tau / math.sqrt(big_s)
        if abs(eta) > 1:
            binding = _z_family_binding(lam, w, tau, -2 * p.A_minus + p.b * (p.a - 2))
            notes.append("|eta| > 1: discrete Z-family binding")
        else:
            z = (2 * p.A_minus + p.b * (2 - p.a)) / (2 * math.sqrt(big_s))
            theta = math.acos((big_s - 1) / (big_s + 1))
            binding = Binding(families.DeformedY(lam=lam, theta=theta, eta=eta), z)
            if abs(eta) == 1:
                notes.append("|eta| = 1 boundary: Y-form retained")
        return ClassSolution(ClassId.L39C, p, basis, sym, binding, omega,
                             free={"tau": tau}, notes=tuple(notes))

    def __init__(self, p, sym, mu, tau):
        w = 4 * p.A_one - p.b ** 2
        self.nu, self.slope = sym.nu, w + tau ** 2 - 1
        self.s_scale, self.t_scale = w + (tau - 1) ** 2, w + (tau + 1) ** 2
        self.u_const = 2 * (-2 * p.A_minus + p.b * (p.a - 2))
        self.c = 4.0 * math.sqrt(w + tau ** 2)

    def s(self, n):
        return self.s_scale * (n + 2 * self.nu + 1)

    def t(self, n):
        return self.t_scale * (n + 1)

    def a_n(self, n):
        return -self.slope * (2 * n + 2 * self.nu + 1)

    def cn(self, n):
        ratio = self.t_scale / self.s_scale
        return math.factorial(n) / families.pochhammer(2 * self.nu + 1, n) * ratio ** n


class _L39A(_L39C):
    """L39C's recursion at tau = 0, divided through by 4*A1 - b^2 + 1."""

    @staticmethod
    def resolve(p, free, tol):
        _require(abs(p.A_plus) <= tol, "A+ = 0", p.A_plus)
        w = 4 * p.A_one - p.b ** 2
        _require(w > tol, "4*A1 > b^2", w)
        beta = (1 - p.b) / 2
        sym = _real_symbols(p, ClassId.L39A, beta=beta)
        omega = Omega(-(w + 1) / 4.0, -1)
        basis, notes = _gated_laguerre_basis(p, sym, beta, _L39A(p, sym, None, None), omega)
        fam = families.MeixnerPollaczekP(lam=sym.nu + 0.5, theta=math.acos((w - 1) / (w + 1)))
        z = (2 * p.A_minus + p.b * (2 - p.a)) / (2 * math.sqrt(w))
        return ClassSolution(ClassId.L39A, p, basis, sym, Binding(fam, z), omega,
                             notes=tuple(notes))

    def __init__(self, p, sym, mu, tau):
        w = 4 * p.A_one - p.b ** 2
        if abs(w + 1) < 1e-300:
            raise DomainError("L39A coefficients undefined: 4*A1 - b^2 + 1 = 0")
        self.nu, self.slope = sym.nu, (w - 1) / (w + 1)
        self.s_scale = self.t_scale = 1.0
        self.u_const = 2 * (-2 * p.A_minus + p.b * (p.a - 2)) / (w + 1)
        self.c = 4.0 * math.sqrt(w) / (w + 1)


class _L39B(_Row):
    c = -1.0   # the eigenvalue variable is z^2 = -nu^2

    @staticmethod
    def resolve(p, free, tol):
        _require(abs(p.A_plus) <= tol, "A+ = 0", p.A_plus)
        _require_square(p, tol)
        beta = (1 - p.b) / 2
        sym = derived_symbols(p, beta=beta)
        z_sq = -sym.nu_sq  # stays real for either sign of nu^2
        if sym.nu_imaginary:
            # continuous-spectrum branch: the binding is recorded through
            # nu^2 only, and _row refuses its coefficients
            basis = BasisSpec(kind="laguerre", beta=beta, exponent=(1 - p.a) / 2, nu=0.0)
            binding = Binding(families.ContDualHahnS(p=1.0, c=0.0, d=0.0), z_sq,
                              informational=True, note="imaginary-nu placeholder")
            return ClassSolution(ClassId.L39B, p, basis, sym, binding, Omega(1.0, 0), notes=(
                "nu^2 < 0: imaginary-nu continuous branch; binding recorded via "
                "z^2 = -nu^2, coefficients unavailable",))
        omega = Omega(1.0, 0)
        basis, notes = _gated_laguerre_basis(p, sym, beta, _L39B(p, sym, None, None), omega)
        fam = families.ContDualHahnS(p=sym.nu + 1, c=sym.nu, d=sym.zeta - sym.nu + 0.5)
        return ClassSolution(ClassId.L39B, p, basis, sym, Binding(fam, z_sq), omega,
                             notes=tuple(notes))

    def __init__(self, p, sym, mu, tau):
        self.nu, self.zeta = sym.nu, sym.zeta

    def u(self, n):
        return -(n + self.zeta + 0.5) * (2 * n + 2 * self.nu + 1)

    def s(self, n):
        return (n + 2 * self.nu + 1) * (n + self.zeta + 1.5)

    def t(self, n):
        return (n + 1) * (n + self.zeta + 0.5)

    def a_n(self, n):
        nu, zeta = self.nu, self.zeta
        return -(n * (n + zeta - 0.5) + (n + 2 * nu + 1) * (n + zeta + 1.5)
                 - (nu + 1) ** 2)

    def cn(self, n):
        return 1.0  # f_n = Q_n carries no prefactor


_CLASSES = {ClassId.K0: _K0, ClassId.K1: _K1, ClassId.C8B: _C8B,
            ClassId.L39A: _L39A, ClassId.L39B: _L39B, ClassId.L39C: _L39C}


def resolve_class(params: OdeParams, class_id: ClassId, free: dict | None = None,
                  tol: float = DEFAULT_TOL) -> ClassSolution:
    """Resolve one admissible class into a full ClassSolution.

    `free` supplies class-specific free parameters: mu (K1), alpha and mu
    (C8B), tau or beta (L39C).
    """
    free = dict(free or {})
    if class_id.is_redirect:
        raise ConstraintViolation(
            f"{class_id.value} is a documented non-case and has no solution")
    return _CLASSES[class_id].resolve(params, free, tol)


def _row(sol: ClassSolution, what="recursion coefficients"):
    """The table row of `sol`'s class, bound to its parameters.

    Also the one guard on the imaginary-nu branch of L39B, which resolves
    with a placeholder basis but has no coefficients.
    """
    row_class = _CLASSES.get(sol.class_id)
    if row_class is None:
        raise DomainError(f"no {what} for {sol.class_id}")
    if sol.class_id is ClassId.L39B and sol.symbols.nu_imaginary:
        raise RealityViolation(
            "L39B coefficient formulas need real nu; the imaginary-nu "
            "continuous branch exposes only the z^2 = -nu^2 binding")
    return row_class(sol.ode, sol.symbols, sol.basis.mu, sol.free.get("tau"))


# ---------------------------------------------------------------------------
# recursion coefficients
# ---------------------------------------------------------------------------

def _check_bessel_degree(sol: ClassSolution, n: int):
    if sol.basis.kind == "bessel":
        mu = sol.basis.mu
        for expr, label in (((n + mu) * (n + mu + 1), "(n+mu)(n+mu+1)"),
                            ((n + mu + 0.5), "n+mu+1/2"),
                            ((n + mu + 1.5), "n+mu+3/2")):
            if expr == 0.0:
                raise DomainError(f"coefficient denominator {label} vanishes at n={n}")


def recursion_coeffs(sol: ClassSolution, n: int):
    """(u_n, s_n, t_n) of the class's three-term relation."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if sol.n_max is not None and n > sol.n_max:
        raise DomainError(f"n={n} exceeds the basis bound n_max={sol.n_max}")
    _check_bessel_degree(sol, n)
    row = _row(sol)
    return row.u(n), row.s(n), row.t(n)


def u_decomposition(sol: ClassSolution):
    """(a_n callable, c) with u_n = a_n - z*c and z the binding argument."""
    row = _row(sol)
    return row.a_n, row.c


# ---------------------------------------------------------------------------
# expansion coefficients and series
# ---------------------------------------------------------------------------

def default_truncation(sol: ClassSolution) -> int:
    """floor(-mu - 1/2 - eps) for finite bessel-basis classes, else 50."""
    return sol.n_max if sol.n_max is not None else 50


def _require_degree(sol: ClassSolution, N: int, name: str):
    if N < 0:
        raise DomainError(f"{name} must be nonnegative")
    if sol.n_max is not None and N > sol.n_max:
        raise DomainError(f"{name}={N} violates mu < -{name} - 1/2 "
                          f"(mu={sol.basis.mu}, n_max={sol.n_max})")


def closed_form_cn(sol: ClassSolution, n: int) -> float:
    """Printed closed form of C_n = prod_{m<n} t_m/s_m, where one exists."""
    _require_degree(sol, n, "n")
    return _row(sol, "closed-form C_n").cn(n)


def expansion_coefficients(sol: ClassSolution, N: int) -> np.ndarray:
    """f_0..f_N with f_0 = 1: f_n = (prod_{m<n} t_m/s_m) * P_n(binding argument).

    One upward recursion pass gives P_0..P_N, so the cost is O(N).  The values
    are bit-identical to `sol.binding.eval(n)` degree by degree, and so are
    the errors: the lowest degree that fails decides, and s_{n-1} = 0 wins a
    tie with the family at degree n.  For L39B the coefficients are the bound
    polynomials directly.
    """
    _require_degree(sol, N, "N")
    row = _row(sol)
    cns = [1.0]
    cn = 1.0
    zero_s = None
    for n in range(1, N + 1):
        sm = row.s(n - 1)
        if sm == 0.0:
            zero_s = n - 1
            break
        if sol.class_id is not ClassId.L39B:
            cn *= row.t(n - 1) / sm
        cns.append(cn)
    b = sol.binding
    M = len(cns) - 1
    # eval(n) fails at the first degree past the family's bound (HahnQ with an
    # integral N): recurse up to the bound, then raise that degree's error
    top = families.degree_bound(b.family)
    past_top = top is not None and M > max(top, 0)
    if past_top:
        M = max(top, 0)
    seq = families.eval_poly_sequence(b.family, M, b.argument) if M else [1.0]
    if past_top:
        families.eval_poly(b.family, M + 1, b.argument)
    if zero_s is not None:
        raise ZeroDivisionError(
            f"s_{zero_s} = 0: the t/s coefficient product is undefined here")
    f = np.empty(N + 1)
    f[0] = 1.0
    for n in range(1, N + 1):
        f[n] = cns[n] * (b.per_n_scale ** n * seq[n])
    return f


def build_series(sol: ClassSolution, N: int) -> SeriesSolution:
    return SeriesSolution(solution=sol, basis=sol.basis, ode=sol.ode,
                          coeffs=expansion_coefficients(sol, N))


def evaluate_series(series: SeriesSolution, x):
    """y_N(x) = sum f_n phi_n(x) for x > 0 (scalar or array), from phi_n alone."""
    vals, _, _ = basis_block(series.basis, series.order, x, derivs=False)
    with np.errstate(over="ignore", invalid="ignore"):
        total = series_sum(series.coeffs, vals)
    if not np.all(np.isfinite(total)):
        raise DomainError("series evaluation produced non-finite values")
    return total


# ---------------------------------------------------------------------------
# definiteness and the Jacobi matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FavardReport:
    products: np.ndarray   # s_n * t_n for the couplings n = 0..N-1
    definite: bool

    def __iter__(self):
        return iter(self.products)


def favard_report(sol: ClassSolution, N: int) -> FavardReport:
    """Signs of the coupling products s_n t_n used by an (N+1)-level truncation."""
    if sol.n_max is not None and N > sol.n_max:
        raise DomainError(
            f"N={N} violates mu < -N - 1/2 (mu={sol.basis.mu})")
    row = _row(sol)
    prods = np.array([row.s(n) * row.t(n) for n in range(N)])
    return FavardReport(products=prods, definite=bool(np.all(prods > 0)))


def jacobi_matrix(sol: ClassSolution, N: int):
    """Symmetric tridiagonal matrix of the coefficient recursion, size N+1.

    Diagonal a_n / c, off-diagonal sqrt(s_n t_n)/|c| coupling levels n, n+1.
    Eigenvalues approximate the discrete support of the coefficient
    polynomials' measure in the binding variable.
    """
    rep = favard_report(sol, N)
    if not rep.definite:
        bad = int(np.argmin(rep.products > 0))
        raise DefinitenessError(
            f"s_n t_n <= 0 at n={bad} ({rep.products[bad]:.3e}); "
            "no symmetric Jacobi form")
    row = _row(sol)
    diag = np.array([row.a_n(n) / row.c for n in range(N + 1)])
    return diag, np.sqrt(rep.products) / abs(row.c)


def tridiag_eigenvalues(diag, off):
    """Ascending eigenvalues of a symmetric tridiagonal matrix."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise DomainError("matrix entries must be finite")
    if diag.size == 0:
        return np.array([])
    import scipy.linalg   # imported here, so that only eigensolves load it
    try:
        vals = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    return np.sort(vals)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

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
    if sol.alt_binding is None:
        raise DomainError(f"{sol.class_id.value} has no alternative binding")
    p_direct = [1.0]
    s_prev = None
    for n in range(n_max):
        u_n, s_n, t_n = recursion_coeffs(sol, n)
        nxt = -(u_n * p_direct[-1] + (s_prev * p_direct[-2] if n else 0.0)) / t_n
        p_direct.append(nxt)
        s_prev = s_n
    worst = 0.0
    for n in range(n_max + 1):
        h = families.eval_poly(sol.alt_binding.family, n, sol.alt_binding.argument)
        alt = ((-1) ** n * h).real
        worst = max(worst, abs(alt - p_direct[n]) / max(1.0, abs(p_direct[n])))
    return worst
