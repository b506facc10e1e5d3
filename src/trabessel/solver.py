"""Solution-class machinery for the six-parameter Bessel-type equation.

A parameter set is classified into solution classes; each resolved class
carries a basis, recursion coefficients (u_n, s_n, t_n) for the expansion
coefficients, and a binding to an orthogonal-polynomial family evaluated at
an argument built from the equation parameters.  The same coefficients feed
a symmetric tridiagonal (Jacobi) matrix whose eigenvalues approximate the
discrete support of the coefficient-polynomial measure.

Everything class-specific is one row of the table `_CLASSES`: the class's
admissible region, free parameters, resolver and coefficients u_n, s_n, t_n,
a_n and c.  The printed closed forms of C_n and the other cross-checks of the
classes live in `trabessel.oracles`.
"""
from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from . import families
from ._basisspec import BasisSpec, _bessel_top
from ._classid import ClassId
from ._record import Record
from .errors import (ConstraintViolation, DefinitenessError, DomainError,
                     RealityViolation, SeriesOverflow, _quiet_numpy)
from .ode import OdeParams

if TYPE_CHECKING:  # for the annotations: the functions that build arrays import numpy
    import numpy as np

__all__ = [
    "ClassId", "ClassReport", "DerivedSymbols", "Binding", "Omega", "ClassSolution",
    "SeriesSolution", "classify", "resolve_class", "recursion_coeffs",
    "expansion_coefficients", "evaluate_series", "favard_report", "FavardReport",
    "jacobi_matrix", "tridiag_eigenvalues", "default_truncation",
]

DEFAULT_TOL = 1e-12


class ClassReport(Record):
    class_id: ClassId
    admissible: bool
    residuals: dict
    reason: str = ""


class DerivedSymbols(Record):
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


class Binding(Record):
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


class Omega(Record):
    """omega(x) = coeff * x**power."""
    coeff: float
    power: int

    def __call__(self, x):
        import numpy as np

        return self.coeff * np.asarray(x, dtype=float) ** self.power

    def describe(self):
        if self.power == 0:
            return f"{self.coeff:g}"
        return f"{self.coeff:g} * x^{self.power}"


class ClassSolution(Record):
    class_id: ClassId
    ode: OdeParams
    basis: BasisSpec
    symbols: DerivedSymbols
    binding: Binding
    omega: Omega
    free: dict = {}
    alt_binding: Binding | None = None
    notes: tuple = ()

    @property
    def n_max(self):
        return self.basis.n_max

    def omega_description(self):
        return self.omega.describe()


class SeriesSolution(Record):
    """Truncated expansion y_N(x) = sum_{n<=N} f_n phi_n(x), f_0 = 1."""
    solution: ClassSolution | None
    basis: BasisSpec
    ode: OdeParams
    coeffs: np.ndarray

    @property
    def order(self):
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# classification: the admissible region of each class, as data
# ---------------------------------------------------------------------------
# A constraint is (relation, key, residual, holds, reads_free): resolve_class refuses
# `relation` unless holds(residual(params, free), tol); classify skips those that read
# a free parameter and reports the others' residuals under `key`, unless it is None.

def _k0_mu(p):
    return p.b * (p.a / 2 - 1) - p.A_minus


_NU_REAL = "4*A0 >= -(a-1)^2"   # the one relation whose failure is a RealityViolation
_REAL_NU = (_NU_REAL, None, lambda p, free: p.A_zero + 0.25 * (p.a - 1.0) ** 2,
            lambda r, tol: r >= 0, False)
_REAL_NU_SHOWN = (_NU_REAL, "nu^2 (must be >= 0)") + _REAL_NU[2:]
_SQUARE = ("b^2 = 1 + 4*A1", "b^2 - 1 - 4*A1",
           lambda p, free: abs(p.b ** 2 - 1.0 - 4.0 * p.A_one), operator.le, False)
_REAL_B = ("A1 >= -1/4 (reality of b)", None, lambda p, free: p.A_one,
           lambda r, tol: r >= -0.25, False)
_A_PLUS_ZERO = ("A+ = 0", "A+", lambda p, free: abs(p.A_plus), operator.le, False)
_A_PLUS_NONZERO = ("A+ must be nonzero for K0", "|A+| (must be nonzero)",
                   lambda p, free: abs(p.A_plus), operator.gt, False)
# mu < -1/2 as the basis bound reads it: n_max >= 0, at least one degree
_K0_MU = ("mu < -1/2 (at least one basis degree)", None, lambda p, free: _k0_mu(p),
          lambda r, tol: _bessel_top(r) >= 0, False)
_FREE_MU = ("mu < -1/2", None, lambda p, free: free["mu"],
            lambda r, tol: _bessel_top(r) >= 0, True)
_W_POSITIVE = ("4*A1 > b^2", "4*A1 - b^2 (must be > 0)",
               lambda p, free: 4.0 * p.A_one - p.b ** 2, operator.gt, False)
_TAU_NONZERO = ("tau != 0 (tau = 0 is the undeformed class)", None,
                lambda p, free: free["tau"], lambda r, tol: abs(r) > tol, True)
_S_POSITIVE = ("4*A1 - b^2 + tau^2 > 0", None,
               lambda p, free: 4 * p.A_one - p.b ** 2 + free["tau"] ** 2, operator.gt, True)


def _admit(class_id, params: OdeParams, free, tol):
    """Check the region of `class_id` in order, raising on the first constraint
    that fails, and return (classify's residuals, the parsed free parameters);
    free=None skips the constraints that read a free parameter."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    row, region, _ = _CLASSES[class_id]
    residuals, values = {}, None
    for relation, key, residual, holds, reads_free in region:
        if reads_free and free is None:
            continue
        if reads_free and values is None:
            missing = [key for key in row.free if key not in free]
            if missing:
                raise ConstraintViolation(f"{class_id.value} needs free parameters {missing}")
            values = {key: float(free[key]) for key in row.free}
        value = residual(params, values)
        if not holds(value, tol):
            if relation == _NU_REAL:
                raise RealityViolation(f"{class_id.value} needs {relation}; nu^2 = {value} < 0")
            raise ConstraintViolation(relation, value)
        if key is not None:
            residuals[key] = value
    return residuals, values


def classify(params: OdeParams, tol: float = DEFAULT_TOL):
    """All solution classes whose region, less its constraints on free
    parameters, holds within tol.  Redirect pseudo-classes are reported with
    the reason they carry no solution of their own."""
    reports = []
    for class_id, (_, _, reason) in _CLASSES.items():
        try:
            residuals, _ = _admit(class_id, params, None, tol)
        except (ConstraintViolation, RealityViolation):
            continue
        except OverflowError:  # float ** past double range
            raise SeriesOverflow(f"{class_id.value} relations overflow double precision") from None
        reports.append(ClassReport(class_id, True, residuals, reason))
    return reports


# ---------------------------------------------------------------------------
# the class table: resolution, recursion coefficients and C_n per class
# ---------------------------------------------------------------------------

def _gated_laguerre_basis(p: OdeParams, sym, beta):
    """(basis, notes) of L39A, L39B and L39C: the Laguerre basis for nu > -1/2.

    The prefactor exponent e is the root of the indicial equation, the x^0 term
    of D phi_0 / phi_0: e^2 + (a-1) e - A0 = 0 at e = -nu + (1-a)/2, so D phi_0
    has no x^0 term, as omega [u_0 phi_0 + t_0 phi_1] has none.  The printed
    -nu-(a+1)/2 leaves that term at 2nu+1 != 0; the note records the switch.
    """
    basis = BasisSpec(kind="laguerre", beta=beta, exponent=-sym.nu + (1.0 - p.a) / 2.0,
                      nu=sym.nu)
    return basis, ["laguerre exponent -nu-(a+1)/2 failed the operator check; "
                   "adopted -nu+(1-a)/2"]


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


class _Row:
    """One solution class: `resolve(params, free)` builds its ClassSolution
    inside its region; an instance, made from (ode, symbols, basis mu, free
    tau), gives u_n, s_n, t_n, a_n and c (u_n = a_n - z*c).

    Each coefficient is its own method on one degree in Python floats, so
    classify and solve load no numpy: numpy would square an array by x*x
    where ** calls pow, and computing all four at once would divide by zero
    at s_N of a finite basis.  A float ** past double range raises
    OverflowError where a NumPy scalar gives inf with a warning.
    """

    free = ()   # the keys of `free`, read as floats where the region first needs them

    def u(self, n):
        """u_n = u_const + a_n wherever u_n - a_n is constant in n."""
        return self.u_const + self.a_n(n)


class _K0(_Row):
    c = 1.0

    @staticmethod
    def resolve(p, free):
        alpha = (p.b - 1) * (p.a / 2 - 1) - p.A_minus
        beta = (1 - p.b) / 2
        mu = _k0_mu(p)
        sym = derived_symbols(p, alpha=alpha, beta=beta, mu=mu)
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


class _C8B(_Row):
    c = 4.0
    free = ("alpha", "mu")

    @staticmethod
    def resolve(p, free):
        alpha, mu = free["alpha"], free["mu"]
        beta = (1 - p.b) / 2
        sym = derived_symbols(p, alpha=alpha, beta=beta, mu=mu)
        basis = BasisSpec(kind="bessel", beta=beta, alpha=alpha, mu=mu)
        nu, kappa = sym.nu, sym.kappa
        half = alpha + (p.a - 1) / 2
        fam = families.HahnQ(p=half - 1 + nu, q=2 * mu + 1 - half - nu, N=-half + nu)
        alt = _printed_alt(families.ContHahnH(
            p=-kappa, q=-kappa + 2 * (mu + 1) - (2 * alpha + p.a - 1),
            c=kappa + half + nu, d=kappa + half - nu))
        return ClassSolution(ClassId.C8B, p, basis, sym, Binding(fam, -kappa),
                             Omega(0.25, -1), free=free, alt_binding=alt)

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


class _K1(_C8B):
    """C8B at alpha = mu + 1 - a/2, where sigma_+ = 0 and chi^2 = nu^2: it
    shares s_n and t_n to the bit; a_n and C_n keep their printed forms."""
    free = ("mu",)

    @staticmethod
    def resolve(p, free):
        mu = free["mu"]
        alpha = mu + 1 - p.a / 2
        beta = (1 - p.b) / 2
        sym = derived_symbols(p, alpha=alpha, beta=beta, mu=mu)
        basis = BasisSpec(kind="bessel", beta=beta, alpha=alpha, mu=mu)
        nu, xi = sym.nu, sym.xi
        fam = families.HahnQ(p=mu - nu - 0.5, q=mu + nu + 0.5, N=-(mu + nu + 0.5))
        alt = _printed_alt(families.ContHahnH(p=-(mu + xi), q=1 - (mu + xi),
                                              c=2 * mu + xi + 0.5 + nu,
                                              d=2 * mu + xi + 0.5 - nu))
        return ClassSolution(ClassId.K1, p, basis, sym, Binding(fam, -(mu + xi)),
                             Omega(0.25, -1), free=free, alt_binding=alt)

    def __init__(self, p, sym, mu, tau):
        self.mu, self.chi_sq, self.sp = mu, sym.nu_sq, 0.0
        self.u_const = 4 * (sym.xi + mu)

    def a_n(self, n):
        mu = self.mu
        return -2 * mu * ((n + mu + 0.5) ** 2 - self.chi_sq) / ((n + mu) * (n + mu + 1))


class _L39C(_Row):
    free = ("tau",)

    @staticmethod
    def resolve(p, free):
        tau = free["tau"]
        beta = (tau + 1 - p.b) / 2
        w = 4 * p.A_one - p.b ** 2
        big_s = w + tau ** 2
        sym = derived_symbols(p, beta=beta)
        basis, notes = _gated_laguerre_basis(p, sym, beta)
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
        return ClassSolution(ClassId.L39C, p, basis, sym, binding, Omega(-0.25, -1),
                             free=free, notes=tuple(notes))

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


class _L39A(_L39C):
    """L39C's recursion at tau = 0, divided through by 4*A1 - b^2 + 1."""
    free = ()   # not L39C's tau

    @staticmethod
    def resolve(p, free):
        w = 4 * p.A_one - p.b ** 2
        beta = (1 - p.b) / 2
        sym = derived_symbols(p, beta=beta)
        basis, notes = _gated_laguerre_basis(p, sym, beta)
        fam = families.MeixnerPollaczekP(lam=sym.nu + 0.5, theta=math.acos((w - 1) / (w + 1)))
        z = (2 * p.A_minus + p.b * (2 - p.a)) / (2 * math.sqrt(w))
        return ClassSolution(ClassId.L39A, p, basis, sym, Binding(fam, z),
                             Omega(-(w + 1) / 4.0, -1), notes=tuple(notes))

    def __init__(self, p, sym, mu, tau):
        w = 4 * p.A_one - p.b ** 2   # > 0 in the region, so w + 1 > 1
        self.nu, self.slope = sym.nu, (w - 1) / (w + 1)
        self.s_scale = self.t_scale = 1.0
        self.u_const = 2 * (-2 * p.A_minus + p.b * (p.a - 2)) / (w + 1)
        self.c = 4.0 * math.sqrt(w) / (w + 1)


class _L39B(_Row):
    c = -1.0   # the eigenvalue variable is z^2 = -nu^2

    @staticmethod
    def resolve(p, free):
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
        basis, notes = _gated_laguerre_basis(p, sym, beta)
        fam = families.ContDualHahnS(p=sym.nu + 1, c=sym.nu, d=sym.zeta - sym.nu + 0.5)
        return ClassSolution(ClassId.L39B, p, basis, sym, Binding(fam, z_sq), Omega(1.0, 0),
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


# class id: (row, admissible region, classify's reason); a redirect has no row
_CLASSES = {
    ClassId.K0: (_K0, (_SQUARE, _REAL_B, _A_PLUS_NONZERO, _REAL_NU, _K0_MU), ""),
    ClassId.K1: (_K1, (_SQUARE, _A_PLUS_ZERO, _FREE_MU, _REAL_NU),
                 "forced constraint pair is b^2 = 1 + 4*A1 and A+ = 0; "
                 "the printed variant with A+ in the square relation is not used"),
    ClassId.C8B: (_C8B, (_SQUARE, _REAL_B, _A_PLUS_ZERO, _FREE_MU, _REAL_NU), ""),
    ClassId.L39A: (_L39A, (_A_PLUS_ZERO, _W_POSITIVE, _REAL_NU_SHOWN), ""),
    ClassId.L39B: (_L39B, (_A_PLUS_ZERO, _SQUARE), ""),
    ClassId.L39C: (_L39C, (_A_PLUS_ZERO, _TAU_NONZERO, _S_POSITIVE, _REAL_NU_SHOWN),
                   "admissible for any deformation tau with 4*A1 - b^2 + tau^2 > 0"),
    ClassId.K2_REDIRECT: (None, (_A_PLUS_ZERO,), "treated in the singular Laguerre basis"),
    ClassId.K3_REDIRECT: (None, (_A_PLUS_ZERO,), "reverts to Bessel-polynomial equation"),
    ClassId.C8C_REDIRECT: (None, (_A_PLUS_ZERO,), "treated in the singular Laguerre basis"),
}


def resolve_class(params: OdeParams, class_id: ClassId, free: dict | None = None,
                  tol: float = DEFAULT_TOL) -> ClassSolution:
    """Resolve one admissible class into a full ClassSolution.

    `free` supplies the free parameters that the class's row declares: mu
    (K1), alpha and mu (C8B), tau (L39C).  Each is read as a float where the
    region first needs it; a missing one, or a key the class does not
    declare, is a ConstraintViolation.
    """
    row = _CLASSES[class_id][0]
    undeclared = sorted((free or {}).keys() - set(row.free if row else ()))
    if undeclared:
        raise ConstraintViolation(f"{class_id.value} does not take free parameters {undeclared}")
    try:
        _, free = _admit(class_id, params, free or {}, tol)
        if row is None:
            raise ConstraintViolation(
                f"{class_id.value} is a documented non-case and has no solution")
        return row.resolve(params, free)
    except OverflowError:  # float ** past double range
        raise SeriesOverflow(f"{class_id.value}: resolving overflows double precision") from None


def _row(sol: ClassSolution, what="recursion coefficients"):
    """The table row of `sol`'s class, bound to its parameters.

    Also the one guard on the imaginary-nu branch of L39B, which resolves
    with a placeholder basis but has no coefficients.
    """
    row_class = _CLASSES[sol.class_id][0]
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

def _bessel_denominators(mu, n: int):
    """(value, label) of each denominator of a bessel-basis row at degree n, a_n's first."""
    return (((n + mu) * (n + mu + 1), "(n+mu)(n+mu+1)"), ((n + mu + 0.5), "n+mu+1/2"),
            ((n + mu + 1.5), "n+mu+3/2"))


def _check_denominators(n: int, denominators):
    for expr, label in denominators:
        if expr == 0.0:
            raise DomainError(f"coefficient denominator {label} vanishes at n={n}")


def _coefficients(sol: ClassSolution):
    """n -> recursion_coeffs(sol, n).  The class row is bound once, after the first
    degree's checks, and each distinct degree is checked and evaluated once, where
    it is first asked for: asking again gives the same triple."""
    check = sol.basis.check_degree
    mu = sol.basis.mu if sol.basis.kind == "bessel" else None
    row, done = None, {}

    def coeffs(n):
        nonlocal row
        if type(n) is not int:  # 2.0 and True must not reach done, which holds 2 and 1
            check(n)
        triple = done.get(n)
        if triple is None:
            check(n)
            if mu is not None:
                _check_denominators(n, _bessel_denominators(mu, n))
            row = row or _row(sol)
            try:
                triple = done[n] = row.u(n), row.s(n), row.t(n)
            except OverflowError:  # float ** past double range
                raise SeriesOverflow(f"{sol.class_id.value}: the recursion coefficients "
                                     f"overflow double precision at n={n}") from None
        return triple

    return coeffs


def recursion_coeffs(sol: ClassSolution, n: int):
    """(u_n, s_n, t_n) of the class's three-term relation."""
    return _coefficients(sol)(n)


# ---------------------------------------------------------------------------
# expansion coefficients and series
# ---------------------------------------------------------------------------

def default_truncation(sol: ClassSolution) -> int:
    """floor(-mu - 1/2 - eps) for finite bessel-basis classes, else 50."""
    return sol.n_max if sol.n_max is not None else 50


def _expansion_list(sol: ClassSolution, N: int) -> list:
    """`expansion_coefficients` as a list of Python floats, which needs no numpy."""
    sol.basis.check_degree(N, "N")
    row = _row(sol)
    b = sol.binding
    values = families.eval_poly_sequence(b.family, N, b.argument)
    f, cn = [1.0], 1.0
    with _quiet_numpy():
        for n in range(1, N + 1):
            sm = row.s(n - 1)
            if sm == 0.0:
                raise ZeroDivisionError(
                    f"s_{n - 1} = 0: the t/s coefficient product is undefined here")
            if sol.class_id is not ClassId.L39B:
                cn *= row.t(n - 1) / sm
            f.append(cn * (b.per_n_scale ** n * values[n]))
    return f


def expansion_coefficients(sol: ClassSolution, N: int) -> np.ndarray:
    """f_0..f_N with f_0 = 1: f_n = (prod_{m<n} t_m/s_m) * P_n(binding argument).

    The family is walked once, up to degree N, before the C_n products: a family
    error at any degree comes before the first s_{n-1} = 0.  The values are
    bit-identical to `sol.binding.eval(n)` degree by degree.  For L39B the
    coefficients are the bound polynomials directly.
    """
    import numpy as np

    return np.array(_expansion_list(sol, N), dtype=float)


def build_series(sol: ClassSolution, N: int) -> SeriesSolution:
    return SeriesSolution(solution=sol, basis=sol.basis, ode=sol.ode,
                          coeffs=expansion_coefficients(sol, N))


def evaluate_series(series: SeriesSolution, x):
    """y_N(x) = sum f_n phi_n(x) for x > 0 (scalar or array), from phi_n alone."""
    import numpy as np

    from .basis import basis_block, series_sum

    vals, _, _ = basis_block(series.basis, series.order, x, derivs=False)
    with np.errstate(over="ignore", invalid="ignore"):
        total = series_sum(series.coeffs, vals)
    if not np.all(np.isfinite(total)):
        raise DomainError("series evaluation produced non-finite values")
    return total


# ---------------------------------------------------------------------------
# definiteness and the Jacobi matrix
# ---------------------------------------------------------------------------

class FavardReport(Record):
    products: np.ndarray   # s_n * t_n for the couplings n = 0..N-1
    definite: bool

    def __iter__(self):
        return iter(self.products)


def _coupling_products(sol: ClassSolution, N: int):
    """The class row, and s_n t_n for n = 0..N-1 as Python floats."""
    sol.basis.check_degree(N, "N")
    row = _row(sol)
    return row, [row.s(n) * row.t(n) for n in range(N)]


def favard_report(sol: ClassSolution, N: int) -> FavardReport:
    """Signs of the coupling products s_n t_n used by an (N+1)-level truncation."""
    import numpy as np

    prods = np.array(_coupling_products(sol, N)[1], dtype=float)
    return FavardReport(products=prods, definite=bool(np.all(prods > 0)))


def _check_last_diagonal(sol: ClassSolution, N: int):
    """Refuse an (N+1)-row Jacobi matrix whose last diagonal entry a_N / c has a
    vanishing denominator: for a Bessel basis, N = n_max at an integer A-.  Those
    below N do not vanish."""
    if sol.basis.kind == "bessel":
        _check_denominators(N, _bessel_denominators(sol.basis.mu, N)[:1])


def _jacobi_lists(sol: ClassSolution, N: int):
    """`jacobi_matrix` as two lists of Python floats, which needs no numpy.

    A product s_n t_n that is not positive though s_n and t_n share their sign
    (it underflowed; at a huge A- both may be 0.0, their denominators having
    overflowed) and an a_n past double range are a SeriesOverflow, not an
    indefinite matrix."""
    row, prods = _coupling_products(sol, N)
    bad = next((n for n, p in enumerate(prods) if not p > 0), None)
    if bad is not None:
        s, t = row.s(bad), row.t(bad)
        if (s == 0) == (t == 0) and (s > 0) == (t > 0):   # one sign, or both zero
            raise _jacobi_overflow(sol, bad)
        raise DefinitenessError(
            f"s_n t_n <= 0 at n={bad} ({prods[bad]:.3e}); no symmetric Jacobi form")
    _check_last_diagonal(sol, N)
    scale = abs(row.c)
    diag = []
    try:
        for n in range(N + 1):
            diag.append(row.a_n(n) / row.c)
    except OverflowError:  # float ** past double range
        raise _jacobi_overflow(sol, n) from None
    return diag, [math.sqrt(p) / scale for p in prods]


def _jacobi_overflow(sol: ClassSolution, n: int):
    return SeriesOverflow(f"{sol.class_id.value}: the Jacobi matrix overflows double "
                          f"precision at n={n}")


def jacobi_matrix(sol: ClassSolution, N: int):
    """Symmetric tridiagonal matrix of the coefficient recursion, size N+1.

    Diagonal a_n / c, off-diagonal sqrt(s_n t_n)/|c| coupling levels n, n+1.
    Eigenvalues approximate the discrete support of the coefficient
    polynomials' measure in the binding variable.
    """
    import numpy as np

    return tuple(np.array(v, dtype=float) for v in _jacobi_lists(sol, N))


def tridiag_eigenvalues(diag, off):
    """Ascending eigenvalues of a symmetric tridiagonal matrix."""
    import numpy as np

    from . import _lapack  # only the commands that solve an eigenproblem load it

    return np.array(_lapack.all_eigenvalues(diag, off), dtype=float)
