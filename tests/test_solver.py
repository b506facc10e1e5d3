import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from trabessel import (ClassId, OdeParams, alt_binding_deviation, build_series,
                       classify, closed_form_cn, default_truncation,
                       dual_hahn_rejection, evaluate_series,
                       expansion_coefficients, favard_report, jacobi_matrix,
                       recursion_coeffs, resolve_class, tridiag_eigenvalues,
                       tridiagonality_sweep, u_decomposition)
from trabessel.basis import basis_block
from trabessel.errors import (ConstraintViolation, DefinitenessError,
                              DomainError, RealityViolation, SeriesOverflow,
                              TraError)
from trabessel.families import (ContDualHahnS, DeformedB, DeformedY, DeformedZ,
                                HahnQ, MeixnerPollaczekP, eval_poly)
from trabessel.solver import derived_symbols

from conftest import DECAY_SETS, DOCUMENTED


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_k0_only():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    reports = classify(p, tol=1e-12)
    assert [r.class_id for r in reports] == [ClassId.K0]
    assert reports[0].residuals["b^2 - 1 - 4*A1"] == 0.0


def test_classify_laguerre_classes():
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=2, A_one=1, A_zero=15 / 16)
    ids = {r.class_id for r in classify(p)}
    assert ClassId.L39A in ids and ClassId.L39C in ids
    assert ClassId.K0 not in ids          # b^2 != 1 + 4 A1
    assert ClassId.K1 not in ids and ClassId.L39B not in ids


def test_classify_l39c_with_negative_a1():
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=2, A_one=-0.25, A_zero=15 / 16)
    ids = {r.class_id for r in classify(p)}
    assert ClassId.L39C in ids            # tau absorbs 4 A1 < b^2
    assert ClassId.L39A not in ids


def test_classify_redirect_reasons():
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=2, A_one=1, A_zero=15 / 16)
    by_id = {r.class_id: r for r in classify(p)}
    assert "singular Laguerre basis" in by_id[ClassId.K2_REDIRECT].reason
    assert "Bessel-polynomial" in by_id[ClassId.K3_REDIRECT].reason
    assert "singular Laguerre basis" in by_id[ClassId.C8C_REDIRECT].reason


def test_classify_empty_result_is_valid():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=3.0, A_zero=2)
    assert classify(p) == []


# on a boundary, 1e-13 off it (inside the default tol), and on either side of it;
# -1e-10 puts K0's mu in (-1/2 - 1e-9, -1/2), where the basis has no degree
_OFFSETS = st.sampled_from((0.0, 1e-13, -1e-13, -1e-10, 0.3, -0.3, 2.0, -2.0))


@st.composite
def _boundary_draws(draw):
    """OdeParams placed by one offset from each relation of the six regions:
    b^2 = 1 + 4*A1 (or 4*A1 = b^2, or A1 = -1/4 at b = 0), A+ = 0, nu^2 = 0
    and K0's mu = -1/2."""
    a, b = draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.0, 2.0))
    anchor = draw(st.sampled_from(("square", "4*A1 = b^2", "A1 = -1/4")))
    if anchor == "square":
        A1 = (b ** 2 - 1) / 4 + draw(_OFFSETS)
    elif anchor == "4*A1 = b^2":
        A1 = b ** 2 / 4 + draw(_OFFSETS)
    else:
        b, A1 = 0.0, -0.25 + draw(_OFFSETS)
    return OdeParams(a=a, b=b, A_plus=draw(_OFFSETS),
                     A_minus=b * (a / 2 - 1) + 0.5 - draw(_OFFSETS),
                     A_one=A1, A_zero=-0.25 * (a - 1) ** 2 + draw(_OFFSETS))


@given(p=_boundary_draws())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_classify_admits_exactly_what_resolve_accepts(p):
    """A class is reported by classify exactly when resolve_class, given free
    parameters inside its region, raises no Constraint- or RealityViolation;
    a bessel basis it accepts has at least one degree."""
    admitted = {r.class_id for r in classify(p)}
    tau = math.sqrt(abs(4 * p.A_one - p.b ** 2) + 2.5)   # 4*A1 - b^2 + tau^2 >= 2.5
    in_region = {ClassId.K0: {}, ClassId.K1: {"mu": -2.5},
                 ClassId.C8B: {"alpha": -2.0, "mu": -2.5}, ClassId.L39A: {},
                 ClassId.L39B: {}, ClassId.L39C: {"tau": tau}}
    for cid, free in in_region.items():
        try:
            sol = resolve_class(p, cid, free)
            accepted = True
            assert sol.n_max is None or sol.n_max >= 0, (cid, p)
        except (ConstraintViolation, RealityViolation):
            accepted = False
        except TraError:   # past the region: the build itself failed
            accepted = True
        assert (cid in admitted) == accepted, (cid, p)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_classify_and_resolve_refuse_a_tol_that_is_not_positive(tol):
    p, _ = DOCUMENTED[ClassId.K0]
    for call in (lambda: classify(p, tol), lambda: resolve_class(p, ClassId.K0, tol=tol)):
        with pytest.raises(ValueError, match="tol must be positive"):
            call()


def test_parameters_past_double_range_raise_series_overflow():
    """A square of a parameter past 1e154 overflows: in a constraint of the
    region (classify, resolve K0) or in the build of a class (L39B's nu^2)."""
    k0 = OdeParams(a=1e200, b=0, A_plus=-1, A_minus=20.5, A_one=-0.25, A_zero=2)
    l39b = OdeParams(a=1e200, b=0, A_plus=0, A_minus=0.5, A_one=-0.25, A_zero=2)
    for call in (lambda: classify(k0), lambda: resolve_class(k0, ClassId.K0),
                 lambda: resolve_class(l39b, ClassId.L39B)):
        with pytest.raises(SeriesOverflow, match="overflow"):
            call()


def test_redirects_never_resolve():
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=2, A_one=1, A_zero=15 / 16)
    with pytest.raises(ConstraintViolation):
        resolve_class(p, ClassId.K2_REDIRECT)


# ---------------------------------------------------------------------------
# resolution and bindings
# ---------------------------------------------------------------------------

def test_resolve_k0_basis_and_binding():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    assert sol.basis.alpha == approx(-4.5)
    assert sol.basis.beta == approx(0.5)
    assert sol.basis.mu == approx(-5.0)
    assert isinstance(sol.binding.family, DeformedB)
    assert sol.binding.argument == approx(-8.0)   # z = 4 nu^2 / A+
    assert sol.binding.family.gamma == approx(-4.0)
    assert sol.omega_description() == "-0.25"


def test_resolve_l39b_binding():
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=0.5, A_one=-0.25, A_zero=15 / 16)
    sol = resolve_class(p, ClassId.L39B)
    fam = sol.binding.family
    assert isinstance(fam, ContDualHahnS)
    assert (fam.p, fam.c, fam.d) == approx((2.0, 1.0, 0.0))
    assert sol.binding.argument == approx(-1.0)   # z^2 = -nu^2


def test_resolve_l39a_binding():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    fam = sol.binding.family
    assert isinstance(fam, MeixnerPollaczekP)
    assert fam.lam == approx(1.5)
    assert math.cos(fam.theta) == approx(3 / 5)
    assert sol.binding.argument == approx(1.0)


def test_resolve_l39c_regimes():
    p, _ = DOCUMENTED[ClassId.L39C]
    sol = resolve_class(p, ClassId.L39C, {"tau": 3.0})
    assert isinstance(sol.binding.family, DeformedZ)   # |eta| > 1
    p2 = OdeParams(a=1.5, b=0, A_plus=0, A_minus=1, A_one=1.0, A_zero=15 / 16)
    sol2 = resolve_class(p2, ClassId.L39C, {"tau": 0.5})
    assert isinstance(sol2.binding.family, DeformedY)  # |eta| < 1
    assert sol2.binding.family.eta == approx(0.5 / math.sqrt(4.25))


@pytest.mark.parametrize("cid, key", [(ClassId.K0, "mu"), (ClassId.L39A, "tau"),
                                      (ClassId.L39B, "mu"), (ClassId.K1, "alpha"),
                                      (ClassId.C8B, "tau")])
def test_resolve_refuses_a_free_parameter_the_class_does_not_declare(cid, key):
    """Such a key used to be ignored: K0 with mu gave K0's plain solution."""
    p, free = DOCUMENTED[cid]
    with pytest.raises(ConstraintViolation) as err:
        resolve_class(p, cid, {**free, key: 3.0})
    assert str(err.value) == f"{cid.value} does not take free parameters ['{key}']"


def test_resolve_missing_free_parameters():
    p, _ = DOCUMENTED[ClassId.K1]
    with pytest.raises(ConstraintViolation):
        resolve_class(p, ClassId.K1)
    p, _ = DOCUMENTED[ClassId.C8B]
    with pytest.raises(ConstraintViolation):
        resolve_class(p, ClassId.C8B, {"mu": -10.0})
    p, _ = DOCUMENTED[ClassId.L39C]
    with pytest.raises(ConstraintViolation):
        resolve_class(p, ClassId.L39C)


@pytest.mark.parametrize("cid, free, field, value", [
    (ClassId.K1, {"mu": -math.inf}, "alpha", -math.inf),   # alpha = mu + 1 - a/2
    (ClassId.C8B, {"alpha": math.inf, "mu": -12.5}, "alpha", math.inf),
    (ClassId.L39C, {"tau": math.inf}, "beta", math.inf),   # beta = (tau + 1 - b)/2
    (ClassId.L39C, {"tau": -math.inf}, "beta", -math.inf),
])
def test_resolve_refuses_a_non_finite_basis(cid, free, field, value):
    """These used to resolve: K1's n_max and C8B's coefficients then raised a
    bare OverflowError, and L39C bound DeformedY(theta=nan, eta=nan)."""
    p, _ = DOCUMENTED[cid]
    with pytest.raises(DomainError) as err:
        resolve_class(p, cid, free)
    assert str(err.value) == f"BasisSpec.{field} must be finite (got {value})"


_DEGREE_ENTRY_POINTS = [  # (call on (sol, degree), the name its messages give the degree)
    pytest.param(recursion_coeffs, "n", id="recursion_coeffs"),
    pytest.param(expansion_coefficients, "N", id="expansion_coefficients"),
    pytest.param(favard_report, "N", id="favard_report"),
    pytest.param(jacobi_matrix, "N", id="jacobi_matrix"),
    pytest.param(lambda sol, n: tridiagonality_sweep(sol, [n]), "n", id="tridiagonality_sweep"),
    pytest.param(lambda sol, n: basis_block(sol.basis, n, 1.0), "degree", id="basis_block"),
    pytest.param(closed_form_cn, "n", id="closed_form_cn"),
]


@pytest.mark.parametrize("call, name", _DEGREE_ENTRY_POINTS)
def test_every_degree_entry_point_keeps_the_basis_rule(call, name):
    """K0's basis has degrees 0..n_max = 19 (mu = -20.5); every entry point
    that takes a degree refuses the rest with one of the basis's three messages."""
    p, free = DOCUMENTED[ClassId.K0]
    sol = resolve_class(p, ClassId.K0, free)
    for n, message in [(20, f"{name}=20 exceeds the basis bound n_max=19 (mu=-20.5)"),
                       (-1, f"{name} must be nonnegative"),
                       (2.0, f"{name} must be an integer, not 2.0")]:
        with pytest.raises(DomainError) as err:
            call(sol, n)
        assert type(err.value) is DomainError and str(err.value) == message, n


def test_reality_violations():
    # nu^2 < 0 rejected everywhere except L39B
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=-3.0)
    with pytest.raises(RealityViolation):
        resolve_class(p, ClassId.K0)
    p = OdeParams(a=1, b=0, A_plus=0, A_minus=5, A_one=-0.25, A_zero=-3.0)
    with pytest.raises(RealityViolation):
        resolve_class(p, ClassId.K1, {"mu": -8.5})
    sol = resolve_class(p, ClassId.L39B)
    assert sol.symbols.nu_imaginary
    assert sol.binding.argument == approx(3.0)   # z^2 = -nu^2 stays real
    with pytest.raises(RealityViolation):
        recursion_coeffs(sol, 0)


def _imaginary_nu_l39b():
    p = OdeParams(a=1, b=0, A_plus=0, A_minus=5, A_one=-0.25, A_zero=-3.0)
    sol = resolve_class(p, ClassId.L39B)
    assert sol.symbols.nu_imaginary
    return sol


def test_imaginary_nu_l39b_has_no_closed_form_cn():
    """The continuous branch has no coefficients, so no C_n either."""
    with pytest.raises(RealityViolation, match="L39B coefficient formulas need real nu"):
        closed_form_cn(_imaginary_nu_l39b(), 3)


def test_imaginary_nu_l39b_has_no_dual_hahn_reading():
    with pytest.raises(RealityViolation, match="L39B coefficient formulas need real nu"):
        dual_hahn_rejection(_imaginary_nu_l39b())


def test_constraint_violation_reports_relation():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=0.5, A_zero=2)
    with pytest.raises(ConstraintViolation) as err:
        resolve_class(p, ClassId.K0)
    assert "b^2" in str(err.value)


def _resolve_error(cid, free=None, tol=1e-12, exc=ConstraintViolation, message="",
                   **changes):
    """One resolve_class failure: the documented set of `cid` with `changes`.
    A case that sets `free` is refused for its free parameters."""
    doc_ode, doc_free = DOCUMENTED.get(cid, DOCUMENTED[ClassId.L39A])
    ode = OdeParams(**{**vars(doc_ode), **changes})
    label = [cid.value] + [f"{k}={v:g}" for k, v in changes.items()]
    if free is not None:
        label += [f"{k}={v:g}" for k, v in free.items()] or ["no-free"]
    reads_free, free = free is not None, doc_free if free is None else free
    return pytest.param(cid, ode, free, tol, exc, message, reads_free, id="-".join(label))


_RESOLVE_ERRORS = [
    _resolve_error(ClassId.K0, A_one=0.5, message="b^2 = 1 + 4*A1 (residual 3.000e+00)"),
    _resolve_error(ClassId.K0, A_one=-0.25 - 1e-13,
                   message="A1 >= -1/4 (reality of b) (residual -2.500e-01)"),
    _resolve_error(ClassId.K0, A_plus=0.0,
                   message="A+ must be nonzero for K0 (residual 0.000e+00)"),
    _resolve_error(ClassId.K0, A_zero=-3.0, exc=RealityViolation,
                   message="K0 needs 4*A0 >= -(a-1)^2; nu^2 = -3.0 < 0"),
    _resolve_error(ClassId.K0, A_minus=0.0,
                   message="mu < -1/2 (at least one basis degree) (residual -0.000e+00)"),
    # mu in (-1/2 - 1e-9, -1/2): below -1/2, but n_max = -1
    _resolve_error(ClassId.K0, A_minus=0.5 + 1e-10,
                   message="mu < -1/2 (at least one basis degree) (residual -5.000e-01)"),
    # K0 checks nu before mu ...
    _resolve_error(ClassId.K0, A_minus=0.0, A_zero=-3.0, exc=RealityViolation,
                   message="K0 needs 4*A0 >= -(a-1)^2; nu^2 = -3.0 < 0"),
    _resolve_error(ClassId.K1, A_one=0.5, message="b^2 = 1 + 4*A1 (residual 3.000e+00)"),
    _resolve_error(ClassId.K1, A_plus=1.0, message="A+ = 0 (residual 1.000e+00)"),
    _resolve_error(ClassId.K1, free={}, message="K1 needs free parameters ['mu']"),
    _resolve_error(ClassId.K1, free={"mu": -0.25}, message="mu < -1/2 (residual -2.500e-01)"),
    _resolve_error(ClassId.K1, free={"mu": -0.5 - 1e-10},
                   message="mu < -1/2 (residual -5.000e-01)"),
    _resolve_error(ClassId.K1, A_zero=-3.0, exc=RealityViolation,
                   message="K1 needs 4*A0 >= -(a-1)^2; nu^2 = -3.0 < 0"),
    # ... while K1 checks mu before nu
    _resolve_error(ClassId.K1, A_zero=-3.0, free={"mu": -0.25},
                   message="mu < -1/2 (residual -2.500e-01)"),
    _resolve_error(ClassId.C8B, A_one=0.5, message="b^2 = 1 + 4*A1 (residual 3.000e+00)"),
    _resolve_error(ClassId.C8B, A_one=-0.3, tol=0.5,
                   message="A1 >= -1/4 (reality of b) (residual -3.000e-01)"),
    _resolve_error(ClassId.C8B, A_plus=1.0, message="A+ = 0 (residual 1.000e+00)"),
    _resolve_error(ClassId.C8B, free={}, message="C8B needs free parameters ['alpha', 'mu']"),
    _resolve_error(ClassId.C8B, free={"mu": -12.5},
                   message="C8B needs free parameters ['alpha']"),
    _resolve_error(ClassId.C8B, free={"alpha": -12.05, "mu": -0.25},
                   message="mu < -1/2 (residual -2.500e-01)"),
    _resolve_error(ClassId.C8B, free={"alpha": -12.05, "mu": -0.5 - 1e-10},
                   message="mu < -1/2 (residual -5.000e-01)"),
    _resolve_error(ClassId.C8B, A_zero=-3.0, exc=RealityViolation,
                   message="C8B needs 4*A0 >= -(a-1)^2; nu^2 = -2.9375 < 0"),
    _resolve_error(ClassId.L39A, A_plus=1.0, message="A+ = 0 (residual 1.000e+00)"),
    _resolve_error(ClassId.L39A, A_one=0.0, message="4*A1 > b^2 (residual 0.000e+00)"),
    _resolve_error(ClassId.L39A, A_zero=-3.0, exc=RealityViolation,
                   message="L39A needs 4*A0 >= -(a-1)^2; nu^2 = -2.9375 < 0"),
    _resolve_error(ClassId.L39B, A_plus=1.0, message="A+ = 0 (residual 1.000e+00)"),
    _resolve_error(ClassId.L39B, A_one=1.0, message="b^2 = 1 + 4*A1 (residual 5.000e+00)"),
    _resolve_error(ClassId.L39C, A_plus=1.0, message="A+ = 0 (residual 1.000e+00)"),
    _resolve_error(ClassId.L39C, free={}, message="L39C needs free parameters ['tau']"),
    _resolve_error(ClassId.L39C, free={"tau": 0.0},
                   message="tau != 0 (tau = 0 is the undeformed class) (residual 0.000e+00)"),
    _resolve_error(ClassId.L39C, free={"tau": 0.5},
                   message="4*A1 - b^2 + tau^2 > 0 (residual -7.500e-01)"),
    _resolve_error(ClassId.L39C, A_zero=-3.0, exc=RealityViolation,
                   message="L39C needs 4*A0 >= -(a-1)^2; nu^2 = -2.9375 < 0"),
    _resolve_error(ClassId.L39C, A_one=-0.5, free={"tau": math.sqrt(3.0)},
                   message="no discrete Z representation at 4*A1 - b^2 + tau^2 = 1 "
                           "(diagonal slope vanishes)"),
] + [_resolve_error(cid, message=f"{cid.value} is a documented non-case and has no solution")
     for cid in ClassId if cid.is_redirect]


@pytest.mark.parametrize("cid,ode,free,tol,exc,message,reads_free", _RESOLVE_ERRORS)
def test_resolve_class_errors_pinned(cid, ode, free, tol, exc, message, reads_free):
    """Every refusal of resolve_class, with its exact type and text; the
    precedence cases show which check each class makes first.  A refusal
    that no free parameter decides keeps the class out of classify."""
    with pytest.raises(TraError) as err:
        resolve_class(ode, cid, free, tol)
    assert type(err.value) is exc and str(err.value) == message
    if not (reads_free or cid.is_redirect):
        assert cid not in {r.class_id for r in classify(ode, tol)}


_EXPONENT_NOTE = ("laguerre exponent -nu-(a+1)/2 failed the operator check; "
                  "adopted -nu+(1-a)/2")


def test_laguerre_exponent_gate_recorded():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    assert sol.basis.exponent == -sol.symbols.nu + (1 - p.a) / 2
    assert sol.notes == (_EXPONENT_NOTE,)


# b = 0, a = 3/2, A0 = 15/16: nu = 1, so the root of the indicial equation is -5/4
_LARGE_A_MINUS = [
    pytest.param(cid, OdeParams(a=1.5, b=0.0, A_plus=0.0, A_minus=a_minus, A_one=a_one,
                                A_zero=15 / 16), free, id=f"{cid.value}-Am{a_minus:g}")
    for cid, a_one, free in ((ClassId.L39A, 1.0, {}), (ClassId.L39B, -0.25, {}),
                             (ClassId.L39C, 1.0, {"tau": -0.5}))
    for a_minus in (1e8, 1e10, 1e12)]


@pytest.mark.parametrize("cid,p,free", _LARGE_A_MINUS)
def test_laguerre_exponent_is_the_indicial_root_at_large_a_minus(cid, p, free):
    """Only the root keeps the sweep at roundoff: the printed exponent
    -nu-(a+1)/2 leaves 2nu+1 in D phi_0 / phi_0, small beside A-/x but not
    zero, and reads 1.3e-8 at A- = 1e8."""
    sol = resolve_class(p, cid, free)
    assert sol.basis.exponent == -sol.symbols.nu + (1 - p.a) / 2
    assert sol.notes[0] == _EXPONENT_NOTE
    assert tridiagonality_sweep(sol, range(9)).max_rel_deviation <= 1e-13


def test_resolve_builds_no_basis_block(monkeypatch):
    """Resolving is algebra on the parameters: no basis function is evaluated."""
    def refuse(*args, **kwargs):
        raise AssertionError("basis_block called while resolving")

    monkeypatch.setattr("trabessel.basis.basis_block", refuse)  # its only binding
    for cid, (p, free) in list(DOCUMENTED.items()) + list(DECAY_SETS.items()):
        assert resolve_class(p, cid, free).class_id is cid


def test_overflowing_laguerre_prefactor_fails_at_evaluation():
    """nu = 1000: x^exponent overflows below x ~ 0.5, which is a property of
    the grid, so resolving succeeds and the evaluation raises SeriesOverflow."""
    p = OdeParams(a=1.5, b=0.0, A_plus=0.0, A_minus=2.0, A_one=1.0, A_zero=1e6)
    sol = resolve_class(p, ClassId.L39A)
    series = build_series(sol, 5)
    assert np.all(np.isfinite(evaluate_series(series, np.array([1.0, 2.0]))))
    with pytest.raises(SeriesOverflow, match="overflows double precision on this grid"):
        evaluate_series(series, np.array([0.05, 1.0]))


def test_derived_symbols_recomputation():
    p, free = DOCUMENTED[ClassId.C8B]
    sol = resolve_class(p, ClassId.C8B, free)
    s = sol.symbols
    alpha, mu = free["alpha"], free["mu"]
    assert s.nu_sq == approx(p.A_zero + 0.25 * (p.a - 1) ** 2)
    assert s.xi == approx(p.A_minus + p.b * (1 - p.a / 2))
    assert s.zeta == approx(-p.A_minus + s.nu + p.b * (p.a / 2 - 1))
    assert s.kappa == approx(s.xi + p.a / 2 + alpha - 1)
    half = alpha + (p.a - 1) / 2
    assert s.sigma_plus == approx(-(mu + 0.5) + half)
    assert s.sigma_minus == approx(-(mu + 0.5) - half)
    assert s.chi_sq == approx(s.nu_sq + s.sigma_plus * s.sigma_minus)
    assert derived_symbols(p, beta=0.5).tau == approx(2 * 0.5 + p.b - 1)


# ---------------------------------------------------------------------------
# recursion coefficients
# ---------------------------------------------------------------------------

def test_k0_coefficients_frozen():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    u0, s0, t0 = recursion_coeffs(sol, 0)
    assert u0 == approx(-72.5)
    assert s0 == approx(-1 / 14)
    assert t0 == approx(-0.5)


def test_l39a_coefficients_frozen():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    u0, s0, t0 = recursion_coeffs(sol, 0)
    assert u0 == approx(-3.4)
    assert s0 == approx(3.0)
    assert t0 == approx(1.0)


def test_l39b_coefficients_frozen():
    p, _ = DOCUMENTED[ClassId.L39B]
    sol = resolve_class(p, ClassId.L39B)
    _, s0, t0 = recursion_coeffs(sol, 0)
    assert s0 == approx(6.0)    # (2nu+1)(zeta+3/2) with nu=1, zeta=1/2
    assert t0 == approx(1.0)


def test_constraint_closure_k0():
    """Eliminated terms vanish identically for every resolved K0 solution."""
    for A_minus in (5.0, 20.5, 3.3):
        p = OdeParams(a=1, b=0, A_plus=-1, A_minus=A_minus, A_one=-0.25, A_zero=2)
        sol = resolve_class(p, ClassId.K0)
        assert p.A_one + 0.25 * (1 - p.b ** 2) == approx(0.0, abs=1e-14)
        assert p.A_minus + p.b * (1 - p.a / 2) + sol.basis.mu == approx(0.0, abs=1e-12)


def test_recursion_degree_guards():
    p, free = DOCUMENTED[ClassId.K1]
    sol = resolve_class(p, ClassId.K1, free)
    with pytest.raises(DomainError):
        recursion_coeffs(sol, sol.n_max + 1)
    with pytest.raises(DomainError):
        recursion_coeffs(sol, -1)


def test_u_decomposition_c_constant():
    """u_n - a_n must equal -z*c with c independent of n."""
    for cid, (p, free) in DOCUMENTED.items():
        sol = resolve_class(p, cid, free)
        a_n, c = u_decomposition(sol)
        z = sol.binding.argument if not isinstance(
            sol.binding.family, DeformedZ) else None
        if z is None:
            # the Z-form argument is remapped; recover z from its Y-form value
            w = 4 * p.A_one - p.b ** 2
            tau = sol.free["tau"]
            z = (2 * p.A_minus + p.b * (2 - p.a)) / (2 * math.sqrt(w + tau ** 2))
        diffs = [recursion_coeffs(sol, n)[0] - a_n(n) for n in range(6)]
        assert max(diffs) - min(diffs) <= 1e-9 * max(1.0, abs(diffs[0]))
        assert diffs[0] == approx(-z * c, rel=1e-10)


def _degree_entry_points():
    """Entry points that take a degree, on L39A (the alternative binding on K1),
    each returning plain data."""
    from trabessel import LaguerreL, eval_poly, pochhammer, tridiagonality_sweep
    from trabessel.basis import basis_block
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    k1_ode, k1_free = DOCUMENTED[ClassId.K1]
    k1 = resolve_class(k1_ode, ClassId.K1, k1_free)
    x = np.linspace(0.5, 4.0, 8)
    return {
        "eval_poly": lambda n: eval_poly(LaguerreL(1), n, 0.5),
        "basis_block": lambda n: [rows.tolist() for rows in basis_block(sol.basis, n, x)],
        "expansion_coefficients": lambda n: expansion_coefficients(sol, n).tolist(),
        "tridiagonality_sweep": lambda n: list(tridiagonality_sweep(sol, [n]).per_n.values()),
        "recursion_coeffs": lambda n: recursion_coeffs(sol, n),
        "favard_report": lambda n: favard_report(sol, n).products.tolist(),
        "jacobi_matrix": lambda n: [part.tolist() for part in jacobi_matrix(sol, n)],
        "alt_binding_deviation": lambda n: alt_binding_deviation(k1, n),
        "pochhammer": lambda n: pochhammer(0.5, n),
    }


@pytest.mark.parametrize("entry", ["eval_poly", "basis_block", "expansion_coefficients",
                                   "tridiagonality_sweep", "recursion_coeffs",
                                   "favard_report", "jacobi_matrix",
                                   "alt_binding_deviation", "pochhammer"])
def test_a_degree_must_be_an_integer(entry):
    """True, 2.0, 2.5 and np.float64(2.0) are DomainErrors; np.int64(3)
    gives what 3 gives."""
    call = _degree_entry_points()[entry]
    for n in (True, 2.0, 2.5, np.float64(2.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            call(n)
    assert call(np.int64(3)) == call(3)


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------

def test_c0_is_one_everywhere():
    for cid, (p, free) in DOCUMENTED.items():
        sol = resolve_class(p, cid, free)
        f = expansion_coefficients(sol, 0)
        assert f[0] == 1.0


def test_k0_c1_frozen():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    _, s0, t0 = recursion_coeffs(sol, 0)
    assert t0 / s0 == approx(7.0)
    assert closed_form_cn(sol, 1) == approx(7.0)


def test_l39a_c2_frozen():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    assert closed_form_cn(sol, 2) == approx(1 / 6)  # n!/(2nu+1)_n at n=2, nu=1


def test_closed_form_cn_checks_the_degree():
    """n < 0 in every class, and n past n_max of a Bessel basis, raise
    DomainError under the basis's rule, as expansion_coefficients does."""
    beyond = {ClassId.K0: "n=20 exceeds the basis bound n_max=19 (mu=-20.5)",
              ClassId.K1: "n=12 exceeds the basis bound n_max=11 (mu=-12.5)",
              ClassId.C8B: "n=12 exceeds the basis bound n_max=11 (mu=-12.5)"}
    for cid, (p, free) in DOCUMENTED.items():
        sol = resolve_class(p, cid, free)
        cases = [(-1, "n must be nonnegative"), (-3, "n must be nonnegative")]
        if cid in beyond:
            assert math.isfinite(closed_form_cn(sol, sol.n_max))
            cases.append((sol.n_max + 1, beyond[cid]))
        for n, message in cases:
            with pytest.raises(DomainError) as exc:
                closed_form_cn(sol, n)
            assert type(exc.value) is DomainError and str(exc.value) == message, (cid, n)


def test_closed_form_cn_overflow_is_a_series_overflow():
    """From n = 171 on, n! leaves double range: the closed form of L39A and
    L39C raises SeriesOverflow (exit 3), not Python's OverflowError."""
    for cid in (ClassId.L39A, ClassId.L39C):
        p, free = DOCUMENTED[cid]
        sol = resolve_class(p, cid, free)
        assert closed_form_cn(sol, 170) == 0.0
        with pytest.raises(SeriesOverflow) as exc:
            closed_form_cn(sol, 171)
        assert str(exc.value) == "closed-form C_n overflows double precision at n=171"


def test_coefficient_route_equivalence():
    """prod t/s equals the printed closed form C_n, n <= 10, 1e-12 relative."""
    for cid in (ClassId.K0, ClassId.K1, ClassId.C8B, ClassId.L39A, ClassId.L39C):
        p, free = DOCUMENTED[cid]
        sol = resolve_class(p, cid, free)
        cap = min(10, sol.n_max or 10)
        prod = 1.0
        for n in range(1, cap + 1):
            u, s, t = recursion_coeffs(sol, n - 1)
            prod *= t / s
            closed = closed_form_cn(sol, n)
            assert prod == approx(closed, rel=1e-12), (cid, n)


def test_binding_route_matches_direct_recursion():
    """f_n via the family binding equals the raw three-term recursion for Q_n."""
    for cid, (p, free) in DOCUMENTED.items():
        sol = resolve_class(p, cid, free)
        cap = min(8, sol.n_max or 8)
        f = expansion_coefficients(sol, cap)
        q = [1.0]
        for n in range(cap):
            u, s, t = recursion_coeffs(sol, n)
            t_prev = recursion_coeffs(sol, n - 1)[2] if n else 0.0
            q.append(-(u * q[-1] + t_prev * (q[-2] if n else 0.0)) / s)
        assert np.allclose(f, q, rtol=1e-9), cid


def test_c8b_branches_agree():
    """The binding reads nu as +nu; the -nu reading's C_n Q_n are the same f_n."""
    p, free = DOCUMENTED[ClassId.C8B]
    sol = resolve_class(p, ClassId.C8B, free)
    nu, mu = sol.symbols.nu, free["mu"]
    half = free["alpha"] + (p.a - 1) / 2
    minus = HahnQ(p=half - 1 - nu, q=2 * mu + 1 - half + nu, N=-half - nu)
    cn, want = 1.0, []
    for n in range(9):
        want.append(cn * eval_poly(minus, n, sol.binding.argument))
        _, s, t = recursion_coeffs(sol, n)
        cn *= t / s
    assert np.allclose(expansion_coefficients(sol, 8), want, rtol=1e-9)


def test_l39c_continuity_to_l39a():
    """tau -> 0 reproduces the undeformed recursion up to overall scale."""
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=2, A_one=1, A_zero=15 / 16)
    base = resolve_class(p, ClassId.L39A)
    for tau in (1e-3, 1e-5):
        deformed = resolve_class(p, ClassId.L39C, {"tau": tau})
        for n in range(5):
            u_d, s_d, t_d = recursion_coeffs(deformed, n)
            u_a, s_a, t_a = recursion_coeffs(base, n)
            scale = t_d / t_a
            assert u_d / scale == approx(u_a, rel=50 * tau)
            assert s_d / scale == approx(s_a, rel=50 * tau)


def test_expansion_zero_division():
    # s_n vanishes identically at 4 A1 - b^2 + (tau-1)^2 = 0
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=1, A_one=-0.25, A_zero=15 / 16)
    sol = resolve_class(p, ClassId.L39C, {"tau": 2.0})
    with pytest.raises(ZeroDivisionError):
        expansion_coefficients(sol, 3)


def _per_degree_coefficients(sol, N):
    """Reference: C_n * binding.eval(n), the family recursed afresh per degree,
    after the family stage: binding.eval(N) raises the family's error at any
    degree up to N before the first s_{n-1} = 0."""
    sol.binding.eval(N)
    f = np.empty(N + 1)
    f[0] = 1.0
    cn = 1.0
    for n in range(1, N + 1):
        _, s_m, t_m = recursion_coeffs(sol, n - 1)
        if s_m == 0.0:
            raise ZeroDivisionError(
                f"s_{n-1} = 0: the t/s coefficient product is undefined here")
        if sol.class_id is not ClassId.L39B:
            cn *= t_m / s_m
        f[n] = cn * sol.binding.eval(n)
    return f


def _outcome(fn, sol, N):
    try:
        return fn(sol, N)
    except (ArithmeticError, DomainError) as exc:
        return exc


def _case(label, params, cid, N=None):
    """N = None means the class's default truncation."""
    return pytest.param(params, cid, N, id=f"{label}-N{'default' if N is None else N}")


_EXPANSION_CASES = (
    [_case(f"{cid.value}-doc", DOCUMENTED[cid], cid, N)
     for cid in (ClassId.L39A, ClassId.L39B, ClassId.L39C) for N in (0, 1, 50, 200)]
    + [_case(f"{cid.value}-decay", DECAY_SETS[cid], cid, N)
       for cid in DECAY_SETS for N in (0, 1, 50, 200)]
    + [_case(f"{cid.value}-doc", DOCUMENTED[cid], cid, N)
       for cid in (ClassId.K0, ClassId.K1, ClassId.C8B) for N in (0, 1, None)]
    + [
        # the DeformedB recursion overflows at degree 54 of 99
        _case("K0-Am100.5", (OdeParams(a=1, b=0, A_plus=-1, A_minus=100.5,
                                       A_one=-0.25, A_zero=2), {}), ClassId.K0),
        # s_n = 0 for every n
        _case("L39C-tau2", (OdeParams(a=1.5, b=0, A_plus=0, A_minus=1, A_one=-0.25,
                                      A_zero=15 / 16), {"tau": 2.0}), ClassId.L39C, 3),
        # HahnQ with N = 3 < n_max = 11: the degree bound names the requested degree 11
        _case("C8B-HahnN3", (OdeParams(a=1.5, b=0, A_plus=0, A_minus=2, A_one=-0.25,
                                       A_zero=-0.0625), {"alpha": -3.25, "mu": -12.5}),
              ClassId.C8B),
        # HahnQ with N = 0: the degree bound fails
        _case("K1-HahnN0", (OdeParams(a=1, b=0, A_plus=0, A_minus=3, A_one=-0.25,
                                      A_zero=6.25), {"mu": -3.0}), ClassId.K1),
        # s_0 = 0, and HahnQ's q = -1 is outside its range: the family stage comes
        # first
        _case("K1-s0-HahnQq", (OdeParams(a=1, b=0, A_plus=0, A_minus=-10, A_one=-0.25,
                                         A_zero=0.25), {"mu": -2.0}), ClassId.K1),
    ])


@pytest.mark.parametrize("params,cid,N", _EXPANSION_CASES)
def test_expansion_matches_per_degree_reference(params, cid, N):
    """One recursion pass reproduces the per-degree loop bit for bit, errors
    included: same type, same message, the family stage before the C_n products."""
    ode, free = params
    sol = resolve_class(ode, cid, free)
    N = default_truncation(sol) if N is None else N
    got = _outcome(expansion_coefficients, sol, N)
    want = _outcome(_per_degree_coefficients, sol, N)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


def test_expansion_k0_overflow_is_a_family_domain_error():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=100.5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    with pytest.raises(DomainError,
                       match="DeformedB recursion produced a non-finite value"):
        expansion_coefficients(sol, default_truncation(sol))


_K0_OVERFLOWING = OdeParams(a=1, b=0, A_plus=-1, A_minus=100.5, A_one=-0.25, A_zero=2)


@pytest.mark.parametrize("ode, free, cid, N", [
    (_K0_OVERFLOWING, {}, ClassId.K0, 99),
    (*DOCUMENTED[ClassId.L39C], ClassId.L39C, 800),
], ids=["K0-Am100.5", "L39C-doc-N800"])
def test_numpy_scalar_parameters_give_the_float_outcome(ode, free, cid, N):
    """With numpy loaded, the recursion and the C_n products run under its
    errstate guard: np.float64 parameters give the Python floats' DomainError
    (DeformedB overflows at degree 54), or their array with inf from n = 449
    on, and no RuntimeWarning, which the test settings make an error."""
    scalars = OdeParams(**{key: np.float64(value) for key, value in vars(ode).items()})
    got, want = (_outcome(expansion_coefficients, resolve_class(p, cid, free), N)
                 for p in (scalars, ode))
    if isinstance(want, Exception):
        assert type(got) is DomainError and str(got) == str(want)
        assert str(want) == "DeformedB recursion produced a non-finite value"
    else:
        assert np.isinf(want).any() and np.array_equal(got, want)


@pytest.mark.parametrize("ode, fails", [(DOCUMENTED[ClassId.K0][0], False),
                                        (_K0_OVERFLOWING, True)],
                         ids=["documented", "Am100.5"])
def test_expansion_walks_its_family_once(monkeypatch, ode, fails):
    """One upward recursion per call, whether it passes or fails: at A- = 100.5
    the DeformedB recursion overflows part way and is not stepped again."""
    from trabessel import families
    walks = []
    three_term = families._three_term

    def counted(*args):
        walks.append(args)
        return three_term(*args)
    monkeypatch.setattr(families, "_three_term", counted)
    sol = resolve_class(ode, ClassId.K0)
    if fails:
        with pytest.raises(DomainError, match="DeformedB recursion produced a non-finite"):
            expansion_coefficients(sol, default_truncation(sol))
    else:
        expansion_coefficients(sol, default_truncation(sol))
    assert len(walks) == 1


def test_truncation_bound_enforced():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=2, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)   # mu = -2, n_max = 1
    with pytest.raises(DomainError):
        expansion_coefficients(sol, 50)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def test_single_term_series_value():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    series = build_series(sol, 0)
    assert evaluate_series(series, 1.0) == approx(math.exp(-0.5), rel=1e-12)


def test_series_overflow_reported():
    # C8B leaves alpha free; a large positive exponent overflows at large x
    p, free = DOCUMENTED[ClassId.C8B]
    sol = resolve_class(p, ClassId.C8B, {**free, "alpha": 400.0})
    series = build_series(sol, 0)
    with pytest.raises(SeriesOverflow):
        evaluate_series(series, 10.0)


# ---------------------------------------------------------------------------
# Favard, Jacobi, eigenvalues
# ---------------------------------------------------------------------------

def test_favard_k0():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    rep = favard_report(sol, 4)
    assert rep.definite
    assert rep.products[0] == approx(1 / 28)


def test_favard_guard_violation():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=2, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)   # mu = -2 allows N <= 1
    with pytest.raises(DomainError):
        favard_report(sol, 3)


def test_favard_report_checks_n_as_expansion_coefficients_does():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=2, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)   # mu = -2: n_max = 1
    with pytest.raises(DomainError, match="^N must be nonnegative$"):
        favard_report(sol, -1)
    with pytest.raises(DomainError) as exc:
        favard_report(sol, 3)
    assert str(exc.value) == "N=3 exceeds the basis bound n_max=1 (mu=-2.0)"


def test_jacobi_matrix_refuses_a_vanishing_diagonal_denominator():
    """At integer mu the top degree's a_N divides by (N+mu)(N+mu+1) = 0: the
    DomainError the coefficient checks give, not a ZeroDivisionError."""
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=3, A_one=-0.25, A_zero=0)
    sol = resolve_class(p, ClassId.K0)   # mu = -3: n_max = 2
    with pytest.raises(DomainError) as exc:
        jacobi_matrix(sol, 2)
    assert str(exc.value) == "coefficient denominator (n+mu)(n+mu+1) vanishes at n=2"
    diag, off = jacobi_matrix(sol, 1)
    assert len(diag) == 2 and np.all(np.isfinite(diag)) and len(off) == 1


def test_favard_l39b():
    p, _ = DOCUMENTED[ClassId.L39B]
    sol = resolve_class(p, ClassId.L39B)
    rep = favard_report(sol, 12)
    assert rep.definite and np.all(rep.products > 0)


def test_favard_indefinite_reported():
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=1, A_one=-0.25, A_zero=15 / 16)
    sol = resolve_class(p, ClassId.L39C, {"tau": 2.0})   # s_n = 0 exactly
    rep = favard_report(sol, 4)
    assert not rep.definite
    with pytest.raises(DefinitenessError):
        jacobi_matrix(sol, 4)


def test_jacobi_matrix_symmetric_form_and_reversal():
    p, _ = DOCUMENTED[ClassId.K0]
    sol = resolve_class(p, ClassId.K0)
    diag, off = jacobi_matrix(sol, 10)
    assert len(diag) == 11 and len(off) == 10
    ev = tridiag_eigenvalues(diag, off)
    ev_rev = tridiag_eigenvalues(diag[::-1], off[::-1])
    assert np.max(np.abs(ev - ev_rev)) <= 1e-12 * max(1.0, np.max(np.abs(ev)))


def test_jacobi_k0_entries():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    diag, off = jacobi_matrix(sol, 2)
    # diagonal = -2mu/(mu(mu+1)) + gamma (mu+1/2)^2 at n=0
    assert diag[0] == approx(0.5 + (-4.0) * 20.25)
    assert off[0] == approx(math.sqrt(1 / 28))


def test_tridiag_eigenvalues_trivial():
    assert tridiag_eigenvalues([2.0], []) == approx([2.0])
    assert tridiag_eigenvalues([0.0, 0.0], [1.0]) == approx([-1.0, 1.0])
    ev = tridiag_eigenvalues([2.0, 2.0, 2.0], [1.0, 1.0])
    assert ev == approx([2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])


def test_tridiag_eigenvalues_reject_nonfinite():
    with pytest.raises(DomainError):
        tridiag_eigenvalues([math.inf], [])


def test_tridiag_eigenvalues_reject_mismatched_lengths():
    with pytest.raises(ValueError, match=r"^d \(3\) must have one more element than e \(1\)$"):
        tridiag_eigenvalues([1.0, 2.0, 3.0], [0.5])


def test_tridiag_eigenvalues_one_by_one_is_its_entry():
    ev = tridiag_eigenvalues([-0.1], [])
    assert ev.shape == (1,) and ev[0].hex() == (-0.1).hex()


def test_tridiag_eigenvalues_of_empty_matrix_is_empty():
    ev = tridiag_eigenvalues([], [])
    assert ev.shape == (0,)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_dual_hahn_rejection():
    p, _ = DOCUMENTED[ClassId.L39B]
    sol = resolve_class(p, ClassId.L39B)
    diag = dual_hahn_rejection(sol)
    assert diag["rejected"]
    assert diag["N"] == approx(-3.0)
    assert "nonnegative integer" in diag["contradiction"]
    assert diag["p"] == approx(1.0) and diag["q"] == approx(2.0)


def test_dual_hahn_rejection_wrong_class():
    p, _ = DOCUMENTED[ClassId.K0]
    sol = resolve_class(p, ClassId.K0)
    with pytest.raises(DomainError):
        dual_hahn_rejection(sol)


def test_alt_binding_is_informational():
    for cid in (ClassId.K1, ClassId.C8B):
        p, free = DOCUMENTED[cid]
        sol = resolve_class(p, cid, free)
        assert sol.alt_binding is not None
        assert sol.alt_binding.informational
        # the printed identification fails by a diagonal sign: deviation is large
        assert alt_binding_deviation(sol, 6) > 1.0


@pytest.mark.parametrize("cid,at_bound", [(ClassId.K1, 412235.49557336216),
                                           (ClassId.C8B, 1004158.0657785739)])
def test_alt_binding_deviation_stops_at_the_basis_bound(cid, at_bound):
    """Degrees up to n_max keep their values; past it the recursion
    coefficients do not exist, which is a DomainError."""
    p, free = DOCUMENTED[cid]
    sol = resolve_class(p, cid, free)
    assert alt_binding_deviation(sol, sol.n_max) == at_bound
    for n_max in (sol.n_max + 1, 30):
        with pytest.raises(DomainError):
            alt_binding_deviation(sol, n_max)


def test_hahn_binding_matches_exactly():
    """The Hahn identification, by contrast, reproduces the recursion."""
    p, free = DOCUMENTED[ClassId.K1]
    sol = resolve_class(p, ClassId.K1, free)
    assert isinstance(sol.binding.family, HahnQ)
    f = expansion_coefficients(sol, 8)
    assert np.all(np.isfinite(f))


def test_z_binding_scale_consistency():
    p, free = DOCUMENTED[ClassId.L39C]
    sol = resolve_class(p, ClassId.L39C, free)
    assert isinstance(sol.binding.family, DeformedZ)
    assert sol.binding.per_n_scale != 1.0
    f = expansion_coefficients(sol, 6)
    assert np.all(np.isfinite(f))


def test_z_binding_degenerate_edge():
    # 4 A1 - b^2 + tau^2 = 1 leaves no discrete representation
    p = OdeParams(a=1.5, b=0, A_plus=0, A_minus=1, A_one=-0.5, A_zero=15 / 16)
    with pytest.raises(ConstraintViolation):
        resolve_class(p, ClassId.L39C, {"tau": math.sqrt(3.0)})


def test_evaluate_series_independent_route():
    """Series values rebuilt from families.eval_poly and explicit prefactors."""
    # bessel-basis class
    p, free = DOCUMENTED[ClassId.K0]
    sol = resolve_class(p, ClassId.K0, free)
    series = build_series(sol, 6)
    from trabessel.families import BesselJ, LaguerreL, eval_poly
    for x in (0.3, 1.0, 4.0):
        fam = BesselJ(mu=sol.basis.mu, n_max=6)
        direct = sum(series.coeffs[n]
                     * x ** sol.basis.alpha * math.exp(-sol.basis.beta / x)
                     * eval_poly(fam, n, x) for n in range(7))
        assert evaluate_series(series, x) == approx(direct, rel=1e-12)
    # laguerre-basis class
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    series = build_series(sol, 6)
    for x in (0.3, 1.0, 4.0):
        fam = LaguerreL(alpha=2 * sol.basis.nu)
        direct = sum(series.coeffs[n]
                     * x ** sol.basis.exponent * math.exp(-sol.basis.beta / x)
                     * eval_poly(fam, n, 1.0 / x) for n in range(7))
        assert evaluate_series(series, x) == approx(direct, rel=1e-12)
