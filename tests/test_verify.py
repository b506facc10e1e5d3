import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from trabessel import (ClassId, OdeParams, apply_D, apply_D_values,
                       basis_derivatives, build_series, derivative_crosscheck,
                       evaluate_series, recursion_coeffs, residual,
                       resolve_class, tridiagonality_check,
                       tridiagonality_sweep)
from trabessel import basis as basis_mod
from trabessel import solver, verify
from trabessel.basis import BasisSpec, basis_block
from trabessel.errors import DomainError, SeriesOverflow
from trabessel.solver import SeriesSolution
from trabessel.verify import GridSpec, default_grid

from conftest import DECAY_SETS, DOCUMENTED
from test_basis import UNDERFLOW, _bits


# ---------------------------------------------------------------------------
# the operator itself
# ---------------------------------------------------------------------------

def test_apply_d_hand_value():
    p = OdeParams(a=1, b=0, A_plus=0, A_minus=2, A_one=0, A_zero=3)
    out = apply_D(p, lambda x: (x, np.ones_like(x), np.zeros_like(x)), 1.0)
    assert out == approx(0.0, abs=1e-14)


def test_apply_d_constant_function():
    p = OdeParams(a=2, b=1, A_plus=0, A_minus=0, A_one=0, A_zero=4.5)
    xs = np.geomspace(0.1, 10, 7)
    vals = apply_D(p, lambda x: (np.ones_like(x), np.zeros_like(x), np.zeros_like(x)), xs)
    assert vals == approx(-4.5 * np.ones_like(xs))


def test_apply_d_bessel_special_case():
    """The Bessel polynomial itself solves the equation at the special
    parameter choice a = 2(mu+1), b = 1, A0 = n(n+2mu+1)."""
    mu = -7.5
    basis = BasisSpec(kind="bessel", beta=0.0, alpha=0.0, mu=mu)
    xs = default_grid().points()
    for n in (0, 2, 5):
        p = OdeParams(a=2 * (mu + 1), b=1.0, A_plus=0, A_minus=0, A_one=0,
                      A_zero=n * (n + 2 * mu + 1))
        triple = basis_derivatives(basis, n, xs)
        out = apply_D_values(p, *triple, xs)
        scale = np.max(np.abs(triple[0]))
        assert np.max(np.abs(out)) <= 1e-10 * scale


@given(c1=st.floats(-5, 5), c2=st.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_apply_d_linearity(c1, c2):
    p = OdeParams(a=1.3, b=0.2, A_plus=-0.7, A_minus=1.1, A_one=0.4, A_zero=2.0)
    xs = np.geomspace(0.1, 5, 9)
    f = (np.sin(xs), np.cos(xs), -np.sin(xs))
    g = (xs ** 2, 2 * xs, 2 * np.ones_like(xs))
    combo = tuple(c1 * a + c2 * b for a, b in zip(f, g))
    lhs = apply_D_values(p, *combo, xs)
    rhs = c1 * apply_D_values(p, *f, xs) + c2 * apply_D_values(p, *g, xs)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_apply_d_stencil_fallback():
    p = OdeParams(a=1, b=0, A_plus=0, A_minus=2, A_one=0, A_zero=3)
    out = apply_D(p, lambda x: x, np.array([1.0]))
    assert out == approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_bessel_basis_derivative_crosscheck():
    basis = BasisSpec(kind="bessel", beta=0.5, alpha=-4.5, mu=-5.0)
    assert derivative_crosscheck(basis, 2, np.array([1.0, 2.5])) <= 1e-8


def test_laguerre_basis_derivative_crosscheck():
    basis = BasisSpec(kind="laguerre", beta=0.5, exponent=-1.25, nu=1.0)
    assert derivative_crosscheck(basis, 1, np.array([0.8, 1.6])) <= 1e-8


def test_basis_phi0_closed_form():
    basis = BasisSpec(kind="bessel", beta=0.5, alpha=-4.5, mu=-5.0)
    x = np.array([0.7, 1.4])
    v, d1, _ = basis_derivatives(basis, 0, x)
    assert v == approx(x ** -4.5 * np.exp(-0.5 / x))
    assert d1 == approx((-4.5 / x + 0.5 / x ** 2) * v)


# ---------------------------------------------------------------------------
# tridiagonality
# ---------------------------------------------------------------------------

def test_tridiagonality_all_classes():
    for cid, (p, free) in DOCUMENTED.items():
        sol = resolve_class(p, cid, free)
        rep = tridiagonality_sweep(sol, range(0, 9))
        assert rep.passed, (cid, rep.max_rel_deviation)
        assert rep.max_rel_deviation <= 1e-8


def test_tridiagonality_n0_boundary():
    """At n = 0 the s_{-1} term is absent and the identity still holds."""
    p, free = DOCUMENTED[ClassId.K0]
    sol = resolve_class(p, ClassId.K0, free)
    rep = tridiagonality_check(sol, 0)
    assert rep.passed


def test_tridiagonality_detects_perturbation():
    """A 1% error in t_n must blow the check far past its tolerance."""
    p, free = DOCUMENTED[ClassId.L39B]
    sol = resolve_class(p, ClassId.L39B, free)
    n = 3
    xs = default_grid().points()
    u_n, _, t_n = recursion_coeffs(sol, n)
    _, s_prev, _ = recursion_coeffs(sol, n - 1)
    lhs = apply_D_values(sol.ode, *basis_derivatives(sol.basis, n, xs), xs)
    rhs = sol.omega(xs) * (u_n * basis_derivatives(sol.basis, n, xs)[0]
                           + s_prev * basis_derivatives(sol.basis, n - 1, xs)[0]
                           + 1.01 * t_n * basis_derivatives(sol.basis, n + 1, xs)[0])
    dev = np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))
    assert dev > 1e-3          # vs the 1e-8 pass threshold
    assert tridiagonality_check(sol, n).max_rel_deviation < 1e-10


def test_check_report_shape():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    rep = tridiagonality_check(sol, 2, GridSpec(0.05, 20.0, 64), tol=1e-8)
    assert rep.max_abs_deviation >= 0
    assert rep.max_rel_deviation >= 0
    assert 0.05 <= rep.argmax_x <= 20.0
    assert bool(rep) == rep.passed


def _per_degree_reference(sol, n, x):
    """The identity at degree n from three per-degree basis calls:
    (max |dev|, max |dev| / scale, argmax x, scale)."""
    u_n, _, t_n = recursion_coeffs(sol, n)
    phi_n = basis_derivatives(sol.basis, n, x)
    lhs = apply_D_values(sol.ode, *phi_n, x)
    rhs = u_n * phi_n[0] + t_n * basis_derivatives(sol.basis, n + 1, x)[0]
    if n > 0:
        _, s_prev, _ = recursion_coeffs(sol, n - 1)
        rhs = rhs + s_prev * basis_derivatives(sol.basis, n - 1, x)[0]
    dev = np.abs(lhs - sol.omega(x) * rhs)
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    i = int(np.argmax(dev))
    return float(dev[i]), float(dev[i]) / scale, float(x[i]), scale


@pytest.mark.parametrize("grid", [None, GridSpec(0.1, 8.0, 41, "linear")],
                         ids=["default", "linear"])
@pytest.mark.parametrize("cid", list(DOCUMENTED))
def test_sweep_matches_per_degree_reference(cid, grid):
    """The one-block sweep reproduces the per-degree check bit for bit."""
    p, free = DOCUMENTED[cid]
    sol = resolve_class(p, cid, free)
    degrees = range(21) if sol.n_max is None else range(sol.n_max)
    x = (grid or default_grid()).points()
    ref = {n: _per_degree_reference(sol, n, x) for n in degrees}
    rep = tridiagonality_sweep(sol, degrees, grid)
    assert rep.per_n == {n: r[1] for n, r in ref.items()}
    worst = max(ref.values(), key=lambda r: r[1])
    assert (rep.max_abs_deviation, rep.max_rel_deviation, rep.argmax_x, rep.scale) == worst
    assert rep.passed
    one = tridiagonality_check(sol, 3, grid)
    assert (one.max_abs_deviation, one.max_rel_deviation, one.argmax_x, one.scale) == ref[3]


@pytest.mark.parametrize("cid", [ClassId.K0, ClassId.K1, ClassId.C8B])
def test_sweep_error_precedence_bessel_classes(cid):
    p, free = DOCUMENTED[cid]
    sol = resolve_class(p, cid, free)
    top = sol.n_max
    vanish = f"coefficient denominator n+mu+3/2 vanishes at n={top}"
    cases = [(range(top + 1), vanish), ([top, top + 1], vanish),
             ([top + 1], f"n={top + 1} exceeds the basis bound n_max={top} "
                         f"(mu={sol.basis.mu})"),
             ([-1], "n must be nonnegative"), ([2, -1], "n must be nonnegative")]
    for degrees, message in cases:
        with pytest.raises(DomainError) as exc:
            tridiagonality_sweep(sol, degrees)
        assert str(exc.value) == message, degrees


def test_sweep_error_precedence_follows_stage_order():
    """Every degree's coefficients come first, in the order given, then the one
    basis block: a coefficient error comes before any basis error.

    At mu = -5.3 the coefficients end at n_max = 4, while a sweep up to 4 needs
    phi_5 from the basis block.  At b = 3 (beta = -1) the prefactor overflows
    near x = 0, which fails the basis block of every sweep whose coefficients
    exist.
    """
    free = {"mu": -5.3}
    sol = resolve_class(OdeParams(a=1.0, b=0.0, A_plus=0.0, A_minus=3.0,
                                  A_one=-0.25, A_zero=2.0), ClassId.K1, free)
    cases = [(range(6), 5), ([4, 6], 6), ([3, 5], 5), ([6, 2], 6)]
    for degrees, top in cases:
        with pytest.raises(DomainError) as exc:
            tridiagonality_sweep(sol, degrees)
        assert str(exc.value) == f"n={top} exceeds the basis bound n_max=4 (mu=-5.3)", degrees
    with pytest.raises(DomainError) as exc:
        tridiagonality_sweep(sol, [4])
    assert str(exc.value) == "degree=5 exceeds the basis bound n_max=4 (mu=-5.3)"
    sol = resolve_class(OdeParams(a=1.0, b=3.0, A_plus=0.0, A_minus=3.0,
                                  A_one=2.0, A_zero=2.0), ClassId.K1, free)
    grid = GridSpec(1e-3, 1.0, 20)
    for degrees in ([0, 3], [4], range(5)):
        with pytest.raises(SeriesOverflow):
            tridiagonality_sweep(sol, degrees, grid)
    for degrees, top in cases + [([0, 9], 9)]:
        with pytest.raises(DomainError) as exc:
            tridiagonality_sweep(sol, degrees, grid)
        assert str(exc.value) == f"n={top} exceeds the basis bound n_max=4 (mu=-5.3)", degrees


def test_sweep_needs_a_degree():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    with pytest.raises(DomainError, match="at least one degree"):
        tridiagonality_sweep(sol, [])


def test_sweep_fails_on_a_nonfinite_deviation():
    """Near x = 1e-60 the Laguerre factor overflows from degree 2 on; those
    degrees have NaN deviations, and the sweep must not pass."""
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    with np.errstate(all="ignore"):
        rep = tridiagonality_sweep(sol, range(6), GridSpec(1e-60, 1.0, 20))
    assert rep.per_n[1] <= 1e-8 and np.isnan(rep.per_n[2])
    assert not rep.passed


def test_sweep_builds_one_basis_block(monkeypatch):
    """The sweep's work stays linear in the top degree: one basis block,
    no per-degree basis calls, one operator application on the whole block
    and one lookup of the class row."""
    calls = {"basis_block": 0, "basis_derivatives": 0, "apply_D_values": 0, "_row": 0}
    for module, name in ((verify, "basis_block"), (basis_mod, "basis_derivatives"),
                         (verify, "apply_D_values"), (solver, "_row")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    assert tridiagonality_sweep(sol, range(41)).passed
    assert calls == {"basis_block": 1, "basis_derivatives": 0, "apply_D_values": 1, "_row": 1}


def test_sweep_evaluates_each_degree_once(monkeypatch):
    """The sweep asks for (u_n, t_n) and s_{n-1} at each degree n, but calls the
    bound row's u, s and t once per distinct degree, in first-needed order."""
    calls = []
    bind = solver._row

    def counted(*args):
        row = bind(*args)
        for name in ("u", "s", "t"):
            def method(n, _name=name, _fn=getattr(row, name)):
                calls.append((_name, n))
                return _fn(n)
            setattr(row, name, method)
        return row
    monkeypatch.setattr(solver, "_row", counted)
    for cid in (ClassId.L39A, ClassId.K1):
        p, free = DOCUMENTED[cid]
        sol = resolve_class(p, cid, free)
        top = 41 if sol.n_max is None else sol.n_max
        for degrees, order in ((range(top), range(top)), ([5, 0, 3], [5, 4, 0, 3, 2])):
            calls.clear()
            tridiagonality_sweep(sol, degrees)
            assert calls == [(name, n) for n in order for name in "ust"], cid


def ref_tridiagonality_sweep(sol, n_values, grid=None, tol=1e-8):
    """The per-degree loop version of tridiagonality_sweep: the coefficients
    from recursion_coeffs and the identity checked one degree at a time."""
    degrees = list(n_values)
    if not degrees:
        raise DomainError("a tridiagonality sweep needs at least one degree")
    x = (grid or default_grid()).points()
    rows = []
    for n in degrees:
        u_n, _, t_n = recursion_coeffs(sol, n)
        rows.append((n, u_n, t_n, recursion_coeffs(sol, n - 1)[1] if n > 0 else None))
    vals, der1, der2 = basis_block(sol.basis, max(degrees) + 1, x)
    omega = sol.omega(x)
    checks = {}
    for n, u_n, t_n, s_prev in rows:
        lhs = apply_D_values(sol.ode, vals[n], der1[n], der2[n], x)
        rhs = u_n * vals[n] + t_n * vals[n + 1]
        if n > 0:
            rhs = rhs + s_prev * vals[n - 1]
        dev = np.abs(lhs - omega * rhs)
        scale = max(float(np.max(np.abs(lhs))), verify._SCALE_FLOOR)
        i = int(np.argmax(dev))
        checks[n] = (float(dev[i]), float(dev[i]) / scale, float(x[i]), scale)
    dev, rel, argmax, scale = max(checks.values(), key=lambda c: c[1])
    return verify.CheckReport(max_abs_deviation=dev, max_rel_deviation=rel, argmax_x=argmax,
                              scale=scale, tolerance=tol,
                              passed=all(c[1] <= tol for c in checks.values()),
                              per_n={n: c[1] for n, c in checks.items()},
                              notes=tuple(sol.notes))


def _sweep_outcome(fn, *args):
    """_bits of the report, with per_n's key order, or the error's type and message."""
    try:
        rep = fn(*args)
    except Exception as exc:  # the error is part of the compared result
        return "error", type(exc).__name__, str(exc)
    return "ok", _bits(rep), tuple(rep.per_n)


SWEEP_GRIDS = {"default": None, "linear97": GridSpec(0.05, 20.0, 97, "linear"),
               "underflow": UNDERFLOW, "nan_deviation": GridSpec(1e-60, 1.0, 20)}


@pytest.mark.parametrize("cid,label", [(cid, label) for label, sets in
                                       (("doc", DOCUMENTED), ("decay", DECAY_SETS))
                                       for cid in sets])
def test_sweep_matches_loop_reference(cid, label):
    """The whole-block sweep reproduces the per-degree loop bit for bit:
    values, per_n order, -0.0 and NaN rows, and the error that decides."""
    p, free = (DOCUMENTED if label == "doc" else DECAY_SETS)[cid]
    sol = resolve_class(p, cid, free)
    top = 40 if sol.n_max is None else sol.n_max
    lists = [range(top + 1), [5, 0, 3], [2, 2], [0], [top - 1], [3, -1], [3, top + 1]]
    errors = 0
    for gname, grid in SWEEP_GRIDS.items():
        for degrees in lists:
            with np.errstate(all="ignore"):
                want = _sweep_outcome(ref_tridiagonality_sweep, sol, degrees, grid)
                got = _sweep_outcome(tridiagonality_sweep, sol, degrees, grid)
            assert got == want, (gname, list(degrees))
            errors += want[0] == "error"
    assert errors >= len(SWEEP_GRIDS)  # [3, -1] fails on every grid


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residual_one_term_bessel_special_case():
    mu = -7.5
    n = 3
    basis = BasisSpec(kind="bessel", beta=0.0, alpha=0.0, mu=mu)
    p = OdeParams(a=2 * (mu + 1), b=1.0, A_plus=0, A_minus=0, A_one=0,
                  A_zero=n * (n + 2 * mu + 1))
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    series = SeriesSolution(solution=None, basis=basis, ode=p, coeffs=coeffs)
    rep = residual(series)
    assert rep.max_rel_deviation <= 1e-10


def test_residual_zero_series_degenerate():
    basis = BasisSpec(kind="bessel", beta=0.0, alpha=0.0, mu=-7.5)
    p = OdeParams(a=1, b=1, A_plus=0, A_minus=0, A_one=0, A_zero=0)
    series = SeriesSolution(None, basis, p, np.zeros(3))
    rep = residual(series)
    assert rep.max_rel_deviation == 0.0
    assert any("degenerate" in note for note in rep.notes)


def test_residual_decays_with_truncation_k0():
    p = OdeParams(a=1, b=0, A_plus=-1, A_minus=30.5, A_one=-0.25, A_zero=2)
    sol = resolve_class(p, ClassId.K0)
    r = {N: residual(build_series(sol, N)).max_rel_deviation for N in (5, 10, 20)}
    assert r[20] < r[10] < r[5]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(-1.0, 2.0)
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, count=1)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, spacing="cubic")


def test_gridspec_points():
    lin = GridSpec(1.0, 2.0, 5, "linear").points()
    assert lin == approx(np.linspace(1, 2, 5))
    log = GridSpec(0.1, 10.0, 3, "logarithmic").points()
    assert log == approx([0.1, 1.0, 10.0])


def test_gridspec_refuses_a_noninteger_count():
    for count in (64.5, 64.0, True, "64"):
        with pytest.raises(DomainError, match="grid count must be an integer"):
            GridSpec(0.05, 20.0, count)
    assert GridSpec(0.05, 20.0, np.int64(64)).points().shape == (64,)


@pytest.mark.parametrize("spacing,space", [("linear", np.linspace),
                                           ("logarithmic", np.geomspace)])
def test_gridspec_points_are_fresh_copies(spacing, space):
    """Each call hands out a new writable array with the bits of numpy's own
    spacing; writing to one leaves the next call unchanged."""
    grid = GridSpec(0.05, 20.0, 64, spacing)
    want = _bits(space(0.05, 20.0, 64))
    first = grid.points()
    assert _bits(first) == want and first.flags.writeable
    first[:] = -1.0
    second = grid.points()
    assert second is not first and _bits(second) == want
    assert _bits(GridSpec(0.05, 20, 64, spacing).points()) == want


def test_residual_report_includes_half_truncation():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    rep = residual(build_series(sol, 20))
    assert set(rep.per_n) == {20, 10}
    assert any("decaying" in note for note in rep.notes)


@pytest.mark.parametrize("cid", [ClassId.L39A, ClassId.L39C])
@pytest.mark.parametrize("N", [40, 200])
def test_residual_half_truncation_equals_truncated_series(cid, N):
    """The half residual summed from the prefix of the full block is exactly
    the residual of the series truncated at N//2."""
    p, free = DECAY_SETS[cid]
    sol = resolve_class(p, cid, free)
    series = build_series(sol, N)
    half = SeriesSolution(sol, series.basis, series.ode, series.coeffs[:N // 2 + 1])
    assert residual(series).per_n[N // 2] == residual(half).max_rel_deviation


def test_residual_overflow_raises_without_warnings():
    # the documented L39C coefficients grow past double range by N = 800
    p, free = DOCUMENTED[ClassId.L39C]
    series = build_series(resolve_class(p, ClassId.L39C, free), 800)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesOverflow):
            residual(series)
        with pytest.raises(DomainError, match="non-finite"):
            evaluate_series(series, default_grid().points())
