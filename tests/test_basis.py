"""The array-native basis block and series sums against the loop versions.

The reference functions below are the list-based recursion, chain rule,
product rule and generator sums that the array code replaced.  Every block,
series value, sum and residual must match them bit for bit (tobytes level),
errors by type and message.
"""
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from trabessel import (ClassId, GridSpec, OdeParams, build_series,
                       default_grid, default_truncation, evaluate_series,
                       resolve_class, residual)
from trabessel import basis as basis_mod
from trabessel import verify
from trabessel.basis import BasisSpec, basis_block, series_sum
from trabessel.errors import DomainError, SeriesOverflow, TraError
from trabessel.ode import apply_D_values

from conftest import DECAY_SETS, DOCUMENTED
from test_property_sweeps import draw_class_instance


# ---------------------------------------------------------------------------
# reference: the list-based loop versions
# ---------------------------------------------------------------------------

def ref_bessel_poly_derivs(mu, n, x):
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


def ref_laguerre_poly_derivs(alpha, n, u):
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


def ref_poly_triples(basis, n, x):
    if basis.kind == "bessel":
        if n > basis.n_max:
            raise DomainError(f"degree={n} exceeds the basis bound n_max={basis.n_max} "
                              f"(mu={basis.mu})")
        return ref_bessel_poly_derivs(basis.mu, n, x)
    u = 1.0 / np.asarray(x, dtype=float)
    p, du, duu = ref_laguerre_poly_derivs(2 * basis.nu, n, u)
    d1 = [-u ** 2 * g for g in du]
    d2 = [u ** 4 * g2 + 2 * u ** 3 * g1 for g1, g2 in zip(du, duu)]
    return p, d1, d2


def ref_basis_block(basis, n, x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("basis functions are defined for x > 0")
    power, beta = basis.power(), basis.beta
    logw = power * np.log(x) - beta / x
    if np.any(logw > 700.0):
        raise SeriesOverflow(
            f"x^{power} e^(-{beta}/x) overflows double precision on this grid")
    w = np.exp(logw)
    lw1 = power / x + beta / x ** 2
    lw2 = lw1 ** 2 - power / x ** 2 - 2 * beta / x ** 3
    with np.errstate(over="ignore", invalid="ignore"):
        p, d1, d2 = ref_poly_triples(basis, n, x)
        vals = [w * pk for pk in p]
        der1 = [w * (lw1 * pk + pk1) for pk, pk1 in zip(p, d1)]
        der2 = [w * (lw2 * pk + 2 * lw1 * pk1 + pk2) for pk, pk1, pk2 in zip(p, d1, d2)]
    return vals, der1, der2


def ref_evaluate_series(series, x, block=None):
    vals, _, _ = block or ref_basis_block(series.basis, series.order, x)
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(c * v for c, v in zip(series.coeffs, vals))
    if not np.all(np.isfinite(np.asarray(total))):
        raise DomainError("series evaluation produced non-finite values")
    return total


def ref_block_sums(coeffs, block, r):
    """(y, y', y'') of the truncation at r: the block's three rows summed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(sum(c * v for c, v in zip(coeffs[:r + 1], rows)) for rows in block)


def ref_laguerre_sums(series, x, vals, r):
    """(y, y', y'') of the truncation at r from the value rows alone: with
    u = 1/x and alpha = 2nu, D = A - B, where A and B sum phi_m with weights
    m f_m (m <= r) and (m+1+alpha) f_{m+1} (m < r)."""
    f, alpha = series.coeffs, 2 * series.basis.nu
    power, beta = series.basis.power(), series.basis.beta
    with np.errstate(over="ignore", invalid="ignore"):
        lw1 = power / x + beta / x ** 2
        lw2 = lw1 ** 2 - power / x ** 2 - 2 * beta / x ** 3
        u = 1.0 / x
        y = sum(f[m] * vals[m] for m in range(r + 1))
        A = sum((m * f[m]) * vals[m] for m in range(r + 1))
        D = A - sum(((m + 1 + alpha) * f[m + 1]) * vals[m] for m in range(r))
        return (y, lw1 * y - u * D,
                lw2 * y - 2 * lw1 * (u * D) + u ** 2 * ((1 - alpha + u) * D - u * A))


def ref_residual_core(ode, triple, N, x):
    y, y1, y2 = triple
    with np.errstate(over="ignore", invalid="ignore"):
        dvals = np.abs(apply_D_values(ode, y, y1, y2, x))
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dvals))):
        raise SeriesOverflow(
            f"the series truncated at N={N} overflows double precision on this grid")
    scale = max(float(np.max(np.abs(y))), verify._SCALE_FLOOR)
    i = int(np.argmax(dvals))
    return float(dvals[i]), float(dvals[i]) / scale, float(x[i]), scale


def ref_residual(series, x, triple):
    """residual() with tol=None, triple(r) giving (y, y', y'') of each truncation
    r summed afresh (f_0 = 1, so never the all-zero case)."""
    N = series.order
    dev, rel, argmax, scale = ref_residual_core(series.ode, triple(N), N, x)
    per_n, notes = {N: rel}, ()
    if series.solution.n_max is None and N >= 2:
        half = N // 2
        per_n[half] = ref_residual_core(series.ode, triple(half), half, x)[1]
        notes = ("decaying with N" if rel < per_n[half] else "not decaying with N",)
    return verify.CheckReport(dev, rel, argmax, scale, math.nan, True, per_n=per_n, notes=notes)


def _round_off(series, x, block, r):
    """eps max_x sum_{n<=r} |f_n| (x^2 |phi_n''| + |a x + b| |phi_n'| + |V| |phi_n|):
    the round-off floor of D y_r, whose terms can be far larger than their sum."""
    ode, f = series.ode, np.abs(series.coeffs[:r + 1, None])
    V = ode.A_plus * x + ode.A_minus / x + ode.A_one / x ** 2 - ode.A_zero
    with np.errstate(over="ignore", invalid="ignore"):
        v, d1, d2 = (np.sum(f * np.abs(rows[:r + 1]), axis=0) for rows in block)
        terms = x ** 2 * d2 + np.abs(ode.a * x + ode.b) * d1 + np.abs(V) * v
    return np.finfo(float).eps * float(np.max(terms))


def _agrees(new, old, round_off):
    """The Laguerre residual against the derivative block's: the same scale, and
    each truncation r's residual within 1e-6 |old| + 1e-12 + round_off(r), scaled
    as the residual is.  The decay note may differ where both truncations sit at
    that floor."""
    N = max(old.per_n)
    pairs = [(new.max_abs_deviation, old.max_abs_deviation, round_off(N))]
    pairs += [(new.per_n[r], old.per_n[r], round_off(r) / old.scale) for r in old.per_n]
    return (set(new.per_n) == set(old.per_n) and new.scale == old.scale
            and all(abs(a - b) <= 1e-6 * abs(b) + 1e-12 + floor for a, b, floor in pairs))


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------

def _bits(value):
    """A comparable record of a result: type, shape and raw bytes."""
    if isinstance(value, verify.CheckReport):
        value = (value.max_abs_deviation, value.max_rel_deviation, value.argmax_x,
                 value.scale, value.tolerance, value.passed,
                 tuple(sorted(value.per_n.items())), value.notes)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, str):
        return value
    arr = np.asarray(value)
    return type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes()


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", _bits(fn(*args, **kwargs))
    except Exception as exc:  # the error is part of the compared result
        return "error", type(exc).__name__, str(exc)


def _stacked(block):
    return tuple(np.array(rows) for rows in block)


# the -0.0 case: beyond x = 1e60 the Bessel prefactor x^alpha underflows to
# 0, and at N = 1 every term of the phi' sum is -0.0
UNDERFLOW = GridSpec(1e60, 1e62, 8)
class _Points:
    """A grid of given points: residual reads only grid.points()."""

    def __init__(self, *x):
        self.x = np.array(x)

    def points(self):
        return self.x


GRIDS = {"default": default_grid(), "linear97": GridSpec(0.05, 20.0, 97, "linear"),
         "underflow": UNDERFLOW, "one_point": _Points(0.7)}
POINTS = dict({name: g.points() for name, g in GRIDS.items()},
              grid4x5=np.geomspace(0.05, 20.0, 20).reshape(4, 5), scalar=0.7)
# the basis recursion builds its operand rows in blocks of degrees: both sides of an edge
EDGES = (basis_mod._BLOCK - 1, basis_mod._BLOCK, basis_mod._BLOCK + 1)
LADDER = (0, 1, 50, 200, 800)


def _drawn_sets():
    """One admissible draw per class from a fixed seed: generic mu and nu,
    where the documented and decay sets have half-integer mu and nu = 1, so
    more of the coefficient arithmetic rounds."""
    rng = np.random.default_rng(11)
    drawn = {}
    for cid in (ClassId.K0, ClassId.K1, ClassId.C8B, ClassId.L39A, ClassId.L39B, ClassId.L39C):
        while cid not in drawn:
            p, free = draw_class_instance(rng, cid)
            try:
                resolve_class(p, cid, free)
            except TraError:
                continue
            drawn[cid] = (p, free)
    return drawn


SETS = {"doc": DOCUMENTED, "decay": DECAY_SETS, "draw": _drawn_sets()}


def _cases():
    for label, sets in SETS.items():
        for cid, (p, free) in sets.items():
            sol = resolve_class(p, cid, free)
            top = sol.n_max if sol.n_max is not None else max(LADDER)
            ladder = (LADDER if label != "draw" else LADDER[1:4]) + EDGES
            for N in sorted({min(N, top) for N in ladder}):
                yield pytest.param(label, cid, N, id=f"{cid.value}-{label}-N{N}")


@pytest.mark.parametrize("label,cid,N", _cases())
def test_block_series_and_residual_match_loop_reference(label, cid, N):
    p, free = SETS[label][cid]
    series = build_series(resolve_class(p, cid, free), N)
    refs = {}
    for name, x in POINTS.items():
        ref = ref_basis_block(series.basis, N, x)
        refs[name] = ref
        new = basis_block(series.basis, N, x)
        assert _bits(_stacked(ref)) == _bits(tuple(new)), name
        values_only = basis_block(series.basis, N, x, derivs=False)
        assert _bits(values_only[0]) == _bits(new[0]) and values_only[1:] == (None, None)
        for ref_rows, rows in zip(ref, new):
            with np.errstate(over="ignore", invalid="ignore"):
                want = sum(c * v for c, v in zip(series.coeffs, ref_rows))
                assert _bits(series_sum(series.coeffs, rows)) == _bits(want), name
        assert (_outcome(evaluate_series, series, x)
                == _outcome(ref_evaluate_series, series, x, ref)), name
    for name, grid in GRIDS.items():
        x, block = POINTS[name], refs[name]
        block_sums = partial(ref_block_sums, series.coeffs, block)
        got = _outcome(residual, series, grid)
        old = _outcome(ref_residual, series, x, block_sums)
        if series.basis.kind == "bessel":
            assert got == old, name
            continue
        assert got == _outcome(ref_residual, series, x,
                               lambda r: ref_laguerre_sums(series, x, block[0], r)), name
        if "error" in (got[0], old[0]):
            assert got == old, name
        elif name != "underflow":  # near x = 1e60 both are round-off (the block's up to 1.3)
            assert _agrees(residual(series, grid), ref_residual(series, x, block_sums),
                           lambda r: _round_off(series, x, block, r)), name


def test_underflow_grid_has_all_negative_zero_sums():
    """The grid above does reach the case where Python's sum gives +0.0
    from terms that are all -0.0, so series_sum must add 0.0 at the end."""
    p, free = DOCUMENTED[ClassId.K1]
    series = build_series(resolve_class(p, ClassId.K1, free), 1)
    _, der1, _ = basis_block(series.basis, 1, UNDERFLOW.points())
    terms = series.coeffs[:, None] * der1
    assert np.all((terms == 0.0) & np.signbit(terms))
    assert not np.any(np.signbit(series_sum(series.coeffs, der1)))


def test_block_errors_match_loop_reference():
    """Past n_max of a Bessel basis and on a grid whose prefactor overflows
    (which comes first), the errors are the loop version's."""
    for cid in (ClassId.K0, ClassId.K1, ClassId.C8B):
        p, free = DOCUMENTED[cid]
        sol = resolve_class(p, cid, free)
        x = default_grid().points()
        for n in (sol.n_max + 1, sol.n_max + 5):
            want = _outcome(ref_basis_block, sol.basis, n, x)
            assert want[:2] == ("error", "DomainError")
            assert _outcome(basis_block, sol.basis, n, x) == want
            assert _outcome(basis_block, sol.basis, n, x, derivs=False) == want
    # b = 3 gives beta = -1: the prefactor overflows near x = 0
    sol = resolve_class(OdeParams(a=1.0, b=3.0, A_plus=0.0, A_minus=3.0, A_one=2.0,
                                  A_zero=2.0), ClassId.K1, {"mu": -5.3})
    x = GridSpec(1e-3, 1.0, 20).points()
    for n in (0, 3, sol.n_max + 1):
        want = _outcome(ref_basis_block, sol.basis, n, x)
        assert want[:2] == ("error", "SeriesOverflow")
        assert _outcome(basis_block, sol.basis, n, x) == want
    series = build_series(sol, 3)
    assert (_outcome(evaluate_series, series, x)
            == _outcome(ref_evaluate_series, series, x))
    assert _outcome(basis_block, sol.basis, 2, [0.5, 0.0]) == \
        _outcome(ref_basis_block, sol.basis, 2, [0.5, 0.0])


def test_block_derivatives_on_a_huge_grid_raise_no_warning():
    """On x in [1e200, 1e300] the prefactor's w'/w and w''/w pass through
    x^2 and x^3 = inf; they are formed inside the block's floating-point
    guard, so the tier-1 error::RuntimeWarning filter lets the block through."""
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    x = GridSpec(1e200, 1e300, 16).points()
    vals, der1, der2 = basis_block(sol.basis, 5, x)
    assert vals.shape == der1.shape == der2.shape == (6, 16)
    assert _bits(basis_block(sol.basis, 5, x, derivs=False)[0]) == _bits(vals)


@pytest.mark.parametrize("field", ["beta", "alpha", "mu"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_bessel_basis_refuses_a_non_finite_field(field, value):
    """mu = -inf used to make n_max raise a bare OverflowError."""
    fields = {"beta": 0.5, "alpha": -4.0, "mu": -5.5, field: value}
    with pytest.raises(DomainError) as err:
        BasisSpec(kind="bessel", **fields)
    assert str(err.value) == f"BasisSpec.{field} must be finite (got {value})"


def test_block_rejects_a_negative_degree():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    with pytest.raises(DomainError, match="^degree must be nonnegative$"):
        basis_block(sol.basis, -1, 1.0)


# ---------------------------------------------------------------------------
# work guards: counters, not timings
# ---------------------------------------------------------------------------

def test_block_holds_no_temporary_that_grows_with_it():
    """Above the block it returns, basis_block's traced peak is its fixed scratch
    of _BLOCK degrees (operand rows, lifts, chain- and product-rule terms): it
    stays the same from N = 800 to N = 1600, where an (N+1) x grid temporary
    would grow with the block."""
    basis = BasisSpec(kind="laguerre", beta=0.25, exponent=-1.0, nu=1.0)
    x = default_grid().points()
    held, excess = {}, {}
    for n in (800, 1600):
        tracemalloc.start()
        try:
            block = basis_block(basis, n, x)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held[n] = sum(rows.nbytes for rows in block)
        excess[n] = peak - current
        del block
    assert excess[1600] - excess[800] < 0.05 * (held[1600] - held[800])


def test_evaluate_series_builds_no_derivative_rows(monkeypatch):
    """evaluate_series takes phi_n alone: every recursion it runs carries one
    set of rows, as does a Laguerre residual's, while a Bessel residual's
    carries three."""
    row_sets = []
    engine = basis_mod._differentiated_rows

    def counted(*args):
        rows = engine(*args)
        row_sets.append(len(rows))
        return rows
    monkeypatch.setattr(basis_mod, "_differentiated_rows", counted)
    for cid in (ClassId.K0, ClassId.L39A):
        p, free = DOCUMENTED[cid]
        sol = resolve_class(p, cid, free)
        series = build_series(sol, default_truncation(sol))
        row_sets.clear()
        evaluate_series(series, default_grid().points())
        evaluate_series(series, 0.7)
        assert row_sets == [1, 1]
        row_sets.clear()
        residual(series)
        assert row_sets == ([3] if cid is ClassId.K0 else [1])


@pytest.mark.parametrize("label", ["doc", "decay", "draw"])
def test_laguerre_residual_runs_no_derivative_recursion(monkeypatch, label):
    """The residual of a Laguerre series asks basis_block for values alone, once;
    a Bessel series' asks for the derivative block."""
    asked = []
    block = basis_mod.basis_block

    def spy(basis, n, x, derivs=True):
        asked.append(derivs)
        return block(basis, n, x, derivs)
    monkeypatch.setattr(basis_mod, "basis_block", spy)
    for cid, (p, free) in SETS[label].items():
        sol = resolve_class(p, cid, free)
        asked.clear()
        residual(build_series(sol, min(40, default_truncation(sol))))
        assert asked == [sol.basis.kind == "bessel"], cid
