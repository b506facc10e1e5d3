"""The array-native basis block and series sums against the loop versions.

The reference functions below are the list-based recursion, chain rule,
product rule and generator sums that the array code replaced.  Every block,
series value, sum and residual must match them bit for bit (tobytes level),
errors by type and message.
"""
import numpy as np
import pytest

from trabessel import (ClassId, GridSpec, OdeParams, build_series,
                       default_grid, default_truncation, evaluate_series,
                       resolve_class, residual)
from trabessel import basis as basis_mod
from trabessel import verify
from trabessel.basis import basis_block, series_sum
from trabessel.errors import DomainError, SeriesOverflow
from trabessel.ode import apply_D_values

from conftest import DECAY_SETS, DOCUMENTED


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
            raise DomainError(
                f"degree {n} exceeds n_max={basis.n_max} (mu={basis.mu})")
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
    w, lw1, lw2 = basis_mod._prefactor(basis.power(), basis.beta, x)
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


def ref_residual_core(ode, coeffs, block, x):
    vals, d1, d2 = block
    with np.errstate(over="ignore", invalid="ignore"):
        y = sum(c * v for c, v in zip(coeffs, vals))
        y1 = sum(c * v for c, v in zip(coeffs, d1))
        y2 = sum(c * v for c, v in zip(coeffs, d2))
        dvals = np.abs(apply_D_values(ode, y, y1, y2, x))
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dvals))):
        raise SeriesOverflow(
            f"the series truncated at N={len(coeffs) - 1} overflows double "
            "precision on this grid")
    scale = max(float(np.max(np.abs(y))), verify._SCALE_FLOOR)
    i = int(np.argmax(dvals))
    return float(dvals[i]), float(dvals[i]) / scale, float(x[i]), scale


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
GRIDS = {"default": default_grid(), "linear97": GridSpec(0.05, 20.0, 97, "linear"),
         "underflow": UNDERFLOW}
POINTS = dict({name: g.points() for name, g in GRIDS.items()},
              one_point=np.array([0.7]), scalar=0.7)
LADDER = (0, 1, 50, 200, 800)


def _cases():
    for label, sets in (("doc", DOCUMENTED), ("decay", DECAY_SETS)):
        for cid, (p, free) in sets.items():
            sol = resolve_class(p, cid, free)
            top = sol.n_max if sol.n_max is not None else max(LADDER)
            for N in sorted({min(N, top) for N in LADDER}):
                yield pytest.param(label, cid, N, id=f"{cid.value}-{label}-N{N}")


@pytest.mark.parametrize("label,cid,N", _cases())
def test_block_series_and_residual_match_loop_reference(monkeypatch, label, cid, N):
    p, free = (DOCUMENTED if label == "doc" else DECAY_SETS)[cid]
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
    x = POINTS["one_point"]
    assert (_outcome(verify._residual_core, series.ode, series.coeffs,
                     basis_block(series.basis, N, x), x)
            == _outcome(ref_residual_core, series.ode, series.coeffs, refs["one_point"], x))
    new = {name: _outcome(residual, series, grid) for name, grid in GRIDS.items()}
    monkeypatch.setattr(verify, "_residual_core", ref_residual_core)
    for name, grid in GRIDS.items():
        monkeypatch.setattr(verify, "basis_block", lambda *args, _ref=refs[name]: _ref)
        assert new[name] == _outcome(residual, series, grid), name


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


def test_block_rejects_a_negative_degree():
    p, free = DOCUMENTED[ClassId.L39A]
    sol = resolve_class(p, ClassId.L39A, free)
    with pytest.raises(DomainError, match="degree -1 is negative"):
        basis_block(sol.basis, -1, 1.0)


# ---------------------------------------------------------------------------
# work guards: counters, not timings
# ---------------------------------------------------------------------------

def test_evaluate_series_builds_no_derivative_rows(monkeypatch):
    """evaluate_series takes phi_n alone: every recursion it runs carries one
    set of rows, while residual's carries three."""
    row_sets = []
    engine = basis_mod._differentiated_rows

    def counted(n, shape, derivs, step):
        rows = engine(n, shape, derivs, step)
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
        assert row_sets == [3]
