import math

import numpy as np
import pytest
from pytest import approx

from trabessel import (ClassId, OdeParams, confining_well, fd_oracle, jacobi_matrix,
                       morse_levels, recursion_coeffs, resolve_class, singular_oscillator,
                       spectrum_eq64, table1_map, tridiag_eigenvalues, u_decomposition)
from trabessel import quantum
from trabessel.errors import (BoundaryError, ConstraintViolation, DomainError,
                              UnsupportedRow)
from trabessel.quantum import (eq64_energies, oscillator_potential, well_domain,
                               well_potential)


def _ode(Ap=0.0, Am=0.0, A1=0.0, A0=0.0, a=1.0):
    return OdeParams(a=a, b=0.0, A_plus=Ap, A_minus=Am, A_one=A1, A_zero=A0)


# ---------------------------------------------------------------------------
# coordinate-map rows
# ---------------------------------------------------------------------------

def test_table1_row_a1():
    spec = table1_map(1.0, _ode(A0=3.0), lam=2.0)
    assert spec.eta == 1.0
    assert spec.x_of_r.startswith("x = exp(lam r)")
    assert spec.energy == approx(-4.0 * 3.0 / 2)
    assert spec.Lambda_shift == 0.0


def test_table1_row_a_half():
    spec = table1_map(0.5, _ode(Ap=1.5, A0=1.0), lam=1.0, ell=0)
    assert spec.eta == 2.0
    assert spec.energy == approx(2 * 1.5)
    assert spec.Lambda_shift == approx(4.0)


def test_table1_row_a2():
    spec = table1_map(2.0, _ode(A1=3.0), lam=1.0)
    assert spec.eta == -1.0
    assert spec.energy == approx(1.5)
    assert spec.x_of_r.startswith("x = (lam r)^-1")


def test_table1_row_a_three_halves():
    spec = table1_map(1.5, _ode(Am=2.0, A1=-0.25), lam=1.0)
    assert spec.eta == -2.0
    assert spec.energy == approx(4.0)
    # potential carries the confining oscillator term -2 lam^4 A1 r^2
    assert spec.potential(2.0) == approx(0.5 * 4.0)


def test_table1_rejects_other_rows():
    with pytest.raises(UnsupportedRow):
        table1_map(0.75, _ode(), lam=1.0)
    with pytest.raises(ConstraintViolation):
        table1_map(1.0, OdeParams(a=1, b=0.5, A_plus=0, A_minus=0,
                                  A_one=0, A_zero=0), lam=1.0)


# ---------------------------------------------------------------------------
# closed-form oscillator spectrum
# ---------------------------------------------------------------------------

def test_spectrum_eq64_values():
    assert spectrum_eq64(0, 1.0, -0.25, 0.0, 0) == approx(1.5)
    assert spectrum_eq64(1, 1.0, -0.25, 0.0, 0) == approx(3.5)
    assert spectrum_eq64(0, 1.0, -0.25, 3.0, 0) == approx(
        2 * (0.5 + 0.5 * math.sqrt(3.25)))


def test_spectrum_eq64_lambda_zero_reduction():
    """Lambda = 0 collapses to omega (2k + ell + 3/2) with omega = 2 lam^2 sqrt(-A1)."""
    for lam in (1.0, 1.7):
        for A1 in (-0.25, -1.0, -0.03):
            omega = 2 * lam ** 2 * math.sqrt(-A1)
            for ell in (0, 1, 3):
                for k in range(4):
                    assert spectrum_eq64(k, lam, A1, 0.0, ell) == approx(
                        omega * (2 * k + ell + 1.5), rel=1e-15)


def test_spectrum_eq64_guards():
    with pytest.raises(ConstraintViolation):
        spectrum_eq64(0, 1.0, 0.1, 0.0, 0)
    with pytest.raises(ConstraintViolation):
        spectrum_eq64(0, 1.0, -0.25, -5.0, 0)  # fall to the center
    with pytest.raises(ConstraintViolation):
        spectrum_eq64(-1, 1.0, -0.25, 0.0, 0)
    for k in (1.5, True, 2.0):   # a level index is an integer, as n_levels is
        with pytest.raises(DomainError, match="k must be an integer"):
            spectrum_eq64(k, 1.0, -0.25, 0.0, 0)
    assert spectrum_eq64(np.int64(1), 1.0, -0.25, 0.0, 0) == spectrum_eq64(1, 1.0, -0.25, 0.0, 0)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_oracle_harmonic_levels():
    pot = lambda r: 0.5 * r ** 2
    res = fd_oracle(pot, (1e-6, 12.0), 4000, ell=0, n_levels=2)
    assert res.energies[0] == approx(1.5, abs=1e-4)
    assert res.energies[1] == approx(3.5, abs=1e-4)


def test_fd_oracle_harmonic_ell1():
    pot = lambda r: 0.5 * r ** 2
    res = fd_oracle(pot, (1e-6, 12.0), 4000, ell=1, n_levels=1)
    assert res.energies[0] == approx(2.5, abs=1e-4)


def test_fd_oracle_second_order_convergence():
    """Richardson delta shrinks by >= 4x per grid doubling."""
    pot = lambda r: 0.5 * r ** 2
    res_a = fd_oracle(pot, (1e-6, 12.0), 1000, n_levels=3)
    res_b = fd_oracle(pot, (1e-6, 12.0), 2000, n_levels=3)
    da = np.array(res_a.metadata["richardson_delta"])
    db = np.array(res_b.metadata["richardson_delta"])
    assert np.all(da / db >= 3.9)


def test_fd_oracle_boundary_detection():
    pot = lambda r: 0.5 * r ** 2
    with pytest.raises(BoundaryError):
        fd_oracle(pot, (1e-6, 2.2), 1000, n_levels=3)   # box too small


def test_fd_oracle_grid_guard():
    with pytest.raises(ConstraintViolation):
        fd_oracle(lambda r: 0 * r, (0.0, 1.0), 50)


def test_fd_oracle_refuses_an_empty_domain_and_a_centrifugal_term_at_the_origin():
    pot = lambda r: 0.5 * r ** 2
    with pytest.raises(ConstraintViolation, match=r"^domain must satisfy r_min < r_max$"):
        fd_oracle(pot, (2.0, 1.0), 500)
    with pytest.raises(ConstraintViolation, match=r"^centrifugal term needs r_min > 0$"):
        fd_oracle(pot, (0.0, 5.0), 500, ell=1)


# ---------------------------------------------------------------------------
# confining well
# ---------------------------------------------------------------------------

def test_confining_well_dual_method():
    V, res = confining_well(20.5, -1.0, 1.0)
    assert res.method == "jacobi_matrix"
    lo, hi = well_domain(20.5, -1.0, 1.0, e_max=float(res.energies[-1]))
    oracle = fd_oracle(V, (lo, hi), 4000, n_levels=5)
    rel = np.abs(res.energies - oracle.energies) / np.abs(oracle.energies)
    assert rel[0] <= 0.02
    assert np.all(rel <= 0.02)


@pytest.mark.parametrize("A_minus", [20.5, 100.5, 400.5, 1000.5])
def test_confining_well_levels_match_fd_oracle(A_minus):
    """All five Jacobi levels against the Richardson FD oracle, to the
    benchmark's FD tolerance: gaps read 3e-10 at most at grid 4000."""
    V, res = confining_well(A_minus, -1.0, 1.0)
    lo, hi = well_domain(A_minus, -1.0, 1.0, e_max=float(res.energies[-1]))
    oracle = fd_oracle(V, (lo, hi), 4000, n_levels=5)
    assert len(res.energies) == len(oracle.energies) == 5
    np.testing.assert_allclose(res.energies, oracle.energies, rtol=1e-7, atol=0)


def test_confining_well_scalar_case():
    # A- slightly above 1/2: a single level, 1x1 matrix
    V, res = confining_well(0.6, -1.0, 1.0, n_levels=3)
    assert res.metadata["matrix_size"] == 1
    assert len(res.energies) == 1
    z0 = res.metadata["z_eigenvalues"][0]
    assert res.energies[0] == approx(z0 / 8)   # E = -lam^2 A+ z / 8 at lam=1, A+=-1


def test_confining_well_morse_limit():
    V, res = confining_well(20.5, 0.0, 1.0, n_levels=3)
    assert res.method == "morse_closed_form"
    assert res.energies == approx([-200.0, -180.5, -162.0])
    lo, hi = well_domain(20.5, 0.0, 1.0, e_max=-150.0)
    oracle = fd_oracle(V, (lo, hi), 4000, n_levels=3)
    assert np.all(np.abs(res.energies - oracle.energies)
                  <= 1e-3 * np.abs(oracle.energies))


def test_confining_well_returns_at_most_n_plus_1_levels():
    """An (N+1)-row Jacobi matrix has N + 1 levels, and N defaults to K0's
    n_max = 19 at A- = 20.5; the Morse branch has n_max + 1 levels."""
    for A_plus in (-1.0, 0.0):
        assert len(confining_well(20.5, A_plus, 1.0, n_levels=100)[1].energies) == 20
    assert len(confining_well(20.5, -1.0, 1.0, N=5, n_levels=100)[1].energies) == 6


def test_confining_well_guards():
    with pytest.raises(ConstraintViolation):
        confining_well(20.5, 0.5, 1.0)     # A+ > 0
    with pytest.raises(DomainError) as exc:
        confining_well(5.5, -1.0, 1.0, N=8)  # A- < N + 1/2
    assert str(exc.value) == "N=8 exceeds the basis bound n_max=4 (mu=-5.5)"


def test_confining_well_bounds_n_by_the_k0_basis():
    """K0 is resolved first: its region and its n_max bound N, and jacobi_matrix
    checks N's sign."""
    with pytest.raises(ConstraintViolation, match="at least one basis degree"):
        confining_well(0.3, -1.0, 1.0, N=0)   # A- < 1/2: no basis degree at all
    with pytest.raises(DomainError, match="^N must be nonnegative$"):
        confining_well(20.5, -1.0, 1.0, N=-1)


@pytest.mark.parametrize("A_plus", [-1.0, 0.0], ids=["jacobi", "morse"])
@pytest.mark.parametrize("A_minus", [math.inf, -math.inf, math.nan])
def test_confining_well_refuses_a_non_finite_a_minus_on_both_branches(A_minus, A_plus):
    """The Morse branch used to raise a bare OverflowError or ValueError from
    math.floor; both branches now refuse A- through OdeParams."""
    with pytest.raises(ValueError, match="^OdeParams.A_minus must be finite$"):
        confining_well(A_minus, A_plus, 1.0)


def test_confining_well_caps_the_jacobi_matrix_at_100000_rows():
    """dstevd's time grows as N^2, so past 100,000 rows the well refuses at
    once, before any list is built, and prints the size as a float; an N past
    the basis bound as well is refused by the basis first."""
    with pytest.raises(ConstraintViolation) as exc:
        confining_well(2e5, -1.0, 1.0, N=100_000)
    assert str(exc.value) == "the well's Jacobi matrix has at most 100000 rows (got 100001.0)"
    with pytest.raises(DomainError) as exc:
        confining_well(5.5, -1.0, 1.0, N=200_000)
    assert str(exc.value) == "N=200000 exceeds the basis bound n_max=4 (mu=-5.5)"


def test_confining_well_at_integer_a_minus():
    """The default N = n_max would divide by zero on the Jacobi diagonal."""
    with pytest.raises(DomainError) as exc:
        confining_well(3.0, -1.0, 1.0)
    assert str(exc.value) == "coefficient denominator (n+mu)(n+mu+1) vanishes at n=2"
    _, res = confining_well(3.0, -1.0, 1.0, N=1)
    assert len(res.energies) == 2


def _well_matrix(A_minus, N=None):
    """The full Jacobi matrix of the well at A+ = -1 (N = n_max by default)."""
    sol = resolve_class(_ode(Ap=-1.0, Am=A_minus, A1=-0.25), ClassId.K0)
    return jacobi_matrix(sol, sol.n_max if N is None else N)


def _sturm_levels(d, e, guesses, dps=40):
    """The eigenvalues of the float tridiagonal matrix (d, e) next to `guesses`,
    the lowest ascending, by Sturm-count bisection in dps digits: level k is
    bracketed around guesses[k] by the count of eigenvalues below each end."""
    import mpmath

    with mpmath.workdps(dps):
        diag = [mpmath.mpf(float(v)) for v in d]
        off2 = [mpmath.mpf(float(v)) ** 2 for v in e]
        tiny = mpmath.mpf(10) ** (-3 * dps)   # a zero pivot, as if x were a hair lower

        def below(x):   # the number of eigenvalues below x: negative pivots of T - x
            count, q = 0, diag[0] - x
            for dn, e2 in zip(diag[1:], off2):
                count += q < 0
                q = dn - x - e2 / (q or tiny)
            return count + (q < 0)

        levels = []
        for k, guess in enumerate(guesses):
            step = mpmath.mpf(abs(guess)) * 1e-12
            lo, hi = guess - step, guess + step
            while below(lo) > k:
                lo, step = lo - step, 2 * step
            while below(hi) < k + 1:
                hi, step = hi + step, 2 * step
            while hi - lo > abs(lo) * mpmath.mpf(10) ** (2 - dps):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if below(mid) > k else (mid, hi)
            levels.append((lo + hi) / 2)
        return levels


@pytest.mark.parametrize("A_minus", [100.5, 400.5])
def test_default_well_levels_are_those_of_a_40_digit_bisection(A_minus):
    """Above the crossover the default levels come from a leading block of the
    Jacobi matrix: within 2 ulp of the same float matrix's levels in 40 digits
    (the full dstevd is off by up to 6.8 ulp at these wells)."""
    z = confining_well(A_minus, -1.0, 1.0)[1].metadata["z_eigenvalues"]
    for zk, ref in zip(z, _sturm_levels(*_well_matrix(A_minus), z)):
        assert abs(zk - ref) <= 2 * math.ulp(zk)


@pytest.mark.parametrize("A_minus, n_levels", [(1000.5, 5), (5000.5, 5), (1000.5, 1),
                                               (1000.5, 12)])
def test_default_well_levels_match_the_full_dstevd(A_minus, n_levels):
    _, res = confining_well(A_minus, -1.0, 1.0, n_levels=n_levels)
    full = tridiag_eigenvalues(*_well_matrix(A_minus))[:n_levels]
    assert res.metadata["matrix_size"] < 30   # a leading block
    np.testing.assert_allclose(res.metadata["z_eigenvalues"], full, rtol=1e-14, atol=0)
    np.testing.assert_allclose(res.energies, full / 8, rtol=1e-14, atol=0)


@pytest.mark.parametrize("A_minus", [quantum._WELL_BLOCK_ROWS + 1.5, 100.5, 400.5, 1000.5,
                                     5000.5, 99_999.5])
def test_default_well_levels_carry_ritz_bounds_of_at_most_one_ulp(A_minus):
    """Past the crossover (n_max + 1 rows above _WELL_BLOCK_ROWS) the well
    reports the block's size and each level's Ritz bound; at the 100,000-row
    cap itself the block takes 7 rows, where dstevd would take about a minute."""
    md = confining_well(A_minus, -1.0, 1.0)[1].metadata
    assert md["matrix_size"] <= 13
    assert len(md["ritz_bounds"]) == len(md["z_eigenvalues"]) == 5
    assert all(0 <= b <= math.ulp(z) for b, z in zip(md["ritz_bounds"], md["z_eigenvalues"]))


@pytest.mark.parametrize("A_minus, N", [
    (20.5, None), (quantum._WELL_BLOCK_ROWS + 0.5, None),   # a default N
    (400.5, 30), (1000.5, 6), (1000.5, quantum._WELL_BLOCK_ROWS - 1)])   # an explicit N
def test_wells_of_at_most_59_rows_solve_the_full_matrix(A_minus, N):
    """At most _WELL_BLOCK_ROWS rows, given N or not, keep dstevd's bits."""
    _, res = confining_well(A_minus, -1.0, 1.0, N=N)
    d, e = _well_matrix(A_minus, N)
    assert res.metadata["matrix_size"] == len(d) <= quantum._WELL_BLOCK_ROWS
    assert res.metadata["z_eigenvalues"] == tridiag_eigenvalues(d, e)[:5].tolist()
    assert "ritz_bounds" not in res.metadata


@pytest.mark.parametrize("A_minus", [100.5, 400.5, 1000.5])
def test_explicit_n_max_well_is_the_default_bit_for_bit(A_minus):
    """Whether N is given does not decide how the matrix is solved: N = n_max
    gives the default's energies and metadata, its leading block included."""
    _, default = confining_well(A_minus, -1.0, 1.0)
    _, explicit = confining_well(A_minus, -1.0, 1.0, N=int(A_minus - 0.5) - 1)
    assert explicit.metadata["matrix_size"] == default.metadata["matrix_size"] <= 13
    assert explicit.energies.tolist() == default.energies.tolist()
    assert explicit.metadata == default.metadata


@pytest.mark.parametrize("A_minus, N", [(400.5, 200), (400.5, 399),
                                        (1000.5, quantum._WELL_BLOCK_ROWS)])
def test_explicit_n_past_the_crossover_solves_a_leading_block(A_minus, N):
    """An explicit N of more than _WELL_BLOCK_ROWS rows, below n_max too, is
    solved as the default is: a leading block whose Ritz bounds are at most one
    ulp, its levels within 2 ulp of its own (N+1)-row matrix's in 40 digits."""
    md = confining_well(A_minus, -1.0, 1.0, N=N)[1].metadata
    z = md["z_eigenvalues"]
    assert md["matrix_size"] <= 13
    assert len(md["ritz_bounds"]) == len(z) == 5
    assert all(0 <= b <= math.ulp(zk) for b, zk in zip(md["ritz_bounds"], z))
    for zk, ref in zip(z, _sturm_levels(*_well_matrix(A_minus, N), z)):
        assert abs(zk - ref) <= 2 * math.ulp(zk)


@pytest.mark.parametrize("A_minus", [60.5, 100.5])
def test_default_well_whose_block_does_not_converge_solves_the_full_matrix(A_minus):
    """At A+ = -1e6 the couplings are large against the diagonal gaps, so the
    leading block gives up before n_max: the well then reports the full
    matrix's size and levels, and no Ritz bounds."""
    md = confining_well(A_minus, -1e6, 1.0)[1].metadata
    sol = resolve_class(_ode(Ap=-1e6, Am=A_minus, A1=-0.25), ClassId.K0)
    assert md["matrix_size"] == sol.n_max + 1 == int(A_minus - 0.5)
    assert "ritz_bounds" not in md
    assert md["z_eigenvalues"] == tridiag_eigenvalues(*jacobi_matrix(sol, sol.n_max))[:5].tolist()


@pytest.mark.parametrize("A_minus, N", [(60.5, None), (100.5, None), (60.5, 59), (100.5, 99),
                                        (100.5, 80)],
                         ids=["60.5", "100.5", "60.5-N59", "100.5-N99", "100.5-N80"])
def test_default_well_whose_block_cannot_converge_solves_no_block(monkeypatch, A_minus, N):
    """At A+ = -1e6 the first coupling is 1.9 and 1.2 times the first diagonal
    gap, and the well goes to the full matrix before any block eigensolve,
    whether N is given or not; at A+ = -1 the same wells solve one block of 7
    rows."""
    from trabessel import _lapack

    calls = []
    solve = _lapack.lowest_eigenpairs

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(_lapack, "lowest_eigenpairs", counted)
    rows = int(A_minus - 0.5) if N is None else N + 1
    assert confining_well(A_minus, -1e6, 1.0, N=N)[1].metadata["matrix_size"] == rows
    assert calls == []
    assert confining_well(A_minus, -1.0, 1.0, N=N)[1].metadata["matrix_size"] == 7
    assert len(calls) == 1


def test_default_well_past_the_crossover_keeps_the_full_matrix_refusals():
    """The 100,000-row cap and the integer-A- refusal are still checked on n_max."""
    with pytest.raises(ConstraintViolation) as exc:
        confining_well(2e5, -1.0, 1.0)
    assert str(exc.value) == "the well's Jacobi matrix has at most 100000 rows (got 200000.0)"
    with pytest.raises(DomainError) as exc:
        confining_well(1000.0, -1.0, 1.0)
    assert str(exc.value) == "coefficient denominator (n+mu)(n+mu+1) vanishes at n=999"
    with pytest.raises(DomainError) as explicit:
        confining_well(1000.0, -1.0, 1.0, N=999)   # an explicit N = n_max as well
    assert str(explicit.value) == str(exc.value)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_lam_must_be_positive(lam):
    calls = [lambda: table1_map(1.0, _ode(A0=3.0), lam=lam),
             lambda: confining_well(20.5, -1.0, lam),
             lambda: well_potential(20.5, -1.0, lam),
             lambda: oscillator_potential(-0.25, 0.0, 0, lam),
             lambda: spectrum_eq64(0, lam, -0.25, 0.0, 0),
             lambda: eq64_energies(lam, -0.25, 0.0, 0, 3)]
    for call in calls:
        with pytest.raises(ConstraintViolation, match="^lam must be positive"):
            call()


def test_morse_levels_count_capped():
    levels = morse_levels(2.2, 1.0, 10)
    assert len(levels) == 2   # only n = 0, 1 bound
    assert morse_levels(2.2, 1.0, np.int64(10)).tolist() == levels.tolist()


@pytest.mark.parametrize("count", [2.5, 3.0, True], ids=["float", "integral-float", "bool"])
def test_morse_levels_count_must_be_an_integer(count):
    """Not a bare TypeError from range, and True is not one level."""
    with pytest.raises(DomainError, match=f"count must be an integer, not {count!r}"):
        morse_levels(20.5, 1.0, count)


# ---------------------------------------------------------------------------
# singular oscillator
# ---------------------------------------------------------------------------

def test_singular_oscillator_spectrum_and_regime():
    V, res, wf = singular_oscillator(-0.25, 1.5, 15 / 16, ell=0, lam=1.0, tau=2.0)
    assert res.energies[0] == approx(spectrum_eq64(0, 1.0, -0.25, res.metadata["Lambda"], 0))
    assert wf["eta"] == approx(2 / math.sqrt(3))
    assert res.metadata["discrete_regime"]


def test_singular_oscillator_lambda_consistency():
    # at a = 3/2 the two printed Lambda decompositions coincide
    _, res, _ = singular_oscillator(-0.25, 1.0, 0.5, ell=1, lam=1.0, tau=2.0)
    assert res.metadata["Lambda"] == approx(4 * 0.5 - 1 * 2)


@pytest.mark.parametrize("A1, Lambda, ell", [(-0.25, 0.0, 0), (-0.25, 3.0, 0), (-1.0, 2.0, 1),
                                           (-4.0, 0.5, 2)])
def test_oscillator_levels_from_the_l39c_jacobi_matrix_are_eq64s(A1, Lambda, ell):
    """On the a = 3/2 row (b = 0, A+ = 0) L39C's rows are linear in A-, with
    z = A- / sqrt(4 A1 + tau^2), so the eigenvalues z_k of its Jacobi matrix
    give the oscillator's levels E = -2 lam^2 sqrt(4 A1 + tau^2) z_k at any
    placeholder A-.  They are eq. 64's, whatever the basis parameter tau above
    the edge tau0 = 1 + 2 sqrt(-A1) where the couplings stay definite; N grows
    with tau - tau0 (worst 1.2e-14 relative)."""
    lam, tau0 = 1.0, 1 + 2 * math.sqrt(-A1)
    ode = _ode(Am=1.0, A1=A1, A0=(Lambda + ell * (ell + 1)) / 4, a=1.5)
    want = eq64_energies(lam, A1, Lambda, ell, 5)
    levels = []
    for tau, N in [(tau0 + 0.25, 40), (tau0 + 1, 160), (2 * tau0, 640)]:
        sol = resolve_class(ode, ClassId.L39C, free={"tau": tau})
        z = tridiag_eigenvalues(*jacobi_matrix(sol, N))
        levels.append(np.sort(-2 * lam ** 2 * math.sqrt(4 * A1 + tau ** 2) * z)[:5])
        np.testing.assert_allclose(levels[-1], want, rtol=5e-14, atol=0)
    np.testing.assert_allclose(levels[1:], [levels[0]] * 2, rtol=1e-13, atol=0)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("A1, Lambda, ell", [(-0.25, 0.0, 0), (-0.25, 3.0, 0), (-1.0, 2.0, 1),
                                           (-4.0, 0.5, 2)])
def test_eq64_is_the_l39c_diagonal_at_the_definiteness_edge(A1, Lambda, ell, lam):
    """At tau0 = 1 + 2 sqrt(-A1) L39C's s_n vanish, so its recursion is two-term
    and each level is its diagonal: E_n = -2 lam^2 sqrt(4 A1 + tau0^2) a_n / c,
    eq. 64 degree by degree (worst 1.6e-16 relative)."""
    tau0 = 1 + 2 * math.sqrt(-A1)
    ode = _ode(Am=1.0, A1=A1, A0=(Lambda + ell * (ell + 1)) / 4, a=1.5)
    sol = resolve_class(ode, ClassId.L39C, free={"tau": tau0})
    assert [recursion_coeffs(sol, n)[1] for n in range(5)] == [0.0] * 5
    a_n, c = u_decomposition(sol)
    levels = [-2 * lam ** 2 * math.sqrt(4 * A1 + tau0 ** 2) * a_n(n) / c for n in range(5)]
    np.testing.assert_allclose(levels, eq64_energies(lam, A1, Lambda, ell, 5), rtol=5e-16,
                               atol=0)


def test_singular_oscillator_guards():
    with pytest.raises(ConstraintViolation):
        singular_oscillator(0.5, 1.0, 0.5, 0, 1.0, 2.0)      # A1 > 0
    with pytest.raises(ConstraintViolation):
        singular_oscillator(-0.25, 1.0, -0.2, 0, 1.0, 2.0)   # 16 A0 < -1
    with pytest.raises(ConstraintViolation):
        singular_oscillator(-0.25, 1.0, 0.5, 0, 1.0, 0.1)    # 4 A1 + tau^2 <= 0


@pytest.mark.parametrize("n_levels", [0, -3])
def test_spectra_need_at_least_one_level(n_levels):
    pot = lambda r: 0.5 * r ** 2
    calls = [lambda: confining_well(20.5, -1.0, 1.0, n_levels=n_levels),
             lambda: confining_well(20.5, 0.0, 1.0, n_levels=n_levels),   # Morse
             lambda: fd_oracle(pot, (1e-6, 12.0), 1000, n_levels=n_levels),
             lambda: singular_oscillator(-0.25, 1.0, 0.5, 0, 1.0, 2.0,
                                         n_levels=n_levels)]
    for call in calls:
        with pytest.raises(ConstraintViolation, match="n_levels >= 1"):
            call()


@pytest.mark.parametrize("n_levels", [2.5, 2.0, True], ids=["half", "float", "bool"])
def test_level_counts_must_be_integers(n_levels):
    """2.5 used to give 2 levels from fd_oracle and a bare TypeError from
    confining_well, and True counted as 1."""
    pot = lambda r: 0.5 * r ** 2
    calls = [lambda: confining_well(20.5, -1.0, 1.0, n_levels=n_levels),
             lambda: confining_well(20.5, 0.0, 1.0, n_levels=n_levels),   # Morse
             lambda: fd_oracle(pot, (1e-6, 12.0), 1000, n_levels=n_levels),
             lambda: eq64_energies(1.0, -0.25, 0.0, 0, n_levels),
             lambda: singular_oscillator(-0.25, 1.0, 0.5, 0, 1.0, 2.0,
                                         n_levels=n_levels)]
    for call in calls:
        with pytest.raises(DomainError, match=f"n_levels must be an integer, not {n_levels!r}"):
            call()


@pytest.mark.parametrize("grid_size", [4000.0, True, "4000"], ids=["float", "bool", "str"])
def test_fd_grid_size_must_be_an_integer(grid_size):
    with pytest.raises(DomainError, match="grid_size must be an integer"):
        fd_oracle(lambda r: 0.5 * r ** 2, (1e-6, 12.0), grid_size)


def test_numpy_integer_counts_are_integers():
    pot = lambda r: 0.5 * r ** 2
    got = fd_oracle(pot, (1e-6, 12.0), np.int64(1000), n_levels=np.int32(2))
    want = fd_oracle(pot, (1e-6, 12.0), 1000, n_levels=2)
    assert got.energies.tolist() == want.energies.tolist()
    assert len(confining_well(20.5, -1.0, 1.0, n_levels=np.int64(3))[1].energies) == 3


def test_negative_angular_momentum_is_refused():
    """ell = -1 gives ell(ell+1) = 0, ell = 0's levels, where it used to pass."""
    pot = lambda r: 0.5 * r ** 2
    calls = [lambda: table1_map(1.5, _ode(A1=-0.25, A0=0.5, a=1.5), 1.0, ell=-1),
             lambda: spectrum_eq64(0, 1.0, -0.25, 0.0, -1),
             lambda: eq64_energies(1.0, -0.25, 0.0, -1, 3),
             lambda: oscillator_potential(-0.25, 0.0, -1, 1.0),
             lambda: singular_oscillator(-0.25, 1.0, 0.5, -1, 1.0, 2.0),
             lambda: fd_oracle(pot, (1e-6, 12.0), 1000, ell=-1)]
    for call in calls:
        with pytest.raises(ConstraintViolation, match=r"ell >= 0 \(got -1\)"):
            call()


def test_oscillator_fd_agreement():
    lam, A1, Lam, ell = 1.0, -0.25, 3.0, 0
    pot = oscillator_potential(A1, Lam, ell, lam)   # full effective potential
    oracle = fd_oracle(pot, (1e-6, 14.0), 3000, n_levels=3,
                       include_centrifugal=False)
    closed = [spectrum_eq64(k, lam, A1, Lam, ell) for k in range(3)]
    assert np.all(np.abs(oracle.energies - closed) <= 1e-3 * np.abs(closed))


def test_scale_covariance():
    """Doubling lam quadruples every energy in all three methods."""
    # closed form
    for k in range(3):
        assert spectrum_eq64(k, 2.0, -0.25, 1.0, 0) == approx(
            4 * spectrum_eq64(k, 1.0, -0.25, 1.0, 0), rel=1e-14)
    # jacobi route
    _, r1 = confining_well(10.5, -1.0, 1.0, n_levels=3)
    _, r2 = confining_well(10.5, -1.0, 2.0, n_levels=3)
    assert r2.energies == approx(4 * r1.energies, rel=1e-12)
    # fd oracle (harmonic: V scales as lam^4 r^2 -> E scales as lam^2... use
    # the oscillator potential whose closed form scales exactly)
    pot1 = oscillator_potential(-0.25, 0.0, 0, 1.0)
    pot2 = oscillator_potential(-0.25, 0.0, 0, 2.0)
    e1 = fd_oracle(pot1, (1e-6, 12.0), 2000, n_levels=2).energies
    e2 = fd_oracle(pot2, (1e-6, 6.0), 2000, n_levels=2).energies
    assert e2 == approx(4 * e1, rel=1e-5)


def test_well_wavefunction_coeffs():
    from trabessel.quantum import well_wavefunction_coeffs
    _, res = confining_well(10.5, -1.0, 1.0, n_levels=2)
    f = well_wavefunction_coeffs(10.5, -1.0, 1.0, float(res.energies[0]))
    assert f[0] == 1.0
    assert np.all(np.isfinite(f))
    assert len(f) == 10   # n_max + 1 at mu = -10.5
    with pytest.raises(ConstraintViolation):
        well_wavefunction_coeffs(10.5, 0.0, 1.0, -50.0)
