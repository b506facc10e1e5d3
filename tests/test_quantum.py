import math

import numpy as np
import pytest
from pytest import approx

from trabessel import (OdeParams, confining_well, fd_oracle, morse_levels,
                       singular_oscillator, spectrum_eq64, table1_map)
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


@pytest.mark.parametrize("A_minus", [20.5, 100.5, 400.5])
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
