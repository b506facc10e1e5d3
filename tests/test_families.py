import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from trabessel import (BesselJ, BesselJbar, ContDualHahnS, ContHahnH, DeformedB,
                       DeformedY, DeformedZ, DualHahnR, HahnQ, LaguerreL,
                       MeixnerM, MeixnerPollaczekP, eval_oracle, eval_poly,
                       pochhammer)
from trabessel.basis import BasisSpec, _poly_rows
from trabessel.errors import DomainError, UnsupportedOracle
from trabessel.families import eval_poly_sequence


def test_pochhammer_trivial():
    assert pochhammer(7.3, 0) == 1
    assert pochhammer(1, 5) == 120
    assert pochhammer(-3, 5) == 0


def test_pochhammer_rejects_negative_n():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


@given(a=st.floats(-10, 10, allow_nan=False), n=st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_pochhammer_recurrence(a, n):
    assert pochhammer(a, n + 1) == approx(pochhammer(a, n) * (a + n), rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# frozen single values
# ---------------------------------------------------------------------------

def test_besselj_frozen_values():
    fam = BesselJ(mu=-5.0, n_max=4)
    assert eval_poly(fam, 0, 0.3) == 1.0
    # 2F0 sum gives 1 - 14x + 42x^2 at mu = -5, n = 2
    assert eval_poly(fam, 2, 0.3) == approx(0.58, rel=1e-12)
    assert eval_oracle(fam, 1, 0.3) == approx(-1.4, rel=1e-12)
    assert eval_oracle(fam, 1, 0.3) == approx(1 + 2 * (-5 + 1) * 0.3, rel=1e-14)


def test_deformedb_seed():
    fam = DeformedB(mu=-5.0, gamma=-4.0, n_max=4)
    assert eval_poly(fam, 0, 123.456) == 1.0


def test_mp_first_degree():
    fam = MeixnerPollaczekP(lam=1.0, theta=math.pi / 2)
    assert eval_poly(fam, 1, 0.7) == approx(1.4, rel=1e-14)


def test_hahn_seed():
    fam = HahnQ(p=0.5, q=1.5, N=8)
    assert eval_oracle(fam, 0, 3) == 1.0


def test_besseljbar_frozen():
    # n!(-x)^n L_n^{2nu}(1/x) with L_1^2(2) = 1
    fam = BesselJbar(nu=1.0)
    assert eval_oracle(fam, 1, 0.5) == approx(-0.5, rel=1e-14)
    assert eval_poly(fam, 1, 0.5) == approx(-0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# oracle equivalence over sampled parameters (documented grids)
# ---------------------------------------------------------------------------

def _relerr(a, b):
    return abs(a - b) / max(1.0, abs(b))


def sample_family_points(rng, n_points=25):
    """(family, argument) draws within the documented invariant ranges."""
    draws = []
    for _ in range(n_points):
        n_max = int(rng.integers(10, 14))
        mu = -n_max - 0.5 - rng.uniform(0.01, 5)
        draws.append((BesselJ(mu=mu, n_max=n_max), rng.uniform(0.01, 10)))
        draws.append((BesselJbar(nu=rng.uniform(0.1, 3)), rng.uniform(0.05, 5)))
        draws.append((LaguerreL(alpha=rng.uniform(-0.9, 4)), rng.uniform(0, 20)))
        draws.append((DualHahnR(p=rng.uniform(-0.9, 3), q=rng.uniform(-0.9, 3), N=12),
                      int(rng.integers(0, 13))))
        draws.append((ContDualHahnS(p=rng.uniform(0.1, 3), c=rng.uniform(0.1, 3),
                                    d=rng.uniform(0.1, 3)), rng.uniform(-4, 9)))
        draws.append((HahnQ(p=rng.uniform(-0.9, 3), q=rng.uniform(-0.9, 3), N=12),
                      int(rng.integers(0, 13))))
        pq = rng.uniform(0.1, 2, size=2)
        draws.append((ContHahnH(p=pq[0], q=pq[1], c=pq[0], d=pq[1]),
                      rng.uniform(-2, 2)))
        draws.append((MeixnerPollaczekP(lam=rng.uniform(0.1, 3),
                                        theta=rng.uniform(0.1, math.pi - 0.1)),
                      rng.uniform(-3, 3)))
        # theta capped at 1.2: at larger theta the upward Meixner recursion loses
        # digits (7.2e-7 from the 30-digit oracle at theta in (1.2, 3), n <= 10),
        # which the cap keeps out of the oracle comparison
        draws.append((MeixnerM(lam=rng.uniform(0.1, 3), theta=rng.uniform(0.05, 1.2)),
                      int(rng.integers(0, 11))))
    return draws


def test_oracle_equivalence_sampled():
    rng = np.random.default_rng(42)
    worst = {}
    for fam, arg in sample_family_points(rng):
        cap = getattr(fam, "n_max", 10) or 10
        for n in range(0, min(10, cap) + 1):
            err = _relerr(eval_poly(fam, n, arg), eval_oracle(fam, n, arg))
            key = type(fam).__name__
            worst[key] = max(worst.get(key, 0.0), err)
    for name, err in worst.items():
        assert err <= 1e-10, f"{name}: recursion vs oracle {err:.2e}"


@pytest.mark.parametrize("kind", [HahnQ, DualHahnR])
@pytest.mark.parametrize("N", [4, 8])
def test_oracle_at_the_top_degree(kind, N):
    """At n = N the upper -n of the 3F2 meets its lower -N, and the sum runs
    to the last term (worst 3.2e-12).  N stays at most 8: on these draws the
    recursion itself drifts to 2.0e-11 at N = 10 and 1.2e-9 at N = 12."""
    rng = np.random.default_rng(42)
    for _ in range(5):
        fam = kind(p=rng.uniform(-0.9, 3), q=rng.uniform(-0.9, 3), N=N)
        for m in range(N + 1):
            assert _relerr(eval_poly(fam, N, m), eval_oracle(fam, N, m)) <= 1e-10, (fam, m)


@pytest.mark.parametrize("alpha", [-1.0, -2.0, -3.0])
def test_laguerre_oracle_at_a_negative_integer_alpha(alpha):
    """At an integer alpha <= -1 and n >= -alpha, (alpha+1)_n / n! 1F1(-n; alpha+1; x)
    is a removable zero times a pole; the binomial sum has no pole."""
    for n in range(8):
        assert eval_oracle(LaguerreL(alpha), n, 0.5) == approx(
            eval_poly(LaguerreL(alpha), n, 0.5), rel=1e-13, abs=1e-16)
    if alpha == -3.0:
        assert eval_oracle(LaguerreL(alpha), 5, 0.5) == -0.015885416666666666


def test_deformed_families_have_no_oracle():
    for fam in (DeformedB(-5.0, 0.3, 4), DeformedY(1.0, 1.0, 0.5),
                DeformedZ(1.0, 0.5, 2.0)):
        with pytest.raises(UnsupportedOracle):
            eval_oracle(fam, 2, 0.5)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fam,arg", [
    (BesselJ(mu=-12.5, n_max=10), 0.7),
    (BesselJbar(nu=1.5), 0.4),
    (LaguerreL(alpha=0.5), 2.0),
    (DeformedB(mu=-12.5, gamma=-2.0, n_max=10), 1.0),
    (ContDualHahnS(p=1.5, c=0.5, d=2.0), 1.0),
    (MeixnerPollaczekP(lam=1.5, theta=1.0), 0.0),
    (MeixnerM(lam=1.0, theta=0.7), 2),
    (DeformedY(lam=1.5, theta=1.0, eta=0.4), 0.0),
    (DeformedZ(lam=1.0, theta=0.4, eta=2.0), 1.0),
])
def test_seed_normalization(fam, arg):
    assert eval_poly(fam, 0, arg) == 1.0


@pytest.mark.parametrize("fam,nodes", [
    (BesselJ(mu=-12.5, n_max=8), np.linspace(0.1, 3.0, 9)),
    (DeformedB(mu=-12.5, gamma=-1.5, n_max=8), np.linspace(-3, 3, 9)),
    (MeixnerPollaczekP(lam=1.2, theta=0.9), np.linspace(-2, 2, 9)),
    (DeformedY(lam=1.2, theta=0.9, eta=0.5), np.linspace(-2, 2, 9)),
    (HahnQ(p=0.5, q=1.0, N=12), np.linspace(0, 8, 9)),
    (ContDualHahnS(p=1.0, c=0.7, d=1.3), np.linspace(-2, 6, 9)),
])
def test_degree_property(fam, nodes):
    """Exact degree-n interpolation reproduces values at fresh points."""
    n = 8
    vals = [eval_poly(fam, n, z) for z in nodes]
    # domain-scaled fit keeps the degree-8 Vandermonde well conditioned
    poly = np.polynomial.Polynomial.fit(nodes, vals, n)
    fresh = np.linspace(nodes[0] + 0.05, nodes[-1] - 0.05, 7)
    scale = max(abs(v) for v in vals)
    for z in fresh:
        direct = eval_poly(fam, n, z)
        assert poly(z) == approx(direct, rel=1e-7, abs=1e-7 * scale)


def test_besselj_definiteness_guard():
    """Recursion coefficients multiplying the two neighbours share a sign for
    every upward step actually taken (n = 1..n_max-1)."""
    for mu, n_max in ((-10.0, 9), (-4.6, 4), (-25.3, 24)):
        for n in range(1, n_max):
            c_minus = -n / ((n + mu) * (2 * n + 2 * mu + 1))
            c_plus = (n + 2 * mu + 1) / ((n + mu + 1) * (2 * n + 2 * mu + 1))
            assert c_minus * c_plus > 0, (mu, n)


def test_degree_bound_enforced():
    fam = BesselJ(mu=-5.0, n_max=4)
    with pytest.raises(DomainError):
        eval_poly(fam, 5, 0.3)
    with pytest.raises(DomainError):
        eval_poly(HahnQ(p=0.5, q=0.5, N=6), 7, 2)


def test_numpy_scalar_overflow_is_a_domain_error():
    """A NumPy scalar argument overflows as quietly as a float does and fails
    the finiteness check; no RuntimeWarning comes first."""
    for z in (-1e6, np.float64(-1e6)):
        with pytest.raises(DomainError, match="non-finite"):
            eval_poly_sequence(LaguerreL(1.0), 800, z)


def test_family_invariant_validation():
    with pytest.raises(DomainError):
        BesselJ(mu=-3.0, n_max=4).validate()
    with pytest.raises(DomainError):
        MeixnerPollaczekP(lam=-1.0, theta=1.0).validate()
    with pytest.raises(DomainError):
        MeixnerM(lam=1.0, theta=-0.3).validate()
    with pytest.raises(DomainError):
        HahnQ(p=-2.0, q=0.5, N=5).validate()


@pytest.mark.parametrize("family, message", [
    (BesselJ(mu=-3.0, n_max=4), "BesselJ needs mu < -n_max - 1/2 (mu=-3.0, n_max=4)"),
    (DeformedB(mu=-3.0, gamma=1.0, n_max=4),
     "DeformedB needs mu < -n_max - 1/2 (mu=-3.0, n_max=4)"),
    (DualHahnR(p=0.5, q=-2.0, N=5), "DualHahnR q=-2.0 outside (> -1 or < -N)"),
    (HahnQ(p=-2.0, q=0.5, N=5), "HahnQ p=-2.0 outside (> -1 or < -N)"),
    (MeixnerPollaczekP(lam=-1.0, theta=1.0),
     "MeixnerPollaczekP needs lam > 0, 0 < theta < pi (lam=-1.0, theta=1.0)"),
    (DeformedY(lam=1.0, theta=4.0, eta=0.0),
     "DeformedY needs lam > 0, 0 < theta < pi (lam=1.0, theta=4.0)"),
    (MeixnerM(lam=1.0, theta=-0.3), "MeixnerM needs lam > 0, theta > 0 (lam=1.0, theta=-0.3)"),
    (DeformedZ(lam=0.0, theta=1.0, eta=0.0),
     "DeformedZ needs lam > 0, theta > 0 (lam=0.0, theta=1.0)"),
], ids=["BesselJ", "DeformedB", "DualHahnR", "HahnQ", "MeixnerPollaczekP", "DeformedY",
        "MeixnerM", "DeformedZ"])
def test_family_rule_messages_name_the_family(family, message):
    """Families that share a rule share its code; the message still names the
    family that failed it."""
    with pytest.raises(DomainError) as exc:
        family.validate()
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        eval_poly(family, 0, 0.5)
    assert str(exc.value) == message


def test_families_without_a_rule_accept_any_parameters():
    for family in (BesselJbar(-7.0), LaguerreL(-7.0), ContDualHahnS(-7.0, -7.0, -7.0),
                   ContHahnH(-7.0, -7.0, -7.0, -7.0)):
        assert family.validate() is None


@pytest.mark.parametrize("family, n, message", [
    (BesselJ(mu=-5.0, n_max=4), 5, "degree 5 exceeds n_max=4 for BesselJ"),
    (DeformedB(mu=-5.0, gamma=1.0, n_max=4), 5, "degree 5 exceeds n_max=4 for DeformedB"),
    (HahnQ(p=0.5, q=0.5, N=3.0), 4, "degree 4 exceeds N=3.0 for HahnQ"),
    (DualHahnR(p=0.5, q=0.5, N=3), 4, "degree 4 exceeds N=3 for DualHahnR"),
], ids=["BesselJ", "DeformedB", "HahnQ", "DualHahnR"])
def test_degree_bound_is_the_highest_degree_accepted(family, n, message):
    eval_poly(family, n - 1, 0.5)
    with pytest.raises(DomainError) as exc:
        eval_poly(family, n, 0.5)
    assert str(exc.value) == message


def test_a_family_with_a_non_integral_N_has_no_degree_bound():
    for family in (HahnQ(p=0.5, q=0.5, N=3.5), LaguerreL(1.0)):
        assert len(eval_poly_sequence(family, 40, 0.5)) == 41


@given(n=st.integers(0, 8), x=st.floats(0.05, 5.0))
@settings(max_examples=40, deadline=None)
def test_besselj_sequence_matches_oracle(n, x):
    fam = BesselJ(mu=-12.5, n_max=10)
    seq = eval_poly_sequence(fam, n, x)
    assert seq[n] == approx(eval_oracle(fam, n, x), rel=1e-10, abs=1e-12)


def test_conthahn_complex_values():
    fam = ContHahnH(p=0.8, q=1.1, c=0.8, d=1.1)
    v = eval_poly(fam, 3, 0.6)
    assert isinstance(v, complex)
    assert v == approx(eval_oracle(fam, 3, 0.6), rel=1e-11)


# ---------------------------------------------------------------------------
# one recursion engine: shared coefficients give the same bits
# ---------------------------------------------------------------------------

def _seq_bits(seq):
    return np.array(seq, dtype=float).view(np.int64)


def test_basis_rows_are_the_family_sequences():
    """The basis block's polynomial rows are BesselJ(mu) at x and
    LaguerreL(2 nu) at 1/x, bit for bit, on seeded grids."""
    rng = np.random.default_rng(9)
    for _ in range(12):
        x = rng.uniform(0.01, 5.0, size=16)
        mu = -rng.uniform(1.5, 45)
        bessel = BasisSpec("bessel", beta=1.0, alpha=0.0, mu=mu)
        nu = rng.uniform(-0.4, 3.0)
        laguerre = BasisSpec("laguerre", beta=1.0, exponent=0.5, nu=nu)
        n = int(rng.integers(1, 120))
        for basis, fam, top, arg in ((bessel, BesselJ(mu, bessel.n_max), bessel.n_max, x),
                                     (laguerre, LaguerreL(2 * nu), n, 1.0 / x)):
            rows = _poly_rows(basis, top, x, False)[0]
            for i, z in enumerate(arg.tolist()):
                assert np.array_equal(_seq_bits(eval_poly_sequence(fam, top, z)),
                                      rows[:, i].view(np.int64)), (fam, z)


def test_meixner_pair_is_the_deformed_pair_at_eta_zero():
    """MeixnerPollaczekP is DeformedY at eta = 0.0 and MeixnerM is DeformedZ
    at eta = 0.0, bit for bit, up to N = 800 (all finite on these draws)."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = rng.uniform(0.05, 4)
        th, x = rng.uniform(0.01, math.pi - 0.01), rng.uniform(-5, 5)
        assert np.array_equal(_seq_bits(eval_poly_sequence(MeixnerPollaczekP(lam, th), 800, x)),
                              _seq_bits(eval_poly_sequence(DeformedY(lam, th, 0.0), 800, x)))
        th, m = rng.uniform(0.01, 0.8), float(rng.integers(0, 20))
        assert np.array_equal(_seq_bits(eval_poly_sequence(MeixnerM(lam, th), 800, m)),
                              _seq_bits(eval_poly_sequence(DeformedZ(lam, th, 0.0), 800, m)))


@pytest.mark.parametrize("fam,arg,stall,message", [
    (DualHahnR(p=-3.0, q=0.5, N=5.5), 2.0, 2,
     "DualHahnR recursion stalls at n=2 (N-n or n+p+1 vanishes)"),
    (ContDualHahnS(p=0.5, c=-2.5, d=1.0), 1.0, 2,
     "ContDualHahnS recursion stalls at n=2 ((n+p+c)(n+p+d)=0)"),
    (HahnQ(p=-3.0, q=0.5, N=7.5), 2.0, 2, "HahnQ recursion stalls at n=2"),
    (ContHahnH(p=0.5, q=0.6, c=-2.5, d=0.7), 0.3, 2, "ContHahnH recursion stalls at n=2"),
])
def test_recursion_stalls_at_the_first_vanishing_up_coefficient(fam, arg, stall, message):
    assert cmath.isfinite(eval_poly(fam, stall, arg))
    with pytest.raises(DomainError) as exc:
        eval_poly(fam, stall + 1, arg)
    assert str(exc.value) == message
