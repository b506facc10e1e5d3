import math
import os
import subprocess
import sys

import pytest
from pytest import approx

import trabessel
from trabessel import BesselJ, DeformedY, LaguerreL, orthogonality_integral
from trabessel.errors import DomainError, QuadratureFailure


def bessel_rhs(mu, n):
    return -math.factorial(n) * math.gamma(-n - 2 * mu) / (2 * n + 2 * mu + 1)


def test_bessel_diagonal_mu5_n0():
    # u = 1/x turns the weight integral into Gamma(9) = 40320
    num, rhs = orthogonality_integral(BesselJ(mu=-5.0, n_max=1), 0, 0)
    assert rhs == approx(40320.0, rel=1e-14)
    assert num == approx(40320.0, rel=1e-8)


def test_bessel_diagonal_mu5_n1():
    num, rhs = orthogonality_integral(BesselJ(mu=-5.0, n_max=1), 1, 1)
    assert rhs == approx(40320.0 / 7.0, rel=1e-14)
    assert num == approx(rhs, rel=1e-8)


def test_bessel_offdiagonal_mu5():
    num, rhs = orthogonality_integral(BesselJ(mu=-5.0, n_max=1), 0, 1)
    assert rhs == 0.0
    assert abs(num) <= 1e-6 * 40320.0


def test_bessel_grid_mu10():
    fam = BesselJ(mu=-10.0, n_max=3)
    scale = bessel_rhs(-10.0, 0)
    for n in range(4):
        for m in range(4):
            num, rhs = orthogonality_integral(fam, n, m)
            if n == m:
                assert num == approx(rhs, rel=1e-6)
            else:
                assert abs(num) <= 1e-6 * scale


def test_deformedy_diagonal_and_offdiagonal():
    fam = DeformedY(lam=1.5, theta=math.pi / 3, eta=0.3)
    for n in range(3):
        num, rhs = orthogonality_integral(fam, n, n)
        assert num == approx(rhs, rel=1e-7)
    for n, m in ((0, 1), (1, 2), (0, 2)):
        num, _ = orthogonality_integral(fam, n, m)
        scale = orthogonality_integral(fam, max(n, m), max(n, m))[1]
        assert abs(num) <= 1e-7 * max(1.0, scale)


def test_deformedy_needs_small_eta():
    with pytest.raises(DomainError):
        orthogonality_integral(DeformedY(lam=1.0, theta=1.0, eta=1.5), 0, 0)


def test_unsupported_family():
    with pytest.raises(DomainError):
        orthogonality_integral(LaguerreL(alpha=1.0), 0, 0)


def test_bessel_high_degree_mu40():
    """mu = -40.5 puts the weight's peak at u = 79, where the quadrature is split;
    h_15 is about 2e101."""
    fam = BesselJ(mu=-40.5, n_max=15)
    num, rhs = orthogonality_integral(fam, 15, 15)
    assert rhs == approx(bessel_rhs(-40.5, 15), rel=1e-14)
    assert num == approx(rhs, rel=1e-12)
    num, rhs = orthogonality_integral(fam, 14, 15)
    assert rhs == 0.0
    assert abs(num) <= 1e-12 * math.sqrt(abs(bessel_rhs(-40.5, 14) * bessel_rhs(-40.5, 15)))


def test_deformedy_degree_10():
    fam = DeformedY(lam=1.5, theta=math.pi / 3, eta=0.3)
    num, rhs = orthogonality_integral(fam, 10, 10)
    assert num == approx(rhs, rel=1e-12)
    num, rhs = orthogonality_integral(fam, 9, 10)
    assert rhs == 0.0
    assert abs(num) <= 1e-12


def test_unreachable_tolerance_is_a_quadrature_failure():
    """A tolerance far below the 53-bit working precision is not met."""
    with pytest.raises(QuadratureFailure, match="exceeds tol=1e-40"):
        orthogonality_integral(BesselJ(mu=-5.0, n_max=1), 0, 0, tol=1e-40)


def test_oracle_loads_no_scipy_module():
    code = ("import math, sys\n"
            "from trabessel import BesselJ, DeformedY, orthogonality_integral\n"
            "orthogonality_integral(BesselJ(mu=-5.0, n_max=1), 0, 1)\n"
            "orthogonality_integral(DeformedY(lam=1.5, theta=math.pi / 3, eta=0.3), 1, 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trabessel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
