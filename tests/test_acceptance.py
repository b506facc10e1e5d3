"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6's L39B decay clause is implemented faithfully and fails:
that class has quadratic-in-n couplings and a pinned binding argument, so
the truncation boundary term grows with N at every parameter set (see the
test docstring).
"""
import math

import numpy as np

import trabessel as tb
from trabessel import ClassId, OdeParams
from trabessel.basis import BasisSpec
from trabessel.families import (BesselJ, BesselJbar, ContDualHahnS, ContHahnH,
                                DeformedY, DeformedZ, DualHahnR, HahnQ,
                                LaguerreL, MeixnerM, MeixnerPollaczekP)
from trabessel.quantum import oscillator_potential, well_domain
from trabessel.solver import SeriesSolution

from conftest import DECAY_SETS, DOCUMENTED


def _report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------

def test_acceptance_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = {}
    draws = {name: [] for name in
             ("BesselJ", "BesselJbar", "LaguerreL", "DualHahnR", "ContDualHahnS",
              "HahnQ", "ContHahnH", "MeixnerPollaczekP", "MeixnerM")}
    for _ in range(22):
        n_max = int(rng.integers(10, 14))
        draws["BesselJ"].append((BesselJ(mu=-n_max - 0.5 - rng.uniform(0.01, 5),
                                         n_max=n_max), rng.uniform(0.01, 10)))
        draws["BesselJbar"].append((BesselJbar(nu=rng.uniform(0.1, 3)),
                                    rng.uniform(0.05, 5)))
        draws["LaguerreL"].append((LaguerreL(alpha=rng.uniform(-0.9, 4)),
                                   rng.uniform(0.0, 20)))
        draws["DualHahnR"].append((DualHahnR(p=rng.uniform(-0.9, 3),
                                             q=rng.uniform(-0.9, 3), N=12),
                                   int(rng.integers(0, 13))))
        draws["ContDualHahnS"].append((ContDualHahnS(p=rng.uniform(0.1, 3),
                                                     c=rng.uniform(0.1, 3),
                                                     d=rng.uniform(0.1, 3)),
                                       rng.uniform(-4, 9)))
        draws["HahnQ"].append((HahnQ(p=rng.uniform(-0.9, 3),
                                     q=rng.uniform(-0.9, 3), N=12),
                               int(rng.integers(0, 13))))
        pq = rng.uniform(0.1, 2, size=2)
        draws["ContHahnH"].append((ContHahnH(p=pq[0], q=pq[1], c=pq[0], d=pq[1]),
                                   rng.uniform(-2, 2)))
        draws["MeixnerPollaczekP"].append(
            (MeixnerPollaczekP(lam=rng.uniform(0.1, 3),
                               theta=rng.uniform(0.1, math.pi - 0.1)),
             rng.uniform(-3, 3)))
        # MeixnerM theta grid capped at 1.2 (documented): beyond that the
        # upward Meixner recursion loses digits
        draws["MeixnerM"].append((MeixnerM(lam=rng.uniform(0.1, 3),
                                           theta=rng.uniform(0.05, 1.2)),
                                  int(rng.integers(0, 11))))
    for name, pairs in draws.items():
        assert len(pairs) >= 20
        w = 0.0
        for fam, arg in pairs:
            for n in range(11):
                a = tb.eval_poly(fam, n, arg)
                b = tb.eval_oracle(fam, n, arg)
                w = max(w, abs(a - b) / max(1.0, abs(b)))
        worst[name] = w
    bad = {k: v for k, v in worst.items() if v > 1e-10}
    _report(1, not bad,
            "recursion vs terminating-hypergeometric <= 1e-10 for 9 families, "
            f"n <= 10, >= 20 points each (worst {max(worst.values()):.2e})")


# ---------------------------------------------------------------------------
# 2. reduction identities
# ---------------------------------------------------------------------------

def test_acceptance_2_reduction_identities():
    checks = []
    lhs, rhs = tb.reduce_identity("B_to_J", 2, 0.3, {"mu": -5.0})
    checks.append(abs(lhs - 0.58) <= 1e-10 and abs(rhs - 0.58) <= 1e-10)
    rng = np.random.default_rng(7)
    for n in range(9):
        for _ in range(4):
            mu = -9.5 - rng.uniform(0, 5)
            x = rng.uniform(0.05, 3)
            l, r = tb.reduce_identity("B_to_J", n, x, {"mu": mu})
            checks.append(abs(l - r) <= 1e-10 * max(1, abs(l)))
            l, r = tb.reduce_identity("Y_to_P", n, rng.uniform(-2, 2),
                                      {"lam": rng.uniform(0.2, 3),
                                       "theta": rng.uniform(0.2, 2.9),
                                       "eta": rng.uniform(-0.95, 0.95)})
            checks.append(abs(l - r) <= 1e-10 * max(1, abs(l)))
            l, r = tb.reduce_identity("Z_to_M", n, rng.uniform(0, 4),
                                      {"lam": rng.uniform(0.2, 2),
                                       "theta": rng.uniform(0.1, 0.4),
                                       "eta": rng.uniform(1.1, 2.4)})
            checks.append(abs(l - r) <= 1e-10 * max(1, abs(l)))
            l, r = tb.reduce_identity("Jbar_to_Laguerre", n, x,
                                      {"nu": rng.uniform(0.2, 3)})
            checks.append(abs(l - r) <= 1e-10 * max(1, abs(l)))
            l, r = tb.reduce_identity("J_to_Laguerre", n, x, {"mu": mu})
            checks.append(abs(l - r) <= 1e-10 * max(1, abs(l)))
    _report(2, all(checks),
            f"5 reduction identities hold to 1e-10 for n <= 8 "
            f"({len(checks)} checks, incl. B2(-5)(4*0.3;0) = J2(-5)(0.3) = 0.58)")


# ---------------------------------------------------------------------------
# 3. generating functions
# ---------------------------------------------------------------------------

def test_acceptance_3_generating_functions():
    sets = {
        "A9/BesselJ": [(BesselJ(mu=m, n_max=30), x, t) for m, x, t in
                       [(-32.5, 0.3, 0.03), (-31.2, 1.5, -0.05), (-35.1, 5.0, 0.01),
                        (-40.0, 0.8, 0.05), (-33.3, 2.2, -0.02)]],
        "B12/MP": [(MeixnerPollaczekP(l, th), x, t) for l, th, x, t in
                   [(1.0, math.pi / 3, 0.7, 0.05), (2.5, 1.0, -1.2, -0.05),
                    (0.5, 2.0, 2.0, 0.03), (1.5, 0.4, 0.0, 0.05),
                    (3.0, 2.8, 1.0, 0.02)]],
        "B15/Meixner": [(MeixnerM(l, th), m, t) for l, th, m, t in
                        [(1.0, 0.5, 3, 0.05), (2.0, 1.0, 0, -0.05),
                         (0.7, 1.5, 5, 0.03), (1.2, 0.8, 2.5, 0.04),
                         (3.0, 0.3, 1, -0.02)]],
        "B17/Y": [(DeformedY(l, th, e), x, t) for l, th, e, x, t in
                  [(1.0, math.pi / 3, 0.5, 0.4, 0.03), (2.0, 1.0, -0.7, 1.0, 0.05),
                   (0.5, 2.0, 0.9, -1.5, -0.05), (1.5, 0.7, 0.0, 0.3, 0.05),
                   (1.0, 1.2, 2.0, 0.5, 0.03)]],
        "B22/Z": [(DeformedZ(l, th, e), m, t) for l, th, e, m, t in
                  [(1.0, 0.3, 2.0, 1.0, 0.05), (1.5, 0.2, 3.0, 2.5, -0.05),
                   (0.8, 0.4, 1.5, 0.0, 0.04), (2.0, 0.25, 2.5, 4.0, 0.03),
                   (1.2, 0.35, -1.8, 1.0, 0.05)]],
    }
    worst = 0.0
    for name, cases in sets.items():
        assert len(cases) == 5
        for fam, x, t in cases:
            assert abs(t) <= 0.05
            ps, cf = tb.generating_check(fam, x, t, n_terms=30)
            worst = max(worst, abs(ps - cf) / max(1.0, abs(cf)))
    _report(3, worst <= 1e-8,
            f"30-term partial sums match closed forms at 5 parameter sets per "
            f"family, |t| <= 0.05 (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. orthogonality
# ---------------------------------------------------------------------------

def test_acceptance_4_orthogonality():
    ok = True
    fam10 = BesselJ(mu=-10.0, n_max=3)
    scale = -math.factorial(0) * math.gamma(20.0) / (-19.0)
    for n in range(4):
        for m in range(4):
            num, rhs = tb.orthogonality_integral(fam10, n, m)
            if n == m:
                ok = ok and abs(num - rhs) <= 1e-6 * abs(rhs)
            else:
                ok = ok and abs(num) <= 1e-6 * scale
    num, _ = tb.orthogonality_integral(BesselJ(mu=-5.0, n_max=0), 0, 0)
    ok = ok and abs(num - 40320.0) <= 1e-8 * 40320.0
    _report(4, ok, "A3 diagonal matches -n! Gamma(-n-2mu)/(2n+2mu+1) at mu=-10 "
                   "(1e-6), off-diagonal <= 1e-6 scaled; mu=-5 case = Gamma(9)")


# ---------------------------------------------------------------------------
# 5. tridiagonality (the core claim)
# ---------------------------------------------------------------------------

def test_acceptance_5_tridiagonality():
    worst = {}
    variants = set()
    for cid, (p, free) in DOCUMENTED.items():
        sol = tb.resolve_class(p, cid, free)
        rep = tb.tridiagonality_sweep(sol, range(0, 9))
        worst[cid.value] = rep.max_rel_deviation
        variants.update(sol.notes)
    detail = (f"all six classes, n <= 8, default grid "
              f"(worst {max(worst.values()):.2e})")
    if variants:
        detail += f"; adopted variants: {sorted(variants)}"
    _report(5, max(worst.values()) <= 1e-8, detail)


# ---------------------------------------------------------------------------
# 6. residuals
# ---------------------------------------------------------------------------

def test_acceptance_6_residual_bessel_special_case():
    mu, n = -7.5, 3
    basis = BasisSpec(kind="bessel", beta=0.0, alpha=0.0, mu=mu)
    p = OdeParams(a=2 * (mu + 1), b=1.0, A_plus=0, A_minus=0, A_one=0,
                  A_zero=n * (n + 2 * mu + 1))
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    rep = tb.residual(SeriesSolution(None, basis, p, coeffs))
    _report("6a", rep.max_rel_deviation <= 1e-10,
            f"one-term Bessel-polynomial series has |D y| <= 1e-10 * scale "
            f"({rep.max_rel_deviation:.2e})")


def _decay_pair(cid):
    p, free = DECAY_SETS[cid]
    sol = tb.resolve_class(p, cid, free)
    f = tb.expansion_coefficients(sol, 40)
    r20 = tb.residual(SeriesSolution(sol, sol.basis, p, f[:21])).max_rel_deviation
    r40 = tb.residual(SeriesSolution(sol, sol.basis, p, f)).max_rel_deviation
    return r20, r40


def test_acceptance_6_residual_decay_l39a():
    r20, r40 = _decay_pair(ClassId.L39A)
    _report("6b", r40 < r20, f"L39A residual(N=40)={r40:.3e} < residual(N=20)={r20:.3e}")


def test_acceptance_6_residual_decay_l39c():
    r20, r40 = _decay_pair(ClassId.L39C)
    _report("6c", r40 < r20, f"L39C residual(N=40)={r40:.3e} < residual(N=20)={r20:.3e}")


def test_acceptance_6_residual_decay_l39b():
    """Honest red: no parameter set makes the L39B truncation residual decay.

    The class couplings s_n, t_n are quadratic in n while the binding
    argument z^2 = -nu^2 is pinned by the equation parameters, so the
    coefficients decay at best polynomially (f_n ~ 1/n at the documented
    set) and the truncation boundary term omega [t_N f_N phi_{N+1} -
    s_N f_{N+1} phi_N] grows like N^(nu + 3/4).  A scan over zeta in
    [-0.9, 5], nu in [0.3, 6] and eight grids found no monotone decay;
    occasional raw dips at isolated N-pairs reverse by N = 60-80.  See
    the decisions ledger for the full analysis.
    """
    r20, r40 = _decay_pair(ClassId.L39B)
    _report("6d", r40 < r20, f"L39B residual(N=40)={r40:.3e} < residual(N=20)={r20:.3e} "
                             "(unattainable: quadratic couplings with pinned argument)")


# ---------------------------------------------------------------------------
# 7. oscillator spectrum vs the fd oracle
# ---------------------------------------------------------------------------

def test_acceptance_7_spectrum_eq64():
    ok = True
    for lam in (1.0, 1.7):
        omega = 2 * lam ** 2 * math.sqrt(0.25)
        for k in range(4):
            for ell in (0, 2):
                got = tb.spectrum_eq64(k, lam, -0.25, 0.0, ell)
                ok = ok and abs(got - omega * (2 * k + ell + 1.5)) <= 1e-12
    worst = 0.0
    for (A1, Lam, ell) in [(-0.25, 0.0, 0), (-0.25, 3.0, 0), (-1.0, 1.0, 1)]:
        # the effective potential already carries the centrifugal term
        pot = oscillator_potential(A1, Lam, ell, 1.0)
        rmax = 14.0 / (-A1) ** 0.25
        oracle = tb.fd_oracle(pot, (1e-6, rmax), 4000, n_levels=5,
                              include_centrifugal=False)
        closed = np.array([tb.spectrum_eq64(k, 1.0, A1, Lam, ell) for k in range(5)])
        worst = max(worst, float(np.max(np.abs(oracle.energies - closed) / closed)))
    _report(7, ok and worst <= 1e-3,
            f"Lambda=0 reduction exact to 1e-12; fd oracle reproduces the "
            f"closed form, lowest 5 levels, 3 parameter sets (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 8. confining well (exploratory)
# ---------------------------------------------------------------------------

def test_acceptance_8_confining_well():
    V, res = tb.confining_well(20.5, -1.0, 1.0)
    lo, hi = well_domain(20.5, -1.0, 1.0, e_max=float(res.energies[-1]))
    oracle = tb.fd_oracle(V, (lo, hi), 4000, n_levels=5)
    gaps = np.abs(res.energies - oracle.energies) / np.abs(oracle.energies)
    print("    per-level jacobi-vs-fd gaps:",
          " ".join(f"{g:.2e}" for g in gaps))
    ok = gaps[0] <= 0.02
    # Morse limit: validate the closed form against the oracle first
    Vm, morse = tb.confining_well(20.5, 0.0, 1.0, n_levels=3)
    lo, hi = well_domain(20.5, 0.0, 1.0, e_max=float(morse.energies[-1]))
    m_oracle = tb.fd_oracle(Vm, (lo, hi), 4000, n_levels=3)
    morse_gap = float(np.max(np.abs(morse.energies - m_oracle.energies)
                             / np.abs(m_oracle.energies)))
    ok = ok and morse_gap <= 1e-3
    _report(8, ok,
            f"ground-state jacobi-vs-fd gap {gaps[0]:.2e} <= 2%; Morse limit "
            f"matches oracle to {morse_gap:.2e} <= 1e-3 on 3 levels")


# ---------------------------------------------------------------------------
# 9. Favard definiteness
# ---------------------------------------------------------------------------

def test_acceptance_9_favard():
    ok = True
    for cid, (p, free) in DOCUMENTED.items():
        sol = tb.resolve_class(p, cid, free)
        cap = min(10, sol.n_max or 10)
        rep = tb.favard_report(sol, cap)
        ok = ok and rep.definite
    p_b, free_b = DOCUMENTED[ClassId.L39B]
    l39b = tb.resolve_class(p_b, ClassId.L39B, free_b)
    diag = tb.dual_hahn_rejection(l39b)
    ok = ok and diag["rejected"] and "nonnegative integer" in diag["contradiction"]
    _report(9, ok, "s_n t_n > 0 at every documented set; the dual-Hahn "
                   "alternative reports its positivity contradiction "
                   f"(N = {diag['N']:g} < 0)")
