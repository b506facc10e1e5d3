"""Randomized robustness sweeps over admissible parameter sets.

The documented sets all use b = 0; these sweeps draw (a, b) and the class
free parameters broadly, and check the operator identity, both coefficient
routes, and the binding against the raw recursion on every draw.
"""
import math
import zlib

import numpy as np
import pytest

from trabessel import (ClassId, OdeParams, closed_form_cn,
                       expansion_coefficients, recursion_coeffs, resolve_class,
                       tridiagonality_sweep)


def _seed(cid):
    """A per-class seed that is the same in every interpreter (str hash()
    is randomized per process), so a failing draw can be replayed."""
    return zlib.crc32(cid.value.encode())


def _away_from_half_integers(x, gap=0.07):
    frac = x - round(2 * x) / 2
    return x + math.copysign(gap, frac or 1.0) if abs(frac) < gap else x


def draw_class_instance(rng, cid):
    a = rng.uniform(-1.5, 3.0)
    b = rng.uniform(-1.2, 1.2)
    if cid in (ClassId.K0, ClassId.K1, ClassId.C8B, ClassId.L39B):
        A1 = (b ** 2 - 1) / 4
    elif cid is ClassId.L39A:
        A1 = (rng.uniform(0.2, 8.0) + b ** 2) / 4
    else:
        A1 = rng.uniform(-0.5, 1.0)
    nu = rng.uniform(0.15, 2.5)
    A0 = nu ** 2 - 0.25 * (a - 1) ** 2
    free = {}
    if cid is ClassId.K0:
        mu = _away_from_half_integers(rng.uniform(-15.0, -8.0))
        Am = b * (a / 2 - 1) - mu
        Ap = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
    else:
        Ap = 0.0
        if cid in (ClassId.K1, ClassId.C8B):
            mu = _away_from_half_integers(rng.uniform(-15.0, -8.0))
            free["mu"] = mu
            if cid is ClassId.C8B:
                free["alpha"] = rng.uniform(-14.0, -6.0)
            Am = rng.uniform(-3.0, 3.0)
        elif cid is ClassId.L39B:
            zeta = rng.uniform(0.1, 3.0)
            Am = nu + b * (a / 2 - 1) - zeta
        else:
            Am = rng.uniform(-3.0, 3.0)
            if cid is ClassId.L39C:
                while True:
                    tau = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
                    big_s = 4 * A1 - b ** 2 + tau ** 2
                    if big_s > 0.05 and abs(big_s - 1.0) > 0.05:
                        break
                free["tau"] = float(tau)
    return OdeParams(a=a, b=b, A_plus=Ap, A_minus=Am, A_one=A1, A_zero=A0), free


@pytest.mark.parametrize("cid", [ClassId.K0, ClassId.K1, ClassId.C8B,
                                 ClassId.L39A, ClassId.L39B, ClassId.L39C])
def test_tridiagonality_random_parameters(cid):
    rng = np.random.default_rng(_seed(cid))
    for _ in range(5):
        params, free = draw_class_instance(rng, cid)
        sol = resolve_class(params, cid, free)
        rep = tridiagonality_sweep(sol, range(0, 6))
        assert rep.max_rel_deviation <= 1e-8, (cid, params, free, rep.max_rel_deviation)


@pytest.mark.parametrize("cid", [ClassId.K0, ClassId.K1, ClassId.C8B,
                                 ClassId.L39A, ClassId.L39C])
def test_coefficient_routes_random_parameters(cid):
    """prod t/s vs the printed closed form, random admissible draws."""
    rng = np.random.default_rng(1 + _seed(cid))
    for _ in range(5):
        params, free = draw_class_instance(rng, cid)
        sol = resolve_class(params, cid, free)
        prod = 1.0
        for n in range(1, 7):
            _, s, t = recursion_coeffs(sol, n - 1)
            prod *= t / s
            closed = closed_form_cn(sol, n)
            assert abs(prod - closed) <= 1e-10 * max(1.0, abs(closed)), (cid, n)


@pytest.mark.parametrize("cid", [ClassId.K0, ClassId.K1, ClassId.C8B,
                                 ClassId.L39A, ClassId.L39B, ClassId.L39C])
def test_binding_random_parameters(cid):
    """family-evaluated f_n vs the raw three-term recursion for Q_n."""
    rng = np.random.default_rng(2 + _seed(cid))
    for _ in range(5):
        params, free = draw_class_instance(rng, cid)
        sol = resolve_class(params, cid, free)
        f = expansion_coefficients(sol, 6)
        q = [1.0]
        for n in range(6):
            u, s, t = recursion_coeffs(sol, n)
            t_prev = recursion_coeffs(sol, n - 1)[2] if n else 0.0
            q.append(-(u * q[-1] + t_prev * (q[-2] if n else 0.0)) / s)
        scale = np.max(np.abs(q)) + 1.0
        assert np.max(np.abs(f - np.array(q))) <= 1e-8 * scale, (cid, params, free)
