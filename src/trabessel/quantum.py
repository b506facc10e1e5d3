"""Schrodinger-equation applications of the series solver.

Coordinate maps x(r) with dx/dr = eta lam x^a (b = 0) turn the radial
Schrodinger equation into the six-parameter form; four exponent choices
a in {1/2, 1, 3/2, 2} produce the supported potential rows.  Implemented
systems: the exponentially confining well (spectrum from the Jacobi matrix
of the deformed-Bessel coefficients) and the singular isotropic oscillator
(closed-form spectrum).  An independent finite-difference Schrodinger
solver serves as the oracle for both.
"""
from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING

from ._record import Record
from .errors import (BoundaryError, ConstraintViolation, ConvergenceFailure,
                     SeriesOverflow, UnsupportedRow, _check_integer)
from .ode import OdeParams

if TYPE_CHECKING:  # for the annotations: the functions that build arrays import numpy
    import numpy as np

__all__ = ["SystemSpec", "SpectrumResult", "table1_map", "confining_well",
           "singular_oscillator", "spectrum_eq64", "eq64_energies", "fd_oracle",
           "morse_levels", "well_potential", "well_wavefunction_coeffs",
           "oscillator_potential"]

_WELL_ROWS = 100_000
# above this many rows the well tries a leading block of its Jacobi matrix
# before all of it (see `_well_levels`).  Measured for 5 levels
# (best of 300 calls, 2 vCPU): at 59 rows (A- = 59.5) dstevd and a block of
# 13 rows both take 0.15-0.16 ms; from 60 rows a block of 7 rows is enough and
# takes 0.10 ms, against 0.16 ms at 60 rows and 9 ms at 1,000 for dstevd
_WELL_BLOCK_ROWS = 59
# a leading block holds the levels only while the couplings stay below the diagonal's
# gaps; with g = e_0 / (d_1 - d_0), scans of A- = 60.5..3000.5 and A+ = -1e4..-1e9
# found blocks of 30-80 g rows (g >= 0.5), so the doubling ends near 60-160 g rows,
# and a matrix of at most _WELL_BLOCK_REACH g rows is solved whole at once
_WELL_BLOCK_REACH = 128


class SystemSpec(Record):
    a_choice: float
    lam: float
    eta: float
    ell: int
    ode: OdeParams
    Lambda_shift: float
    x_of_r: str
    energy: float
    energy_formula: str
    potential: object          # callable V(r), without the centrifugal term
    potential_formula: str


class SpectrumResult(Record):
    energies: np.ndarray
    method: str                # closed_form_eq64 | jacobi_matrix | fd_oracle | morse_closed_form
    metadata: dict = {}

    def __post_init__(self):
        e = [float(v) for v in self.energies]
        if not all(map(math.isfinite, e)):
            raise ConvergenceFailure("spectrum contains non-finite energies")
        slack = -1e-12 * max(1.0, max(map(abs, e)))
        if any(b - a < slack for a, b in zip(e, e[1:])):
            raise ConvergenceFailure("spectrum is not ascending")


def table1_map(a_choice: float, params: OdeParams, lam: float, ell: int = 0) -> SystemSpec:
    """Populate the coordinate-map row for one of a = 1/2, 1, 3/2, 2 (b = 0)."""
    _check_ell(ell)
    if params.b != 0.0:
        raise ConstraintViolation("coordinate maps need b = 0", got=params.b)
    _check_lam(lam)
    Ap, Am, A1, A0 = params.A_plus, params.A_minus, params.A_one, params.A_zero
    l2 = lam * lam
    if a_choice == 0.5:
        return SystemSpec(
            a_choice, lam, 2.0, ell, params, 4 * A0 - ell * (ell + 1),
            "x = (lam r)^2, r >= 0", 2 * l2 * Ap, "E = 2 lam^2 A+",
            lambda r: -2 * Am / l2 / r ** 4 - 2 * A1 / l2 ** 2 / r ** 6,
            "V(r) = -(2 A-/lam^2)/r^4 - (2 A1/lam^4)/r^6")
    if a_choice == 1.0:
        def v(r):
            import numpy as np

            return -(l2 / 2) * (Ap * np.exp(lam * r) + Am * np.exp(-lam * r)
                                + A1 * np.exp(-2 * lam * r))
        return SystemSpec(
            a_choice, lam, 1.0, ell, params, 0.0,
            "x = exp(lam r), r in R", -l2 * A0 / 2, "E = -lam^2 A0 / 2", v,
            "V(r) = -(lam^2/2)(A+ e^{lam r} + A- e^{-lam r} + A1 e^{-2 lam r})")
    if a_choice == 1.5:
        return SystemSpec(
            a_choice, lam, -2.0, ell, params, 4 * A0 - ell * (ell + 1),
            "x = (lam r)^-2, r >= 0", 2 * l2 * Am, "E = 2 lam^2 A-",
            lambda r: -2 * Ap / l2 / r ** 4 - 2 * l2 ** 2 * A1 * r ** 2,
            "V(r) = -(2 A+/lam^2)/r^4 - (2 lam^4 A1) r^2")
    if a_choice == 2.0:
        return SystemSpec(
            a_choice, lam, -1.0, ell, params, A0 - ell * (ell + 1),
            "x = (lam r)^-1, r >= 0", l2 * A1 / 2, "E = lam^2 A1 / 2",
            lambda r: -lam * Am / 2 / r - Ap / (2 * lam) / r ** 3,
            "V(r) = -(lam A-/2)/r - (A+/(2 lam))/r^3")
    raise UnsupportedRow(f"a = {a_choice} is not one of 1/2, 1, 3/2, 2")


def _check_levels(n_levels: int):
    _check_integer(n_levels, "n_levels")
    if n_levels < 1:
        raise ConstraintViolation("n_levels >= 1", got=n_levels)


def _check_ell(ell: int):
    if ell < 0:
        raise ConstraintViolation("angular momentum ell >= 0", got=ell)


def _check_lam(lam: float):
    if not lam > 0:  # NaN too
        raise ConstraintViolation("lam must be positive", got=lam)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def fd_oracle(potential, domain, grid_size: int = 4000, ell: int = 0,
              n_levels: int = 5, include_centrifugal: bool = True) -> SpectrumResult:
    """Lowest eigenvalues of -psi''/2 + V_eff psi = E psi on a finite domain.

    Symmetric second-order differences with Dirichlet boundaries, Richardson-
    extrapolated over a grid doubling; metadata records per-level deltas.
    The centrifugal term ell(ell+1)/2r^2 is added when requested and the
    domain excludes r <= 0.

    The two grids are built on the calling thread, coarse first, and solved
    concurrently, and there is no option to solve them one after the other:
    one worker thread runs `_lapack.lowest_eigenpairs` on the coarse grid
    while the calling thread runs it on the fine one, and the worker is
    joined before the call returns or raises.  When both solves fail, the
    coarse grid's failure is raised.  Each grid gets the LAPACK calls it
    would get alone, so the bits are those of a serial solve.
    """
    import numpy as np

    from . import _lapack  # only the commands that solve an eigenproblem load it

    r_min, r_max = domain
    _check_integer(grid_size, "grid_size")
    _check_levels(n_levels)
    _check_ell(ell)
    if grid_size < 100:
        raise ConstraintViolation("fd oracle needs grid_size >= 100", got=grid_size)
    if not r_min < r_max:
        raise ConstraintViolation("domain must satisfy r_min < r_max")
    if include_centrifugal and ell and r_min <= 0:
        raise ConstraintViolation("centrifugal term needs r_min > 0")

    def veff(r):
        with np.errstate(all="ignore"):
            v = np.asarray(potential(r), dtype=float)
            if include_centrifugal and ell:
                v = v + ell * (ell + 1) / (2.0 * r ** 2)
        if not np.isfinite(v).all():
            raise SeriesOverflow("potential overflows double precision on the FD grid")
        return v

    def grid(npts):
        r = np.linspace(r_min, r_max, npts + 2)[1:-1]
        h = r[1] - r[0]
        with np.errstate(divide="ignore", over="ignore"):
            inv_h2 = 1.0 / h ** 2
        if not math.isfinite(inv_h2):
            raise ConstraintViolation("fd oracle needs a domain width whose grid "
                                      "spacing h has a finite 1/h^2", got=r_max - r_min)
        diag = inv_h2 + veff(r)
        off = -0.5 / h ** 2 * np.ones(npts - 1)
        return diag, off

    grids = grid(grid_size), grid(2 * grid_size)   # both built here, coarse first
    # per grid, coarse then fine: lowest_eigenpairs' result or its exception;
    # only the fine grid's eigenvectors are needed, for the edge check
    outcomes = [None, None]

    def solve(i):
        try:
            outcomes[i] = _lapack.lowest_eigenpairs(*grids[i], n_levels, vectors=i == 1)
        except BaseException as exc:
            outcomes[i] = exc

    worker = threading.Thread(target=solve, args=(0,))
    worker.start()
    try:
        solve(1)
    finally:
        worker.join()
    for outcome in outcomes:   # the coarse grid's failure first
        if isinstance(outcome, BaseException):
            raise outcome
    (coarse, _), (fine, vecs) = outcomes
    coarse, fine, vecs = np.array(coarse), np.array(fine), np.array(vecs).T
    if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
        raise ConvergenceFailure("finite-difference eigensolver returned non-finite values")
    extrap = (4.0 * fine - coarse) / 3.0
    deltas = np.abs(fine - coarse) / 3.0
    # Dirichlet truncation sanity: eigenfunctions must vanish at truncated
    # edges.  An inner edge hugging r = 0 is the regular origin (u ~ r^{l+1}
    # there is exact, not leakage) and is exempt.
    rows = [-1]
    if not 0 <= r_min < 1e-3 * (r_max - r_min):
        rows.append(0)
    edge = np.max(np.abs(vecs[rows, :]), axis=0) / np.max(np.abs(vecs), axis=0)
    if np.any(edge > 1e-6):
        raise BoundaryError(
            f"eigenfunction edge magnitude {float(np.max(edge)):.2e} > 1e-6; "
            "enlarge the domain")
    return SpectrumResult(extrap, "fd_oracle",
                          {"domain": (r_min, r_max), "grid_size": grid_size,
                           "ell": ell,
                           "richardson_delta": deltas.tolist(),
                           "edge_magnitude": float(np.max(edge))})


# ---------------------------------------------------------------------------
# exponentially confining well (a = 1 row)
# ---------------------------------------------------------------------------

def well_potential(A_minus: float, A_plus: float, lam: float):
    """V(r) = (lam^2/2)(e^{-2 lam r}/4 - A- e^{-lam r} - A+ e^{lam r})."""
    _check_lam(lam)

    def v(r):
        import numpy as np

        return (lam ** 2 / 2) * (0.25 * np.exp(-2 * lam * r)
                                 - A_minus * np.exp(-lam * r)
                                 - A_plus * np.exp(lam * r))
    return v


def _morse_list(A_minus: float, lam: float, count: int) -> list:
    """`morse_levels` as a list of Python floats, which needs no numpy."""
    from ._basisspec import _bessel_top  # not at the top: the FD paths never load it

    _check_integer(count, "count")
    count = min(count, math.floor(_bessel_top(-A_minus)) + 1)
    try:
        levels = [-(lam ** 2 / 2) * (A_minus - n - 0.5) ** 2 for n in range(count)]
    except OverflowError:   # the square, from about A- = 1.3e154, or lam ** 2
        levels = [math.inf]
    if not all(map(math.isfinite, levels)):   # or the product, which gives inf
        raise SeriesOverflow(f"the Morse levels overflow double precision "
                             f"(A-={A_minus}, lam={lam})")
    return levels


def morse_levels(A_minus: float, lam: float, count: int) -> np.ndarray:
    """Closed-form levels E_n = -(lam^2/2)(A- - n - 1/2)^2 of the A+ = 0 well,
    at most `count` of them: n = 0..floor(A- - 1/2 - 1e-9), the degrees of K0's
    basis at mu = -A-, as for A+ < 0.

    Not printed in the source material; validated against fd_oracle before
    use (see the acceptance suite).
    """
    import numpy as np

    return np.array(_morse_list(A_minus, lam, count), dtype=float)


def well_domain(A_minus: float, A_plus: float, lam: float, e_max: float):
    """Dirichlet domain bracketing the well: V(edge) >= e_max + 20, plus one
    extra 1/lam of the exponential wall so the edge amplitude is negligible."""
    v = well_potential(A_minus, A_plus, lam)
    target = e_max + 20.0
    # bracket outward from the well bottom, not from the origin
    r0 = -math.log(2 * A_minus) / lam if A_minus > 0 else 0.0
    lo = r0 - 0.5 / lam
    while v(lo) < target and lo > r0 - 80 / lam:
        lo -= 0.5 / lam
    lo -= 1.0 / lam
    if A_plus < 0:
        hi = r0 + 0.5 / lam
        while v(hi) < target and hi < r0 + 80 / lam:
            hi += 0.5 / lam
        hi += 1.0 / lam
    else:
        # Morse limit: right side tends to zero; extend until the e^{-lam r}
        # tail is negligible and add decay padding
        hi = max(r0, 0.0) + (math.log(max(4 * A_minus, 10.0)) + 8.0) / lam
    return lo, hi


def _well_spectrum(A_minus: float, A_plus: float, lam: float, N: int | None,
                   n_levels: int):
    """`confining_well`'s spectrum as (energies, method, metadata), with the
    energies a list of Python floats: no numpy is needed."""
    _check_levels(n_levels)
    if A_plus > 0:
        raise ConstraintViolation("A+ <= 0 (otherwise the particle escapes)", got=A_plus)
    _check_lam(lam)
    # K0 instance with A0 left spectral: the Jacobi matrix lives in
    # z = 4 A0 / A+ and its entries do not involve A0; it also refuses a
    # non-finite A- on the Morse branch
    ode = OdeParams(a=1.0, b=0.0, A_plus=A_plus, A_minus=A_minus,
                    A_one=-0.25, A_zero=0.0)
    if A_plus == 0.0:
        energies = _morse_list(A_minus, lam, n_levels)
        if not energies:
            raise ConstraintViolation("Morse limit needs A- > 1/2", got=A_minus)
        return energies, "morse_closed_form", {"A_minus": A_minus, "lam": lam}
    # imported here, not at the top: the Morse, oscillator and FD paths never load it
    from .solver import ClassId, resolve_class

    sol = resolve_class(ode, ClassId.K0)
    top = sol.n_max if N is None else N
    sol.basis.check_degree(top, "N")
    if top + 1 > _WELL_ROWS:
        raise ConstraintViolation(f"the well's Jacobi matrix has at most {_WELL_ROWS} rows",
                                  got=float(top + 1))
    z, ritz, rows = _well_levels(sol, top, n_levels)
    try:
        scale = -lam ** 2 * A_plus
    except OverflowError:   # lam ** 2
        scale = math.inf
    # ascending too: -lam^2 A+ > 0, and rounding keeps the order
    energies = [scale * zk / 8.0 for zk in z]
    if not all(map(math.isfinite, energies)):   # or the product, which gives inf
        raise SeriesOverflow(f"the well's energy map E = -lam^2 A+ z / 8 overflows "
                             f"double precision (lam={lam}, A+={A_plus})")
    bounds = {} if ritz is None else {"ritz_bounds": ritz}
    return (energies, "jacobi_matrix",
            {"matrix_size": rows, "mu": sol.basis.mu, "gamma": 4.0 / A_plus,
             "z_eigenvalues": z, "energy_map": "E = -lam^2 A+ z / 8", **bounds})


def _well_levels(sol, top: int, n_levels: int):
    """The lowest n_levels eigenvalues of sol's (top+1)-row Jacobi matrix, as
    (levels, Ritz bounds or None, rows solved).

    A matrix of more than _WELL_BLOCK_ROWS rows is first tried on its leading
    (M+1)-block, M from n_levels + 1 doubling while two rows below the block
    remain, until both hold:
    - each level's Ritz bound |e_M y_M| is at most one ulp of it: y, the unit
      eigenvector padded with zeros, leaves the residual e_M y_M in row M+1 of
      the full matrix (e_M the first dropped coupling), so that matrix has an
      eigenvalue within one ulp of each Ritz value (Parlett, The Symmetric
      Eigenvalue Problem, 1980), and the levels carry only dstebz's own
      rounding (at most 2.3 ulp from a 40-digit bisection at six wells from
      A- = 100.5 to 1000.5, where the full dstevd was off by up to 77 ulp);
    - the first dropped row's diagonal, less its two couplings, lies above the
      top level, so no row below the block brings a lower level (the
      diagonal rises with n, and its couplings stay far below its gaps).

    The block gives up at once, before any eigensolve, when _WELL_BLOCK_REACH
    e_0 / (d_1 - d_0) reaches the matrix's top + 1 rows: the doubling would end
    on most of the matrix, or fail, as at A+ = -1e6 and A- = 60.5 or 100.5.
    A smaller matrix, a give-up and a doubling that reaches the last rows end
    in dstevd on all top + 1 rows, with no Ritz bounds (None).
    """
    from . import _lapack
    from .solver import _check_last_diagonal, _jacobi_lists

    _check_last_diagonal(sol, top)   # an integer A- at top = n_max, before any eigensolve
    M = n_levels + 1
    while top + 1 > _WELL_BLOCK_ROWS and M + 2 <= top:
        d, e = _jacobi_lists(sol, M + 2)   # rows 0..M+2: the block and two more
        if _WELL_BLOCK_REACH * e[0] >= (top + 1) * (d[1] - d[0]):
            break   # the same rows each round, so this gives up at the first
        z, vectors = _lapack.lowest_eigenpairs(d[:M + 1], e[:M], n_levels, vectors=True)
        ritz = [abs(e[M] * y[M]) for y in vectors]   # dstein's vectors have unit norm
        if (all(b <= math.ulp(zk) for b, zk in zip(ritz, z))
                and d[M + 1] - e[M] - e[M + 1] > z[-1]):
            return z, ritz, M + 1
        M *= 2
    z = _lapack.all_eigenvalues(*_jacobi_lists(sol, top))[:n_levels]   # ascending
    return z, None, top + 1


def confining_well(A_minus: float, A_plus: float, lam: float, N: int | None = None,
                   n_levels: int = 5):
    """Potential and spectrum of the exponentially confining well.

    A+ < 0: eigenvalues z_k of the (N+1)x(N+1) Jacobi matrix of the
    deformed-Bessel coefficient recursion, mapped through E = -lam^2 A+ z / 8.
    A+ = 0: Morse limit, closed-form levels n < A- - 1/2, so A- > 1/2.  N is a degree
    of K0's basis (N <= n_max, so A- > N + 1/2), with at most _WELL_ROWS = 100,000
    rows, and A- must be finite on both branches.

    One rule solves the matrix, given N or not (see `_well_levels`): past
    _WELL_BLOCK_ROWS = 59 rows, the Ritz values of its smallest leading block whose
    Ritz bounds are at most one ulp (for 5 levels, 7 rows and about 0.1 ms at any A-
    up to the cap), with the block's `matrix_size` and the z levels' bounds as
    `ritz_bounds`; otherwise, or where the block gives up (A+ = -1e6 at A- = 60.5 or
    100.5), dstevd on all N + 1 rows.  N = n_max is refused at an integer A-, for the
    zero in a_{n_max}'s denominator.

    The spectrum has the lowest min(n_levels, N + 1) levels, N = n_max by
    default (Morse: min(n_levels, n_max + 1)), so it can be shorter than
    n_levels: at A- = 20.5 it has at most 20.
    """
    import numpy as np

    energies, method, metadata = _well_spectrum(A_minus, A_plus, lam, N, n_levels)
    return (well_potential(A_minus, A_plus, lam),
            SpectrumResult(np.array(energies, dtype=float), method, metadata))


def well_wavefunction_coeffs(A_minus: float, A_plus: float, lam: float,
                             energy: float, N: int | None = None) -> np.ndarray:
    """Expansion coefficients f_n of the well eigenstate at a given energy.

    The state at energy E corresponds to A0 = -2E/lam^2; its coefficients are
    the deformed-Bessel values C_n B_n(z) with z = 4 A0 / A+, by the forward
    recursion from f_0 = 1.

    Caveat: at a float eigenvalue from confining_well, a rounding error away
    from the exact one, the recursion's dominant solution swamps these
    coefficients (at A- = 20.5: max|f| about 5e58, 15 sign changes at every
    level), so they do not give the bound state; the same recursion at the
    eigenvalue in 150 digits does.
    """
    from .solver import ClassId, expansion_coefficients, resolve_class

    if A_plus >= 0:
        raise ConstraintViolation("wavefunction coefficients need A+ < 0", got=A_plus)
    ode = OdeParams(a=1.0, b=0.0, A_plus=A_plus, A_minus=A_minus,
                    A_one=-0.25, A_zero=-2.0 * energy / lam ** 2)
    sol = resolve_class(ode, ClassId.K0)
    if N is None:
        N = sol.n_max
    return expansion_coefficients(sol, N)


# ---------------------------------------------------------------------------
# singular isotropic oscillator (a = 3/2 row)
# ---------------------------------------------------------------------------

def oscillator_potential(A_one: float, Lambda: float, ell: int, lam: float):
    """V_eff(r) = [ell(ell+1) + Lambda]/2r^2 - 2 lam^4 A1 r^2."""
    _check_ell(ell)
    _check_lam(lam)
    coef = (ell * (ell + 1) + Lambda) / 2.0

    def v(r):
        import numpy as np

        r = np.asarray(r, dtype=float)
        return coef / r ** 2 - 2 * lam ** 4 * A_one * r ** 2
    return v


def spectrum_eq64(k: int, lam: float, A_one: float, Lambda: float, ell: int) -> float:
    """E_k = 4 lam^2 sqrt(-A1) [k + 1/2 + sqrt(Lambda + (ell+1/2)^2)/2]."""
    _check_integer(k, "k")
    _check_ell(ell)
    _check_lam(lam)
    if not A_one < 0:
        raise ConstraintViolation("A1 < 0", got=A_one)
    root_arg = Lambda + (ell + 0.5) ** 2
    if root_arg < 0:
        raise ConstraintViolation(
            "Lambda >= -(ell+1/2)^2 (fall-to-the-center guard)", root_arg)
    if k < 0:
        raise ConstraintViolation("k >= 0", got=k)
    try:
        level = 4 * lam ** 2 * math.sqrt(-A_one) * (k + 0.5 + 0.5 * math.sqrt(root_arg))
    except OverflowError:   # lam ** 2
        level = math.inf
    if not math.isfinite(level):   # or the product, which gives inf
        raise SeriesOverflow(f"the eq. 64 levels overflow double precision "
                             f"(lam={lam}, A1={A_one})")
    return level


def _eq64_list(lam: float, A_one: float, Lambda: float, ell: int, n_levels: int) -> list:
    """`eq64_energies` as a list of Python floats, which needs no numpy."""
    _check_levels(n_levels)
    return [spectrum_eq64(k, lam, A_one, Lambda, ell) for k in range(n_levels)]


def eq64_energies(lam: float, A_one: float, Lambda: float, ell: int,
                  n_levels: int) -> np.ndarray:
    """The lowest n_levels closed-form energies E_0..E_{n_levels-1} of eq. 64."""
    import numpy as np

    return np.array(_eq64_list(lam, A_one, Lambda, ell, n_levels), dtype=float)


def singular_oscillator(A_one: float, A_minus: float, A_zero: float, ell: int,
                        lam: float, tau: float, n_levels: int = 5):
    """Effective potential, closed-form spectrum and wavefunction parameters.

    Requires A1 <= 0, 16 A0 >= -1 and 4 A1 + tau^2 > 0 (b = 0, a = 3/2 row).
    """
    _check_ell(ell)
    if A_one > 0:
        raise ConstraintViolation("A1 <= 0 (otherwise the particle escapes)", got=A_one)
    if 16 * A_zero < -1:
        raise ConstraintViolation("16 A0 >= -1 (fall-to-the-center guard)", got=16 * A_zero)
    if 4 * A_one + tau ** 2 <= 0:
        raise ConstraintViolation("4 A1 + tau^2 > 0", got=4 * A_one + tau ** 2)
    nu_sq = A_zero + 1.0 / 16.0
    Lambda = 4 * nu_sq - (ell + 0.5) ** 2
    # at a = 3/2 the two printed decompositions coincide: 4 A0 - ell(ell+1)
    assert abs(Lambda - (4 * A_zero - ell * (ell + 1))) <= 1e-12 * max(1.0, abs(Lambda))
    v = oscillator_potential(A_one, Lambda, ell, lam)
    energies = eq64_energies(lam, A_one, Lambda, ell, n_levels)
    root = math.sqrt(4 * A_one + tau ** 2)
    wf = {
        "cos_theta": (4 * A_one + tau ** 2 - 1) / (4 * A_one + tau ** 2 + 1),
        "eta": tau / root,
        "z": A_minus / root,
        "nu": math.sqrt(nu_sq),
        "basis": "phi_n(r) = (lam r)^{2 nu + 1/2} e^{-(tau+1) lam^2 r^2 / 2} "
                 "L_n^{2 nu}(lam^2 r^2)",
    }
    result = SpectrumResult(energies, "closed_form_eq64",
                            {"Lambda": Lambda, "ell": ell, "A_one": A_one,
                             "lam": lam, "discrete_regime": abs(wf["eta"]) > 1})
    return v, result, wf
