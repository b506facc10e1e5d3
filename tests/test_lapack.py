"""The eigensolves on scipy's LAPACK, called through ctypes, against
scipy.linalg itself: the same bits as `eigh_tridiagonal` and as scipy's
`dstebz` wrapper, with or without numpy loaded; each routine's symbol; and
the FD oracle's worker thread, joined on every path.

scipy.linalg is imported inside the tests only, so that importing this
module does not load it.
"""
import ctypes
import threading
import time

import numpy as np
import pytest

from trabessel import (ClassId, OdeParams, _lapack, confining_well, fd_oracle,
                       jacobi_matrix, resolve_class, tridiag_eigenvalues)
from trabessel.quantum import oscillator_potential, well_domain, well_potential


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _random_matrix(n):
    rng = np.random.default_rng(1000 + n)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _well_matrix(a_minus):
    """The Jacobi matrix of the benchmark's well at A-, A+ = -1: its diagonal
    starts near -4 A-^2 and its couplings go down to 1e-5."""
    sol = resolve_class(OdeParams(1.0, 0.0, -1.0, a_minus, -0.25, 0.0), ClassId.K0)
    return jacobi_matrix(sol, sol.n_max)


@pytest.mark.parametrize("matrix", [
    *(pytest.param(lambda n=n: _random_matrix(n), id=str(n)) for n in (1, 2, 3, 50, 1001)),
    *(pytest.param(lambda a=a: _well_matrix(a), id=f"well-Am{a}")
      for a in (20.5, 100.5, 400.5, 1000.5)),
])
def test_tridiag_eigenvalues_match_scipy_bit_for_bit(matrix):
    from scipy.linalg import eigh_tridiagonal
    d, e = matrix()
    want = np.sort(eigh_tridiagonal(d, e, eigvals_only=True))
    got = tridiag_eigenvalues(d, e)
    assert got.dtype == float and _hex(got) == _hex(want)
    assert _hex(_lapack.all_eigenvalues(d.tolist(), e.tolist())) == _hex(want)


def _lowest(d, e, k, vectors=False):
    """The k lowest eigenvalues and, with `vectors`, their eigenvectors as the
    columns of an (n, k) array, by `lowest_eigenpairs`, as `fd_oracle` takes
    them."""
    w, v = _lapack.lowest_eigenpairs(d, e, k, vectors)
    return w, None if v is None else np.array(v).T


@pytest.mark.parametrize("n, k", [(2, 1), (3, 3), (50, 5), (1001, 7)])
def test_lowest_eigenpairs_match_scipy_bit_for_bit(n, k):
    from scipy.linalg import eigh_tridiagonal
    rng = np.random.default_rng(2000 + n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    w_only = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1))
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    assert _hex(_lowest(d, e, k)[0]) == _hex(w_only)
    got_w, got_v = _lowest(d, e, k, vectors=True)
    assert _hex(got_w) == _hex(w) and _hex(got_v) == _hex(v)


def test_non_finite_entries_are_a_domain_error():
    from trabessel.errors import DomainError
    for d, e in (([1.0, np.nan], [0.5]), ([1.0, 2.0], [np.inf])):
        for solve in (_lapack.all_eigenvalues, lambda d, e: _lapack.lowest_eigenpairs(d, e, 1)):
            with pytest.raises(DomainError, match="^matrix entries must be finite$"):
                solve(d, e)


def test_all_eigenvalues_of_the_0x0_and_1x1_matrices():
    assert _lapack.all_eigenvalues([], []) == []
    assert tridiag_eigenvalues([], []).shape == (0,)
    assert _hex(_lapack.all_eigenvalues([-0.1], [])) == _hex([-0.1])
    with pytest.raises(ValueError, match=r"^d \(0\) must have one more element than e \(1\)$"):
        _lapack.all_eigenvalues([], [1.0])


@pytest.mark.parametrize("d, e", [([[1.0, 2.0]], [0.5]), (np.ones((1, 1)), []),
                                  (1.0, []), (np.float64(1.0), []), (["1"], [])],
                         ids=["2-D", "2-D-ndarray", "scalar", "numpy-scalar", "strings"])
def test_all_eigenvalues_need_a_flat_sequence_of_numbers(d, e):
    with pytest.raises(ValueError, match="^expected a 1-D array$"):
        _lapack.all_eigenvalues(d, e)


def test_any_flat_buffer_gives_the_bits_of_its_values():
    """A strided, a single-precision or an integer buffer is read value by
    value, a C-contiguous buffer of doubles by its bytes: the same bits."""
    d, e = _random_matrix(101)
    d32, e32 = d.astype(np.float32), e.astype(np.float32)
    for got, want in (((d[::2], e[::2][:50]), (d[::2].tolist(), e[::2][:50].tolist())),
                      ((d32, e32), (d32.tolist(), e32.tolist())),
                      ((np.arange(5), np.ones(4, dtype=np.int32)), ([0, 1, 2, 3, 4], [1] * 4))):
        assert _hex(_lapack.all_eigenvalues(*got)) == _hex(_lapack.all_eigenvalues(*want))
        assert _hex(_lowest(*got, 3, True)[1]) == _hex(_lowest(*want, 3, True)[1])


@pytest.mark.parametrize("k", [0, 4])
def test_lowest_eigenvalues_need_1_to_n_of_them(k):
    with pytest.raises(ValueError, match="lowest"):
        _lapack.lowest_eigenpairs(np.zeros(3), np.ones(2), k)


def _fd_reference(potential, domain, grid_size, n_levels=5):
    """fd_oracle's energies, Richardson deltas and edge magnitude, from
    eigh_tridiagonal."""
    from scipy.linalg import eigh_tridiagonal
    r_min, r_max = domain

    def solve(npts, vectors):
        r = np.linspace(r_min, r_max, npts + 2)[1:-1]
        h = r[1] - r[0]
        diag = 1.0 / h ** 2 + np.asarray(potential(r), dtype=float)
        off = -0.5 / h ** 2 * np.ones(npts - 1)
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1),
                                eigvals_only=not vectors)

    coarse = solve(grid_size, False)
    fine, vecs = solve(2 * grid_size, True)
    rows = [-1] if 0 <= r_min < 1e-3 * (r_max - r_min) else [-1, 0]
    edge = np.max(np.abs(vecs[rows, :]), axis=0) / np.max(np.abs(vecs), axis=0)
    return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse) / 3.0, float(np.max(edge))


def _assert_fd_matches_reference(potential, domain, grid_size):
    got = fd_oracle(potential, domain, grid_size)
    energies, deltas, edge = _fd_reference(potential, domain, grid_size)
    assert _hex(got.energies) == _hex(energies)
    assert _hex(got.metadata["richardson_delta"]) == _hex(deltas)
    assert _hex([got.metadata["edge_magnitude"]]) == _hex([edge])


@pytest.mark.parametrize("a_minus", [20.5, 100.5, 400.5, 1000.5])
def test_fd_well_matches_scipy_bit_for_bit(a_minus):
    """The benchmark's wells: A+ = -1, lam = 1, grid 4000."""
    top = float(confining_well(a_minus, -1.0, 1.0)[1].energies[-1])
    _assert_fd_matches_reference(well_potential(a_minus, -1.0, 1.0),
                                 well_domain(a_minus, -1.0, 1.0, top), 4000)


def test_fd_oscillator_matches_scipy_bit_for_bit():
    """The benchmark's oscillator: A1 = -1/4, Lambda = 15/4, ell = 0."""
    _assert_fd_matches_reference(oscillator_potential(-0.25, 3.75, 0, 1.0), (1e-6, 14.0), 4000)


def _lapack_calls(monkeypatch, call):
    """{routine: (its arguments, `_lapack._call`'s return: the arguments by
    reference and INFO after the call)} for each LAPACK routine that call()
    reaches."""
    calls = {}

    def spy(name, *args, real=_lapack._call):
        calls[name] = args, real(name, *args)
        return calls[name][1]
    monkeypatch.setattr(_lapack, "_call", spy)
    call()
    return calls


def _random_tridiagonal(n, seed, zero_at=()):
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    e[list(zero_at)] = 0.0   # a zero off-diagonal splits the matrix into blocks
    return d, e


@pytest.mark.parametrize("vectors", [False, True], ids=["order-E", "order-B"])
@pytest.mark.parametrize("n, k, zero_at", [(2, 1, ()), (50, 5, ()), (1001, 7, ()),
                                           (8000, 5, ()), (300, 9, (40, 41, 200))],
                         ids=["n2", "n50", "n1001", "n8000", "n300-split"])
def test_ctypes_dstebz_matches_scipys_wrapper_bit_for_bit(monkeypatch, n, k, zero_at, vectors):
    from scipy.linalg import lapack
    d, e = _random_tridiagonal(n, 3000 + n, zero_at)
    calls = _lapack_calls(monkeypatch, lambda: _lapack.lowest_eigenpairs(d, e, k, vectors))
    # dstebz's arguments: RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK
    # ISPLIT WORK IWORK, then INFO
    args, refs = calls["dstebz"]
    got_w, got_iblock, got_isplit = args[12:15]
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0,
                                               "B" if vectors else "E")
    assert (refs[10][0], refs[-1][0]) == (m, info) == (k, 0)
    assert _hex(got_w) == _hex(w)
    assert got_iblock.tolist() == iblock.tolist()
    assert got_isplit.tolist() == isplit.tolist()
    if zero_at:
        assert isplit[:len(zero_at) + 1].tolist() == [41, 42, 201, 300]


def test_eigenvalues_tied_across_blocks_keep_dstebz_block_order():
    """Three equal blocks split by zero couplings: each eigenvalue comes three
    times, once per block, and the sort by value is stable, so its vectors
    come block by block, as dstebz's ORDER "B" gives them.  (scipy sorts with
    np.argsort, which need not be stable.)"""
    d, e = [1.0, 2.0, 3.0] * 3, [0.5, 0.25, 0.0, 0.5, 0.25, 0.0, 0.5, 0.25]
    w, v = _lapack.lowest_eigenpairs(d, e, 9, vectors=True)
    assert w[0:3] == [w[0]] * 3 and w[3:6] == [w[3]] * 3 and w[6:9] == [w[6]] * 3
    assert [next(i for i, x in enumerate(column) if x != 0) // 3 for column in v] == [0, 1, 2] * 3


def _oscillator_fd(grid_size=2000):
    return fd_oracle(oscillator_potential(-0.25, 3.75, 0, 1.0), (1e-6, 14.0), grid_size)


def test_fd_oracle_in_two_threads_at_once_gives_the_serial_bits():
    want = [_oscillator_fd(2000), _oscillator_fd(3000)]
    got = [None, None]
    barrier = threading.Barrier(2)

    def call(i, grid_size):
        barrier.wait(timeout=60)
        got[i] = _oscillator_fd(grid_size)

    threads = [threading.Thread(target=call, args=(i, g)) for i, g in enumerate((2000, 3000))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for a, b in zip(got, want):
        assert _hex(a.energies) == _hex(b.energies)
        assert a.metadata == b.metadata


def _threads_after(call):
    """(threads alive before, threads alive after, the error's type name or
    None) around call()."""
    before = threading.active_count()
    try:
        call()
    except Exception as exc:
        return before, threading.active_count(), type(exc).__name__
    return before, threading.active_count(), None


def test_fd_oracle_joins_its_worker_on_return_and_on_error(monkeypatch):
    pot = lambda r: 0.5 * r ** 2
    before, after, error = _threads_after(lambda: fd_oracle(pot, (1e-6, 12.0), 1000))
    assert (after, error) == (before, None)
    # after both grids are solved: the eigenfunctions reach the edge
    before, after, error = _threads_after(lambda: fd_oracle(pot, (1e-6, 2.2), 1000))
    assert (after, error) == (before, "BoundaryError")

    # while the worker runs: the fine grid's solve raises at once, and the
    # coarse grid's takes 50 ms longer
    def lowest(d, e, k, vectors=False, real=_lapack.lowest_eigenpairs):
        if len(d) == 2000:
            raise RuntimeError("fine grid")
        time.sleep(0.05)
        return real(d, e, k, vectors)
    monkeypatch.setattr(_lapack, "lowest_eigenpairs", lowest)
    before, after, error = _threads_after(lambda: fd_oracle(pot, (1e-6, 12.0), 1000))
    assert (after, error) == (before, "RuntimeError")


def test_fd_oracle_reports_the_coarse_grids_failure_first(monkeypatch):
    """With info != 0 on both grids, the coarse grid's (info = its size) is
    raised, though the fine grid's dstebz fails 50 ms before it."""
    from trabessel.errors import ConvergenceFailure

    def routine(name, real=_lapack._routine):
        fn = real(name)

        def call(*args):
            # dstebz's first argument by reference is N, its last INFO
            n, *_, info = (ctypes.c_int.from_address(a.value) for a in args
                           if isinstance(a, ctypes.c_void_p))
            if n.value == 1000:
                time.sleep(0.05)
            fn(*args)
            info.value = n.value
        return call
    monkeypatch.setattr(_lapack, "_routine", routine)
    with pytest.raises(ConvergenceFailure, match=r"dstebz returned LAPACK info=1000$"):
        fd_oracle(lambda r: 0.5 * r ** 2, (1e-6, 12.0), 1000)


class _LibraryWithout:
    """scipy's LAPACK library without either symbol of one routine."""

    def __init__(self, routine):
        self._library = _lapack._library()
        self._name = self._library._name
        self._routine = routine

    def __getattr__(self, symbol):
        if symbol in (f"scipy_{self._routine}_", f"{self._routine}_"):
            raise AttributeError(symbol)
        return getattr(self._library, symbol)


def _call_each_routine(routine):
    """Calls that reach `routine`: dstevd for all eigenvalues, dstebz and
    dstein for the lowest eigenpairs."""
    if routine == "dstevd":
        _lapack.all_eigenvalues([0.0, 0.0, 0.0], [1.0, 1.0])
    else:
        _lapack.lowest_eigenpairs(np.zeros(3), np.ones(2), 1, vectors=True)


@pytest.mark.parametrize("routine", ["dstevd", "dstebz", "dstein"])
def test_a_lapack_without_a_routine_raises_an_import_error_naming_both_symbols(
        monkeypatch, routine):
    monkeypatch.setattr(_lapack, "_library", lambda stub=_LibraryWithout(routine): stub)
    monkeypatch.setattr(_lapack, "_routines", {})
    with pytest.raises(ImportError, match=f"^no LAPACK {routine} in .*_flapack.*: "
                                          f"tried scipy_{routine}_, {routine}_$"):
        _call_each_routine(routine)


_NO_NUMPY_CHILD = """
import json, sys
from trabessel import _lapack
d, e = json.loads(sys.argv[1])
w, v = _lapack.lowest_eigenpairs(d, e, 3, vectors=True)
print(json.dumps({"all": _lapack.all_eigenvalues(d, e), "lowest": w,
                  "vectors": [c.tolist() for c in v], "numpy": "numpy" in sys.modules}))
"""


def test_lapack_runs_without_numpy():
    """Both eigensolves, on Python lists, values and vectors, in a child
    process that never loads numpy, give scipy's bits."""
    import json
    import os
    import subprocess
    import sys

    from scipy.linalg import eigh_tridiagonal
    d, e = _random_matrix(50)
    src = os.path.dirname(os.path.dirname(_lapack.__file__))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_CHILD,
                           json.dumps([d.tolist(), e.tolist()])],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["numpy"] is False
    assert _hex(got["all"]) == _hex(np.sort(eigh_tridiagonal(d, e, eigvals_only=True)))
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 2))
    assert _hex(got["lowest"]) == _hex(w)
    assert _hex(np.array(got["vectors"]).T) == _hex(v)
