"""The package's two symmetric tridiagonal eigensolves, on scipy's LAPACK
through `ctypes`.

The routines are LAPACK's `dstevd`, `dstebz` and `dstein`, from the shared
object of scipy's compiled wrapper module `scipy.linalg._flapack`.
`importlib.machinery.PathFinder` finds that file without running any scipy
code, and `ctypes.CDLL` opens it without importing it: neither numpy nor the
module's own initialisation runs, and no scipy module is loaded.  dlsym on
that handle also searches the libraries `_flapack` links, where a routine is
`scipy_<name>_` (scipy's OpenBLAS wheels) or `<name>_` (a system LAPACK).
These are the routines scipy's wrappers call; a `ctypes.CDLL` function also
releases the GIL, where the wrappers hold it.

`all_eigenvalues` and `Bisection` make the LAPACK calls, with the same
arguments, that scipy.linalg's tridiagonal eigensolver makes by default for
all eigenvalues and for an index range, so they give the same bits.
`all_eigenvalues` is `dstevd` with JOBZ = "N" and the workspace sizes of
scipy's `compute_v=0` (LWORK = LIWORK = 1), on `array('d')` buffers, and takes
and returns Python floats, so the well's spectrum needs no numpy.  `Bisection`
is the Sturm-count bisection `dstebz` (Barth, Martin and Wilkinson, Numer.
Math. 9, 1967), with `dstein` for the eigenvectors, on numpy arrays; it is
split in steps so that `fd_oracle` can bisect its coarse and fine grids at
once, on two threads.
"""
import ctypes
import functools
import importlib.machinery
import math
import os
from array import array

from .errors import ConvergenceFailure, DomainError

_NAME = "scipy.linalg._flapack"

# name -> (its CHARACTER arguments, which come first, and its other arguments).
# Every argument goes by reference, INTEGER as int32, and the length of each
# CHARACTER argument follows them all as a hidden size_t (the gfortran ABI).
_SIGNATURES = {
    "dstevd": (1, 10),   # JOBZ; N D E Z LDZ WORK LWORK IWORK LIWORK INFO
    "dstebz": (2, 16),   # RANGE ORDER; N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK
                         #   ISPLIT WORK IWORK INFO
    "dstein": (0, 13),   # N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
}
_routines = {}   # name -> its ctypes function, resolved on first use


@functools.cache
def _library():
    """scipy's `_flapack` shared object, opened and not imported."""
    scipy = importlib.machinery.PathFinder.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        _NAME, [os.path.join(scipy.submodule_search_locations[0], "linalg")])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {_NAME!r}", name=_NAME)
    return ctypes.CDLL(spec.origin)


def _routine(name):
    """LAPACK's routine `name` as a ctypes function; ImportError naming both
    spellings of its symbol when the library has neither."""
    fn = _routines.get(name)
    if fn is None:
        library = _library()
        symbols = (f"scipy_{name}_", f"{name}_")
        symbol = next((s for s in symbols if hasattr(library, s)), None)
        if symbol is None:
            raise ImportError(f"no LAPACK {name} in {library._name}: "
                              f"tried {', '.join(symbols)}")
        chars, others = _SIGNATURES[name]
        fn = getattr(library, symbol)
        fn.argtypes = ([ctypes.c_char_p] * chars + [ctypes.c_void_p] * others
                       + [ctypes.c_size_t] * chars)
        fn.restype = None
        _routines[name] = fn
    return fn


def _check(d, e, finite):
    """scipy.linalg's input checks on d and e (0x0: e is empty too), with
    `finite(v)` telling whether every entry of v is finite."""
    if not (finite(d) and finite(e)):
        raise DomainError("matrix entries must be finite")
    if len(e) != max(len(d) - 1, 0):
        raise ValueError(f"d ({len(d)}) must have one more element than e ({len(e)})")


def _all_finite(values):
    return all(map(math.isfinite, values))


def _check_info(info, routine):
    if info != 0:   # None: the call did not return
        raise ConvergenceFailure(
            f"tridiagonal eigensolver failed: {routine} returned LAPACK info={info}")


def _address(buffer):
    return buffer.buffer_info()[0]


def all_eigenvalues(d, e):
    """Every eigenvalue of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, ascending, as a list of the Python floats dstevd
    returns."""
    try:
        d, e = array("d", d), array("d", e)   # copies: dstevd overwrites both
    except TypeError:   # not a flat sequence of numbers
        raise ValueError("expected a 1-D array") from None
    _check(d, e, _all_finite)
    n = len(d)
    if n > 1:
        ints = array("i", [n, 1, 0])   # N; 1 for LDZ, LWORK and LIWORK; INFO
        # one word each; Z is not referenced for JOBZ = "N", so work stands in for it
        work, iwork = array("d", [0.0]), array("i", [0])
        size, one, info = (_address(ints) + k * ints.itemsize for k in range(3))
        _routine("dstevd")(b"N", size, _address(d), _address(e), _address(work), one,
                           _address(work), one, _address(iwork), one, info, 1)
        _check_info(ints[2], "dstevd")
    return d.tolist()


class Bisection:
    """The k lowest eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and with `vectors` their eigenvectors, in
    three steps, so that the bisection can run on another thread.

    The constructor checks the input, resolves dstebz and makes every array
    and argument of the call; `run` makes the one dstebz call, which
    allocates no array and does not hold the GIL; `result` checks its info
    and returns the eigenvalues ascending and, with `vectors`, their
    eigenvectors by dstein as the columns of an (n, k) array (else None).
    The calls are dstebz(RANGE="I", IL=1, IU=k) with the arguments scipy's
    wrapper passes (VL = 0, VU = 1, ABSTOL = 0, ORDER "B" for vectors, else
    "E") and dstein(d, e, w[:m], iblock, isplit), so they give the wrappers'
    bits.
    """

    def __init__(self, d, e, k, vectors=False):
        import numpy as np

        # C order: LAPACK reads the buffers as they lie
        self.d = np.asarray(d, dtype=float, order="C")
        self.e = np.asarray(e, dtype=float, order="C")
        if self.d.ndim != 1 or self.e.ndim != 1:
            raise ValueError("expected a 1-D array")
        _check(self.d, self.e, lambda v: bool(np.isfinite(v).all()))
        n = self.d.size
        if not 1 <= k <= n:
            raise ValueError(f"cannot take the lowest {k} eigenvalues of a {n}x{n} matrix")
        self.vectors = vectors
        # zeroed, as the wrapper's are; the scratch need not be
        self.w = np.zeros(n)
        self.iblock = np.zeros(n, dtype=np.int32)
        self.isplit = np.zeros(n, dtype=np.int32)
        work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int32)
        self._m, nsplit, self._info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
        scalars = (ctypes.c_int(n), ctypes.c_double(0.0), ctypes.c_double(1.0),
                   ctypes.c_int(1), ctypes.c_int(k), ctypes.c_double(0.0))
        # alive while the call may run; `result` lets go of them (the scratch
        # is 7n words) and of the arguments, so no later call can use them
        self._keep = (scalars, nsplit, work, iwork)
        self._call = _routine("dstebz")   # a missing symbol raises here, not on the worker
        address = ctypes.addressof
        self._args = (b"I", b"B" if vectors else b"E", *map(address, scalars),
                      self.d.ctypes.data, self.e.ctypes.data, address(self._m),
                      address(nsplit), self.w.ctypes.data, self.iblock.ctypes.data,
                      self.isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data,
                      address(self._info), 1, 1)
        self.m = self.info = None

    def run(self):
        self._call(*self._args)
        self.m, self.info = self._m.value, self._info.value

    def result(self):
        import numpy as np

        self._keep = self._args = None
        _check_info(self.info, "dstebz")
        w = self.w[:self.m]
        if not self.vectors:
            return w, None
        n, m = self.d.size, self.m
        v = np.zeros((n, m), order="F")
        ints = np.array([n, m, 0], dtype=np.int32)   # N and LDZ, M; INFO
        work, iwork = np.empty(5 * n), np.empty(n, dtype=np.int32)
        ifail = np.empty(m, dtype=np.int32)
        size, count, info = (ints.ctypes.data + k * ints.itemsize for k in range(3))
        _routine("dstein")(size, self.d.ctypes.data, self.e.ctypes.data, count,
                           w.ctypes.data, self.iblock.ctypes.data, self.isplit.ctypes.data,
                           v.ctypes.data, size, work.ctypes.data, iwork.ctypes.data,
                           ifail.ctypes.data, info)
        _check_info(int(ints[2]), "dstein")
        order = np.argsort(w)   # dstebz's "B" order is by block
        return w[order], v[:, order]
