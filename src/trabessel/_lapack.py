"""The package's two symmetric tridiagonal eigensolves, on scipy's LAPACK.

The wrappers live in the compiled module `scipy.linalg._flapack` (the same
objects `scipy.linalg.lapack` documents: `scipy.linalg.lapack.dstebz is
scipy.linalg._flapack.dstebz`).  `flapack` loads that module from its file
and does not run `scipy/linalg/__init__.py`, whose array-API shim imports
numpy.f2py, numpy.testing and unittest and costs a cold process 200 ms or
more; the module alone loads in a few milliseconds.  It is registered under
its own name, so scipy.linalg, when imported later, takes it from there, and
one that scipy.linalg loaded earlier is reused: a process holds one LAPACK
module.

`all_eigenvalues` and `Bisection` make the LAPACK calls, with the same
arguments, that scipy.linalg's tridiagonal eigensolver makes by default for
all eigenvalues and for an index range, so they give the same bits.

One call goes through `ctypes` instead: `Bisection`'s `dstebz`, the
Sturm-count bisection (Barth, Martin and Wilkinson, Numer. Math. 9, 1967),
which `fd_oracle` runs on its coarse and fine grids at once.  The f2py
wrappers hold the GIL while LAPACK runs, so two threads calling
`_flapack.dstebz` take as long as one after the other; a `ctypes.CDLL`
function releases it.  The symbol is resolved through
`ctypes.CDLL(flapack().__file__)`: dlsym on that handle also searches the
libraries `_flapack` links, where the routine is `scipy_dstebz_` (scipy's
OpenBLAS wheels) or `dstebz_` (a system LAPACK).  It is the routine the
wrapper calls, with the same arguments, so the bits are the same.  `dstevd`
and `dstein` stay on the wrappers.
"""
import ctypes
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import ConvergenceFailure, DomainError

_NAME = "scipy.linalg._flapack"


def flapack():
    """The module `scipy.linalg._flapack`, loaded on first use."""
    module = sys.modules.get(_NAME)
    if module is None:
        scipy = importlib.machinery.PathFinder.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(_NAME, [linalg])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_NAME] = module
    return module


def _checked(d, e):
    """(d, e) as float arrays, after scipy.linalg's input checks (0x0: e is empty too)."""
    # C order: dstebz reads the buffers as they lie
    d = np.asarray(d, dtype=float, order="C")
    e = np.asarray(e, dtype=float, order="C")
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise DomainError("matrix entries must be finite")
    if e.size != max(d.size - 1, 0):
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    return d, e


def _check_info(info, routine):
    if info != 0:   # None: the call did not return
        raise ConvergenceFailure(
            f"tridiagonal eigensolver failed: {routine} returned LAPACK info={info}")


def all_eigenvalues(d, e):
    """Every eigenvalue of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, ascending, as dstevd returns them."""
    d, e = _checked(d, e)
    if d.size <= 1:
        return d.copy()
    w, _, info = flapack().dstevd(d, e, compute_v=0)
    _check_info(info, "dstevd")
    return w


# the dstebz symbol: scipy's OpenBLAS wheels prefix it, a system LAPACK does not
_DSTEBZ_NAMES = ("scipy_dstebz_", "dstebz_")
_dstebz_symbol = None


def _dstebz():
    """LAPACK's dstebz as a ctypes function, which releases the GIL.  Every
    argument goes by reference, INTEGER as int32, and the two CHARACTER
    lengths follow as hidden size_t arguments (the gfortran ABI)."""
    global _dstebz_symbol
    if _dstebz_symbol is None:
        library = ctypes.CDLL(flapack().__file__)
        name = next((n for n in _DSTEBZ_NAMES if hasattr(library, n)), None)
        if name is None:
            raise ImportError(f"no LAPACK dstebz in {library._name}: "
                              f"tried {', '.join(_DSTEBZ_NAMES)}")
        fn = getattr(library, name)
        char, ptr, size = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
        #              RANGE ORDER N    VL   VU   IL   IU   ABSTOL D    E    M    NSPLIT
        fn.argtypes = [char, char, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                       # W  IBLOCK ISPLIT WORK IWORK INFO
                       ptr, ptr, ptr, ptr, ptr, ptr, size, size]
        fn.restype = None
        _dstebz_symbol = fn
    return _dstebz_symbol


class Bisection:
    """The k lowest eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and with `vectors` their eigenvectors, in
    three steps, so that the bisection can run on another thread.

    The constructor checks the input, resolves dstebz and makes every array
    and argument of the call; `run` makes the one dstebz call, which
    allocates no array and does not hold the GIL; `result` checks its info
    and returns the eigenvalues ascending and, with `vectors`, their
    eigenvectors by dstein as the columns of an (n, k) array (else None).
    The call is dstebz(RANGE="I", IL=1, IU=k) with the arguments scipy's
    wrapper passes (VL = 0, VU = 1, ABSTOL = 0, ORDER "B" for vectors, else
    "E"), so it gives the wrapper's bits.
    """

    def __init__(self, d, e, k, vectors=False):
        self.d, self.e = _checked(d, e)
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
        self._call = _dstebz()   # a missing symbol raises here, not on the worker
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
        self._keep = self._args = None
        _check_info(self.info, "dstebz")
        w = self.w[:self.m]
        if not self.vectors:
            return w, None
        v, info = flapack().dstein(self.d, self.e, w, self.iblock, self.isplit)
        _check_info(info, "dstein")
        order = np.argsort(w)   # dstebz's "B" order is by block
        return w[order], v[:, order]

