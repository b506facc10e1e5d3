"""The package's two symmetric tridiagonal eigensolves, on scipy's LAPACK wrappers.

The wrappers live in the compiled module `scipy.linalg._flapack` (the same
objects `scipy.linalg.lapack` documents: `scipy.linalg.lapack.dstebz is
scipy.linalg._flapack.dstebz`).  `flapack` loads that module from its file
and does not run `scipy/linalg/__init__.py`, whose array-API shim imports
numpy.f2py, numpy.testing and unittest and costs a cold process 200 ms or
more; the module alone loads in a few milliseconds.  It is registered under
its own name, so scipy.linalg, when imported later, takes it from there, and
one that scipy.linalg loaded earlier is reused: a process holds one LAPACK
module.

`all_eigenvalues` and `lowest_eigenvalues` make the LAPACK calls, with the
same arguments, that scipy.linalg's tridiagonal eigensolver makes by default
for all eigenvalues and for an index range, so they give the same bits.
"""
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import ConvergenceFailure

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
    """(d, e) as float arrays, after scipy.linalg's input checks."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    return d, e


def _check_info(info, routine):
    if info:
        raise ConvergenceFailure(
            f"tridiagonal eigensolver failed: {routine} returned LAPACK info={info}")


def all_eigenvalues(d, e):
    """Every eigenvalue of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, as dstevd returns them."""
    d, e = _checked(d, e)
    if d.size == 1:
        return d[:1].copy()
    w, _, info = flapack().dstevd(d, e, compute_v=0)
    _check_info(info, "dstevd")
    return w


def lowest_eigenvalues(d, e, k, vectors=False):
    """The k lowest eigenvalues, ascending, by dstebz bisection, and with
    `vectors` their eigenvectors by dstein as the columns of an (n, k) array
    (else None)."""
    d, e = _checked(d, e)
    if not 1 <= k <= d.size:
        raise ValueError(f"cannot take the lowest {k} eigenvalues of a "
                         f"{d.size}x{d.size} matrix")
    if d.size == 1:
        return d[:1].copy(), (np.ones((1, 1)) if vectors else None)
    lapack = flapack()
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0,
                                               "B" if vectors else "E")
    _check_info(info, "dstebz")
    w = w[:m]
    if not vectors:
        return w, None
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "dstein")
    order = np.argsort(w)   # dstebz's "B" order is by block
    return w[order], v[:, order]
