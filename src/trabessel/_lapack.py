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

Every call goes through `_call`, which packs each argument by type (a
CHARACTER, an INTEGER, a DOUBLE or an `array` buffer) and reads INFO, and
every array is an `array`: the module imports no numpy.  `all_eigenvalues`
and `lowest_eigenpairs` make the LAPACK calls, with the same arguments, that
scipy.linalg's tridiagonal eigensolver makes by default for all eigenvalues
and for an index range, so they give the same bits.  `all_eigenvalues` is
`dstevd` with JOBZ = "N" and the workspace sizes of scipy's `compute_v=0`
(LWORK = LIWORK = 1).  `lowest_eigenpairs` is the Sturm-count bisection
`dstebz` (Barth, Martin and Wilkinson, Numer. Math. 9, 1967), with `dstein`
for the eigenvectors; `fd_oracle` runs it for its coarse and fine grids at
once, on two threads, and the well on each leading block it tries of a Jacobi
matrix of more than 59 rows, whatever its N; a smaller well matrix, or one
whose blocks give up, goes whole to `all_eigenvalues`.  Both take any flat
sequence of numbers, and copy a C-contiguous buffer of doubles, such as a
float ndarray, by its bytes.
"""
import ctypes
import functools
import importlib.machinery
import math
import operator
import os
from array import array

from .errors import ConvergenceFailure, DomainError

_NAME = "scipy.linalg._flapack"
_routines = {}   # name -> its ctypes function, resolved on first use
_SCALARS = {int: "i", float: "d"}   # a by-reference scalar's array type


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
        fn = _routines[name] = getattr(library, symbol)
    return fn


def _call(name, *args):
    """Call LAPACK's `name` on `args` and a trailing INFO, and return the
    arguments as passed, with each INTEGER and DOUBLE in a one-element array,
    so that an output such as M reads [0]; info != 0 is a ConvergenceFailure.

    Each argument is a CHARACTER (bytes), an INTEGER (int), a DOUBLE (float)
    or a buffer (an `array` of type "i" or "d").  All but a CHARACTER go by
    reference, INTEGER as int32, and the length of each CHARACTER follows
    them all as a hidden size_t (the gfortran ABI).
    """
    refs = [array(_SCALARS[type(a)], [a]) if type(a) in _SCALARS else a
            for a in (*args, 0)]   # INFO last
    _routine(name)(*[a if type(a) is bytes else ctypes.c_void_p(a.buffer_info()[0])
                     for a in refs],
                   *[ctypes.c_size_t(1) for a in args if type(a) is bytes])
    if refs[-1][0] != 0:
        raise ConvergenceFailure(
            f"tridiagonal eigensolver failed: {name} returned LAPACK info={refs[-1][0]}")
    return refs


def _doubles(values):
    """A new array("d") of `values`, a flat sequence of numbers; ValueError
    for anything else."""
    try:
        view = memoryview(values)
    except TypeError:   # not a buffer: a list, say
        view = None
    if view is not None and view.ndim != 1:
        raise ValueError("expected a 1-D array")
    copy = array("d")
    if view is not None and view.format == "d" and view.c_contiguous:
        copy.frombytes(view.cast("B"))
        return copy
    try:
        copy.extend(values)
    except TypeError:   # not a sequence of numbers
        raise ValueError("expected a 1-D array") from None
    return copy


def _matrix(d, e):
    """d and e as new arrays, after scipy.linalg's input checks (0x0: e is
    empty too)."""
    d, e = _doubles(d), _doubles(e)
    # one sum first: it is finite unless an entry is not, or the sum overflows
    if not math.isfinite(sum(d) + sum(e)) and not all(map(math.isfinite, d + e)):
        raise DomainError("matrix entries must be finite")
    if len(e) != max(len(d) - 1, 0):
        raise ValueError(f"d ({len(d)}) must have one more element than e ({len(e)})")
    return d, e


def _zeros(typecode, count):
    return array(typecode, [0]) * count


def all_eigenvalues(d, e):
    """Every eigenvalue of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, ascending, as a list of the Python floats dstevd
    returns."""
    d, e = _matrix(d, e)   # copies: dstevd overwrites both
    if len(d) > 1:
        # one word each; Z is not referenced for JOBZ = "N", so WORK stands in for it
        work, iwork = _zeros("d", 1), _zeros("i", 1)
        # JOBZ N D E Z LDZ WORK LWORK IWORK LIWORK
        _call("dstevd", b"N", len(d), d, e, work, 1, work, 1, iwork, 1)
    return d.tolist()


def lowest_eigenpairs(d, e, k, vectors=False):
    """The k lowest eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, ascending, as a list of Python floats,
    and with `vectors` their eigenvectors, as a list of k arrays (else None).

    The calls are dstebz(RANGE="I", IL=1, IU=k) with the arguments scipy's
    wrapper passes (VL = 0, VU = 1, ABSTOL = 0, ORDER "B" for vectors, else
    "E") and dstein(d, e, w[:m], iblock, isplit), so they give the wrappers'
    bits.
    """
    d, e = _matrix(d, e)
    n, k = len(d), operator.index(k)   # k a Python int, as _call takes INTEGERs
    if not 1 <= k <= n:
        raise ValueError(f"cannot take the lowest {k} eigenvalues of a {n}x{n} matrix")
    # zeroed, as the wrapper's are; the scratch serves both (dstebz reads 4n and 3n
    # words of it, dstein 5n and n)
    w, iblock, isplit = _zeros("d", n), _zeros("i", n), _zeros("i", n)
    work, iwork = _zeros("d", 5 * n), _zeros("i", 3 * n)
    # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK
    m = _call("dstebz", b"I", b"B" if vectors else b"E", n, 0.0, 1.0, 1, k, 0.0,
              d, e, 0, 0, w, iblock, isplit, work, iwork)[10][0]   # M
    order = sorted(range(m), key=w.__getitem__)   # "B" orders by block
    if not vectors:
        return [w[j] for j in order], None
    z = _zeros("d", n * m)
    # N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL
    _call("dstein", n, d, e, m, w, iblock, isplit, z, n, work, iwork, _zeros("i", m))
    return [w[j] for j in order], [z[j * n:(j + 1) * n] for j in order]
