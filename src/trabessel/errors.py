"""Exception types shared across the package, the one check that a degree
is an integer, and the helpers that the numeric steps and their messages share."""
import contextlib
import numbers
import sys


class TraError(Exception):
    """Base class for all package errors."""


class DomainError(TraError):
    """Evaluation outside a family's valid parameter/degree range."""


class UnsupportedOracle(TraError):
    """Family has no closed hypergeometric representation."""


class QuadratureFailure(TraError):
    """Adaptive quadrature did not reach the requested tolerance."""


class ConstraintViolation(TraError):
    """A parameter relation does not hold: `residual` is how far it misses,
    `got` the offending count or value itself."""

    def __init__(self, relation, residual=None, *, got=None):
        self.relation = relation
        self.residual = residual
        self.got = got
        msg = relation if residual is None else f"{relation} (residual {residual:.3e})"
        super().__init__(msg if got is None else f"{relation} (got {got})")


class RealityViolation(TraError):
    """A quantity that must be real would be complex at these parameters."""


class DefinitenessError(TraError):
    """A coupling product s_n * t_n is not positive."""


class ConvergenceFailure(TraError):
    """An iterative numerical routine exceeded its iteration budget."""


class BoundaryError(TraError):
    """Eigenfunction not negligible at the finite-difference domain edge."""


class DerivativeUnavailable(TraError):
    """Function handle provides neither analytic derivatives nor values."""


class UnsupportedRow(TraError):
    """Coordinate-map exponent outside the four supported choices."""


class SeriesOverflow(TraError):
    """A quantity computed from in-range inputs overflows double precision:
    a class's relations, a basis block or series truncation on its grid, an
    FD potential, or a closed-form C_n."""


def _check_integer(n, name="degree"):
    """DomainError unless n is an integer: np.int64(3) is one; True and 2.0 are not."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, not {n!r}")


def _count_text(n):
    """An integer count for a message: exact up to 15 digits, in float form
    (1e+300) beyond, as the parameters it derives from print."""
    return str(n) if abs(n) < 10 ** 15 else str(float(n))


def _quiet_numpy():
    """np.errstate(over="ignore", invalid="ignore") once numpy is loaded, where
    NumPy-scalar steps warn on overflow; before, no NumPy scalar can exist, and
    Python floats do not warn."""
    np = sys.modules.get("numpy")
    return contextlib.nullcontext() if np is None else np.errstate(over="ignore", invalid="ignore")
