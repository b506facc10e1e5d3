"""Command-line front end.

Subcommands: classify, solve, eval, verify, spectrum, oracle, version.
Parameters come from flags or a flat `key = value` config file (flags win).
Outputs are deterministic CSV or JSON with 17-significant-digit floats;
exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import re
import sys

from . import __version__, jsonio
from ._classid import ClassId
from .errors import (BoundaryError, ConstraintViolation, ConvergenceFailure,
                     DefinitenessError, QuadratureFailure, SeriesOverflow, TraError)

# Each subcommand imports the layers it runs inside its handler, so a call
# compiles only those: the oscillator and FD commands never load the solver,
# and only verify loads the verifier.

# builtins only (OSError: a config or --out path that cannot be opened): main's
# `except TraError` gives the package's validation errors exit 2
_VALIDATION_ERRORS = (ValueError, KeyError, OSError)
_NUMERICAL_ERRORS = (QuadratureFailure, ConvergenceFailure, DefinitenessError,
                     BoundaryError, SeriesOverflow, ZeroDivisionError, OverflowError)

_F = jsonio.format_float


def _read_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _ode_from_args(args):
    from .ode import OdeParams

    missing = [k for k in ("a", "b", "Ap", "Am", "A1", "A0")
               if getattr(args, k) is None]
    if missing:
        raise ValueError(f"missing ODE parameters: {', '.join(missing)}")
    return OdeParams(a=args.a, b=args.b, A_plus=args.Ap, A_minus=args.Am,
                     A_one=args.A1, A_zero=args.A0)


def _config_echo(args, keys):
    echo = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            echo[key] = val
    return echo


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _free_params(args):
    values = {key: getattr(args, key) for key in ("mu", "alpha", "tau")}
    return {key: val for key, val in values.items() if val is not None}


def _json_only(args):
    if args.format != "json":
        raise ValueError(f"{args.command} writes JSON only (got --format {args.format})")


def _emit(args, header, rows, doc):
    """Write CSV (the header, then each row of strings comma-joined) or the
    JSON document doc, as --format says."""
    if args.format == "csv":
        _write(args.out, "".join(f"{line}\n" for line in [header, *map(",".join, rows)]))
    else:
        _write(args.out, jsonio.dumps(doc))
    return 0


def _write_spectrum(args, result, echo_keys):
    """Emit a SpectrumResult as "k,E_k,method" CSV or a JSON document."""
    return _emit(args, "k,E_k,method",
                 ((str(k), _F(float(e)), result.method)
                  for k, e in enumerate(result.energies)),
                 {"config_echo": _config_echo(args, echo_keys),
                  "method": result.method,
                  "energies": [float(e) for e in result.energies],
                  "metadata": result.metadata})


def _grid_from_args(args):
    """The grid the flags name; a missing --x-min is the default grid's, so
    the other grid flags apply with or without it."""
    from .grid import GridSpec, default_grid

    x_min = default_grid().x_min if args.x_min is None else args.x_min
    return GridSpec(x_min, args.x_max, args.x_count, args.x_spacing)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args):
    from .solver import classify

    _json_only(args)
    params = _ode_from_args(args)
    reports = classify(params, tol=args.tol)
    rows = []
    for rep in reports:
        rows.append({"class": rep.class_id.value,
                     "redirect": rep.class_id.is_redirect,
                     "residuals": dict(rep.residuals),
                     "reason": rep.reason})
        line = f"{rep.class_id.value}: admissible"
        if rep.reason:
            line += f" ({rep.reason})"
        print(line)
        for name, val in rep.residuals.items():
            print(f"    {name} = {_F(float(val))}")
    doc = {"config_echo": _config_echo(args, ("a", "b", "Ap", "Am", "A1", "A0", "tol")),
           "classes": rows}
    _write(args.out, jsonio.dumps(doc))
    return 0


def _resolved_solution(args):
    from .solver import resolve_class

    params = _ode_from_args(args)
    class_id = ClassId(args.klass)
    return resolve_class(params, class_id, free=_free_params(args), tol=args.tol)


def _truncation(args, sol):
    """--N, else the class's default truncation."""
    from .solver import default_truncation

    return default_truncation(sol) if args.N is None else args.N


def _cmd_solve(args):
    from .solver import _expansion_list

    sol = _resolved_solution(args)
    coeffs = _expansion_list(sol, _truncation(args, sol))  # Python floats: no numpy
    echo = _config_echo(args, ("klass", "a", "b", "Ap", "Am", "A1", "A0",
                               "mu", "alpha", "tau", "N", "tol"))
    return _emit(args, "n,f_n",
                 ((str(n), _F(c)) for n, c in enumerate(coeffs)),
                 {"config_echo": echo,
                  "class": sol.class_id.value,
                  "basis": {"kind": sol.basis.kind, "beta": sol.basis.beta,
                            "alpha": sol.basis.alpha, "mu": sol.basis.mu,
                            "exponent": sol.basis.exponent, "nu": sol.basis.nu},
                  "binding": {"family": type(sol.binding.family).__name__,
                              "argument": sol.binding.argument},
                  "omega": sol.omega_description(),
                  "notes": list(sol.notes),
                  "coefficients": coeffs})


def _cmd_eval(args):
    from .solver import build_series, evaluate_series

    sol = _resolved_solution(args)
    series = build_series(sol, _truncation(args, sol))
    xs = _grid_from_args(args).points()
    ys = evaluate_series(series, xs)
    echo = _config_echo(args, ("klass", "a", "b", "Ap", "Am", "A1", "A0", "mu",
                               "alpha", "tau", "N", "x_min", "x_max", "x_count",
                               "x_spacing"))
    return _emit(args, "x,y", ((_F(float(x)), _F(float(y))) for x, y in zip(xs, ys)),
                 {"config_echo": echo,
                  "x": [float(v) for v in xs],
                  "y": [float(v) for v in ys]})


def _cmd_verify(args):
    from .solver import build_series
    from .verify import residual, tridiagonality_sweep

    _json_only(args)
    if not args.check_tol >= 0:
        raise ConstraintViolation("--check-tol >= 0", got=args.check_tol)
    if args.n_min < 0:
        raise ConstraintViolation("--n-min >= 0", got=args.n_min)
    if args.n_min > args.n:
        raise ConstraintViolation(
            f"--n-min <= --n (got --n-min {args.n_min}, --n {args.n})")
    sol = _resolved_solution(args)
    grid = _grid_from_args(args)
    rep = tridiagonality_sweep(sol, range(args.n_min, args.n + 1), grid, args.check_tol)
    bad = [n for n, rel in rep.per_n.items() if not math.isfinite(rel)]
    if bad:
        raise SeriesOverflow(f"the tridiagonality check is not finite from n={bad[0]}: "
                             "the basis overflows double precision on this grid")
    doc = {"config_echo": _config_echo(args, ("klass", "a", "b", "Ap", "Am", "A1",
                                              "A0", "mu", "alpha", "tau", "n",
                                              "check_tol")),
           "max_rel_deviation": rep.max_rel_deviation,
           "max_abs_deviation": rep.max_abs_deviation,
           "argmax_x": rep.argmax_x,
           "per_n": {str(n): rel for n, rel in rep.per_n.items()},
           "pass": rep.passed,
           "notes": list(rep.notes)}
    _write(args.out, jsonio.dumps(doc))
    # residual report for the assembled series, when requested
    if args.with_residual:
        n_trunc = _truncation(args, sol)
        series = build_series(sol, n_trunc)
        sys.stdout.write(
            f"residual(N={n_trunc}): {_F(residual(series, grid).max_rel_deviation)}\n")
    return 0 if rep.passed else 3


# Each system: the flags it needs, and the flags it takes no value for, with
# their unset values (a flag the subcommand lacks is skipped).
_SYSTEM_FLAGS = {
    "well": (("Am", "Ap"), (("ell", 0), ("Lambda", 0), ("A1", None))),
    "oscillator": (("A1",), (("Am", None), ("Ap", None), ("N", None))),
}


def _check_system_flags(args):
    """ValueError unless the system's flags are given and none it takes no
    value for is set, by flag or by config file."""
    needs, unused = _SYSTEM_FLAGS[args.system]
    if any(getattr(args, key) is None for key in needs):
        raise ValueError(f"{args.system} {args.command} needs --{' and --'.join(needs)}")
    unused = [(key, unset) for key, unset in unused if hasattr(args, key)]
    given = [f"--{key} {getattr(args, key)}" for key, unset in unused
             if getattr(args, key) != unset]
    if given:
        flags = [f"--{key}" for key, _ in unused]
        raise ValueError(f"the {args.system} system takes no {', '.join(flags[:-1])} "
                         f"or {flags[-1]} (got {', '.join(given)})")


def _cmd_spectrum(args):
    # the levels as Python floats: neither system loads numpy
    from .quantum import SpectrumResult, _eq64_list, _well_spectrum

    _check_system_flags(args)
    if args.system == "well":
        result = SpectrumResult(*_well_spectrum(args.Am, args.Ap, args.lam, args.N,
                                                args.levels))
        echo_keys = ("system", "Am", "Ap", "lam", "N", "levels")
    else:
        energies = _eq64_list(args.lam, args.A1, args.Lambda, args.ell, args.levels)
        result = SpectrumResult(energies, "closed_form_eq64",
                                {"Lambda": args.Lambda, "ell": args.ell})
        echo_keys = ("system", "A1", "Lambda", "ell", "lam", "levels")
    return _write_spectrum(args, result, echo_keys)


def _cmd_oracle(args):
    from .quantum import fd_oracle, oscillator_potential, well_potential

    _check_system_flags(args)
    if args.system == "well":
        potential, ell = well_potential(args.Am, args.Ap, args.lam), 0
    else:
        # the effective oscillator potential already carries the ell term
        potential = oscillator_potential(args.A1, args.Lambda, args.ell, args.lam)
        ell = args.ell
    result = fd_oracle(potential, (args.r_min, args.r_max), args.grid_size,
                       ell=ell, n_levels=args.levels, include_centrifugal=False)
    return _write_spectrum(args, result, ("system", "Am", "Ap", "A1", "Lambda",
                                          "ell", "lam", "r_min", "r_max",
                                          "grid_size", "levels"))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent notation (-2.5e-1), and -inf,
    -infinity and -nan in any case, as a value, where argparse's own pattern
    knows only -2 and -2.5 and takes the rest for an option; add_subparsers
    makes each subcommand's parser of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


def _add_ode_flags(p):
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--Ap", type=float, default=None, help="A+ coefficient")
    p.add_argument("--Am", type=float, default=None, help="A- coefficient")
    p.add_argument("--A1", type=float, default=None)
    p.add_argument("--A0", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)


def _add_free_flags(p):
    p.add_argument("--class", dest="klass", required=True,
                   choices=[c.value for c in ClassId if not c.is_redirect])
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)


def _add_io_flags(p):
    p.add_argument("--config", default=None, help="key = value file; flags win")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output path (stdout when absent)")


def _add_system_flags(p):
    p.add_argument("--system", choices=("well", "oscillator"), required=True)
    p.add_argument("--Am", type=float, default=None)
    p.add_argument("--Ap", type=float, default=None)
    p.add_argument("--A1", type=float, default=None)
    p.add_argument("--Lambda", type=float, default=0.0)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=5)
    _add_io_flags(p)


def _add_grid_flags(p):
    p.add_argument("--x-min", dest="x_min", type=float, default=None)
    p.add_argument("--x-max", dest="x_max", type=float, default=20.0)
    p.add_argument("--x-count", dest="x_count", type=int, default=64)
    p.add_argument("--x-spacing", dest="x_spacing",
                   choices=("linear", "logarithmic"), default="logarithmic")


def build_parser():
    parser = _Parser(
        prog="trabessel",
        description="Series solutions of the six-parameter Bessel-type ODE "
                    "by tridiagonal representation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="admissible solution classes")
    _add_ode_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="expansion coefficients f_n")
    _add_ode_flags(p)
    _add_free_flags(p)
    p.add_argument("--N", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate the truncated series on a grid")
    _add_ode_flags(p)
    _add_free_flags(p)
    p.add_argument("--N", type=int, default=None)
    _add_grid_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="operator-action tridiagonality check")
    _add_ode_flags(p)
    _add_free_flags(p)
    p.add_argument("--n", type=int, default=3, help="highest degree checked")
    p.add_argument("--n-min", dest="n_min", type=int, default=0)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--check-tol", dest="check_tol", type=float, default=1e-8)
    p.add_argument("--with-residual", dest="with_residual", action="store_true")
    _add_grid_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="bound-state energies")
    _add_system_flags(p)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("oracle", help="finite-difference Schrodinger oracle")
    _add_system_flags(p)
    p.add_argument("--r-min", dest="r_min", type=float, required=True)
    p.add_argument("--r-max", dest="r_max", type=float, required=True)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=4000)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("version", help="print the package version")
    p.set_defaults(func=lambda args: (print(__version__), 0)[1])

    return parser


def _parse(parser, argv):
    """Parse argv; with --config, parse it again over the file's values set
    as the subcommand's defaults, so a flag always wins and argparse types
    each value by its flag (a store_true flag reads 1/true/yes).  Every float
    flag of the subcommand must then be finite, however it was given."""
    args = parser.parse_args(argv)
    sub = parser._subparsers._group_actions[0].choices[args.command]
    if getattr(args, "config", None):
        flags = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
        values = _read_config(args.config)
        for key, raw in values.items():
            if key not in flags:
                raise ValueError(f"unknown config key {key!r}")
            choices = flags[key].choices  # argparse checks choices in argv only
            if choices is not None and raw not in choices:
                raise ValueError(f"config key {key!r} must be one of {', '.join(choices)} "
                                 f"(got {raw!r})")
            if isinstance(flags[key].default, bool):
                values[key] = raw.lower() in ("1", "true", "yes")
        sub.set_defaults(**values)
        args = parser.parse_args(argv)
    for action in sub._actions:
        value = getattr(args, action.dest) if action.type is float else None
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{action.option_strings[0]} must be finite (got {value})")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # its message is empty
        print("numerical failure: out of memory: the problem is too large for this process",
              file=sys.stderr)
        return 3
    except TraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
