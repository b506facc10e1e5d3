"""Series solutions of the six-parameter Bessel-type ODE by tridiagonal
representation, with orthogonal-polynomial coefficient families and the
quantum-mechanical applications (confining well, singular oscillator).

The names below load lazily (PEP 562): `import trabessel` runs no submodule,
and the first use of a name imports only the module that defines it, so a
command-line call compiles only the layers it runs.  The cross-checks that
only tests use live in `trabessel.oracles`.
"""
import importlib

__version__ = "0.1.0"

# name -> the submodule that defines it; "errors" is the submodule itself
_SOURCES = {
    "errors": "errors",
    "BasisSpec": "_basisspec",
    **dict.fromkeys(("basis_derivatives", "basis_value"), "basis"),
    **dict.fromkeys(("BesselJ", "BesselJbar", "ContDualHahnS", "ContHahnH", "DeformedB",
                     "DeformedY", "DeformedZ", "DualHahnR", "HahnQ", "LaguerreL", "MeixnerM",
                     "MeixnerPollaczekP", "eval_poly", "pochhammer"), "families"),
    **dict.fromkeys(("OdeParams", "apply_D_values"), "ode"),
    **dict.fromkeys(("SpectrumResult", "SystemSpec", "confining_well", "fd_oracle",
                     "morse_levels", "singular_oscillator", "spectrum_eq64",
                     "table1_map"), "quantum"),
    "ClassId": "_classid",
    **dict.fromkeys(("Binding", "ClassReport", "ClassSolution", "DerivedSymbols",
                     "FavardReport", "Omega", "SeriesSolution", "build_series", "classify",
                     "default_truncation", "evaluate_series", "expansion_coefficients",
                     "favard_report", "jacobi_matrix", "recursion_coeffs", "resolve_class",
                     "tridiag_eigenvalues"), "solver"),
    **dict.fromkeys(("GridSpec", "default_grid"), "grid"),
    **dict.fromkeys(("CheckReport", "residual", "tridiagonality_check",
                     "tridiagonality_sweep"), "verify"),
    **dict.fromkeys(("alt_binding_deviation", "apply_D", "closed_form_cn",
                     "derivative_crosscheck", "dual_hahn_rejection", "eval_oracle",
                     "generating_check", "orthogonality_integral", "reduce_identity",
                     "u_decomposition"), "oracles"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{source}", __name__)
    if name != source:
        value = getattr(value, name)
    globals()[name] = value  # resolved once: later reads are plain attribute reads
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
