"""The names `trabessel` exports, which load lazily, are the API contract."""
import sys

import pytest

import trabessel

# the names the package exported when it imported every submodule eagerly
EXPORTED = [
    "BasisSpec", "BesselJ", "BesselJbar", "Binding", "CheckReport", "ClassId", "ClassReport",
    "ClassSolution", "ContDualHahnS", "ContHahnH", "DeformedB", "DeformedY", "DeformedZ",
    "DerivedSymbols", "DualHahnR", "FavardReport", "GridSpec", "HahnQ", "LaguerreL",
    "MeixnerM", "MeixnerPollaczekP", "OdeParams", "Omega", "SeriesSolution",
    "SpectrumResult", "SystemSpec", "alt_binding_deviation", "apply_D", "apply_D_values",
    "basis_derivatives", "basis_value", "build_series", "classify", "closed_form_cn",
    "confining_well", "default_grid", "default_truncation", "derivative_crosscheck",
    "dual_hahn_rejection", "errors", "eval_oracle", "eval_poly", "evaluate_series",
    "expansion_coefficients", "favard_report", "fd_oracle", "generating_check",
    "jacobi_matrix", "morse_levels", "orthogonality_integral", "pochhammer",
    "recursion_coeffs", "reduce_identity", "residual", "resolve_class",
    "singular_oscillator", "spectrum_eq64", "table1_map", "tridiag_eigenvalues",
    "tridiagonality_check", "tridiagonality_sweep", "u_decomposition",
]


def test_all_is_the_exported_api():
    assert trabessel.__all__ == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(trabessel, name)
    if name == "errors":
        assert value is sys.modules["trabessel.errors"]
    else:
        assert getattr(sys.modules[value.__module__], name) is value
    assert vars(trabessel)[name] is value  # resolved once


def test_basis_spec_still_imports_from_the_basis_module():
    from trabessel.basis import BasisSpec
    assert BasisSpec is trabessel.BasisSpec


def test_dir_lists_every_name():
    assert set(EXPORTED) <= set(dir(trabessel))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        trabessel.nope


def test_moved_oracles_import_from_the_package():
    from trabessel import apply_D, dual_hahn_rejection, eval_oracle
    from trabessel import oracles
    assert (eval_oracle, apply_D, dual_hahn_rejection) == (
        oracles.eval_oracle, oracles.apply_D, oracles.dual_hahn_rejection)
