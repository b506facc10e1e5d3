"""Series solutions of the six-parameter Bessel-type ODE by tridiagonal
representation, with orthogonal-polynomial coefficient families and the
quantum-mechanical applications (confining well, singular oscillator)."""

__version__ = "0.1.0"

from . import errors
from .basis import BasisSpec, basis_derivatives, basis_value
from .families import (BesselJ, BesselJbar, ContDualHahnS, ContHahnH, DeformedB,
                       DeformedY, DeformedZ, DualHahnR, HahnQ, LaguerreL,
                       MeixnerM, MeixnerPollaczekP, eval_oracle, eval_poly,
                       generating_check, orthogonality_integral, pochhammer,
                       reduce_identity)
from .ode import OdeParams, apply_D, apply_D_values
from .quantum import (SpectrumResult, SystemSpec, confining_well, fd_oracle,
                      morse_levels, singular_oscillator, spectrum_eq64,
                      table1_map)
from .solver import (Binding, ClassId, ClassReport, ClassSolution, DerivedSymbols,
                     FavardReport, Omega, SeriesSolution, alt_binding_deviation, build_series,
                     classify, closed_form_cn, default_truncation,
                     dual_hahn_rejection, evaluate_series,
                     expansion_coefficients, favard_report, jacobi_matrix,
                     recursion_coeffs, resolve_class, tridiag_eigenvalues,
                     u_decomposition)
from .verify import (CheckReport, GridSpec, default_grid, derivative_crosscheck,
                     residual, tridiagonality_check, tridiagonality_sweep)
