"""Certified Hausdorff dimension bounds for continued-fraction limit sets.

Pipeline: B-spline quasi-interpolant collocation of the transfer operator
(assembly), cone-certified spectral bracketing (spectral), and bisection in
the dimension parameter s (solver), with all rigor constants in constants.
"""
from .assembly import OperatorCache, TransferOperator
from .bspline import (KnotSequence, TensorGrid, eval_bspline,
                      eval_bspline_derivative, eval_tensor_bspline,
                      local_basis, make_uniform_knots, parameter_interval,
                      relevant_indices)
from .constants import (RigorProfile, admissible_h, bramble_hilbert_constant,
                        cone_image_parameter, deriv_bound_1d, deriv_bounds_2d,
                        distortion_K, err_coefficient_1d, err_coefficient_2d,
                        legendre_projection_constants, make_profile,
                        multivariate_error_constant)
from .maps import (Alphabet, dphi_norm_1d, dphi_norm_2d, make_alphabet_1d,
                   make_alphabet_2d, parse_alphabet, phi_1d, phi_2d)
from .quasi import (QuasiInterpolant, coefficient_1d, coefficient_tensor,
                    eval_quasi_interpolant, make_quasi_interpolant,
                    positivity_threshold)
from .solver import (CertificationError, DimensionBracket,
                     InadmissibleMeshError, MonotonicityError, SolveConfig,
                     convergence_study, lambda_bracket, make_geometry,
                     solve_dimension, two_step_refinement)
from .spectral import (ConeCertificate, PositivityError, SpectralBracket,
                       cone_membership, power_iteration, spectral_bracket)

__all__ = [
    "Alphabet", "CertificationError", "ConeCertificate", "DimensionBracket",
    "InadmissibleMeshError", "KnotSequence", "MonotonicityError",
    "OperatorCache", "PositivityError", "QuasiInterpolant", "RigorProfile",
    "SolveConfig", "SpectralBracket", "TensorGrid", "TransferOperator",
    "admissible_h", "bramble_hilbert_constant", "coefficient_1d", "coefficient_tensor",
    "cone_image_parameter", "cone_membership", "convergence_study",
    "deriv_bound_1d", "deriv_bounds_2d", "distortion_K", "dphi_norm_1d",
    "dphi_norm_2d", "err_coefficient_1d", "err_coefficient_2d",
    "eval_bspline", "eval_bspline_derivative", "eval_quasi_interpolant",
    "eval_tensor_bspline", "lambda_bracket", "legendre_projection_constants",
    "local_basis", "make_alphabet_1d", "make_alphabet_2d", "make_geometry",
    "make_profile", "make_quasi_interpolant", "make_uniform_knots",
    "multivariate_error_constant", "parameter_interval", "parse_alphabet",
    "phi_1d", "phi_2d", "positivity_threshold", "power_iteration",
    "relevant_indices", "solve_dimension", "spectral_bracket",
    "two_step_refinement",
]

__version__ = "0.1.0"
