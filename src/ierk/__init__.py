"""Parameterized IMEX Runge-Kutta methods for gradient flows, with
unconditional energy-dissipation certificates and a 1D Cahn-Hilliard
spectral testbed."""

from .errors import (
    DegenerateParameters,
    IerkError,
    IntegrationDiverged,
    InvalidTableau,
    NonInvertibleStage,
    UnknownMethod,
)
from .tableau import (
    ImexTableau,
    METHOD_NAMES,
    OrderReport,
    check_order_conditions,
    load_tableau,
    reduced_matrices,
    registry,
    tableau_from_dict,
    tableau_to_dict,
)
from .dissipation import (
    DifferenceTableau,
    DifferentiationPair,
    DissipationCertificate,
    DocKernels,
    average_rate,
    certify,
    difference_coefficients,
    differentiation_pair,
    doc_kernels,
    scan_parameter,
)
from .spectral import (
    Field,
    SpectralGrid,
    SpectralSystem,
    energy,
    lambda_ml_bar,
    tanh_gaussian_bumps,
)
from .integrator import EnergyTrace, StepRecord, differential_form_residual, evolve, step

__version__ = "0.1.0"

__all__ = [
    "DegenerateParameters",
    "DifferenceTableau",
    "DifferentiationPair",
    "DissipationCertificate",
    "DocKernels",
    "EnergyTrace",
    "Field",
    "IerkError",
    "ImexTableau",
    "IntegrationDiverged",
    "InvalidTableau",
    "METHOD_NAMES",
    "NonInvertibleStage",
    "OrderReport",
    "SpectralGrid",
    "SpectralSystem",
    "StepRecord",
    "UnknownMethod",
    "average_rate",
    "certify",
    "check_order_conditions",
    "difference_coefficients",
    "differential_form_residual",
    "differentiation_pair",
    "doc_kernels",
    "energy",
    "evolve",
    "lambda_ml_bar",
    "load_tableau",
    "reduced_matrices",
    "registry",
    "scan_parameter",
    "step",
    "tableau_from_dict",
    "tableau_to_dict",
    "tanh_gaussian_bumps",
]
