"""Quantum Fisher information for atom-interferometric rotation sensing.

A trapped-atom Sagnac gyroscope drives counter-orbiting matter waves around a
ring trap; the achievable rotation sensitivity is set by the quantum Fisher
information of the final state.  This package computes that QFI three ways: a
closed form built from analytically propagated coefficients, a general
variance form over arbitrary spin-mode product states, and a brute-force
truncated-Fock-space oracle, and cross-checks them against each other.
"""

from .exceptions import (
    ConfigError,
    ConsistencyError,
    ProfileError,
    SagnacQfiError,
    SizeGuardError,
    TruncationError,
)
from .model import (
    CoefficientSet,
    DerivedConstants,
    DrivingProfile,
    GeneratorCoefficients,
    PhysicalParams,
    coefficients,
    derive_constants,
    generator_coefficients,
)
from .oracle import (
    build_displacement,
    build_evolution_closed,
    build_evolution_stepped,
    covariance_reduction_check,
    generator_analytic,
    generator_numeric,
    qfi_fidelity_numeric,
    qfi_variance_numeric,
    quadrature_site_operator,
    sigma_z_site_operator,
)
from .qfi import (
    QfiBreakdown,
    QfiComparison,
    qfi_commensurate,
    qfi_difference,
    qfi_general,
    qfi_global_closed,
    qfi_partial_closed,
)
from .scan import (
    ScanConfig,
    load_config,
    result_to_json,
    rows_to_csv,
    run_oracle_check,
    run_scan_alpha,
    run_scan_n,
    run_scan_tau,
)
from .states import (
    CorrelationSet,
    GhzProductState,
    auto_truncation,
    correlations_closed_form,
    correlations_generic,
    correlations_single_branch,
    displaced_fock_amplitudes,
    make_globally_entangled,
    make_partially_entangled,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet",
    "ConfigError",
    "ConsistencyError",
    "CorrelationSet",
    "DerivedConstants",
    "DrivingProfile",
    "GeneratorCoefficients",
    "GhzProductState",
    "PhysicalParams",
    "ProfileError",
    "QfiBreakdown",
    "QfiComparison",
    "SagnacQfiError",
    "ScanConfig",
    "SizeGuardError",
    "TruncationError",
    "auto_truncation",
    "build_displacement",
    "build_evolution_closed",
    "build_evolution_stepped",
    "coefficients",
    "correlations_closed_form",
    "correlations_generic",
    "correlations_single_branch",
    "covariance_reduction_check",
    "derive_constants",
    "displaced_fock_amplitudes",
    "generator_analytic",
    "generator_coefficients",
    "generator_numeric",
    "load_config",
    "make_globally_entangled",
    "make_partially_entangled",
    "qfi_commensurate",
    "qfi_difference",
    "qfi_fidelity_numeric",
    "qfi_general",
    "qfi_global_closed",
    "qfi_partial_closed",
    "qfi_variance_numeric",
    "quadrature_site_operator",
    "result_to_json",
    "rows_to_csv",
    "run_oracle_check",
    "run_scan_alpha",
    "run_scan_n",
    "run_scan_tau",
    "sigma_z_site_operator",
    "__version__",
]
