"""The package's public names, pinned so that an export change shows in a diff."""

import sagnac_qfi

PUBLIC_API = [
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
    "__version__",
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
]


def test_exports_are_the_pinned_list():
    assert len(PUBLIC_API) == 49
    assert sorted(sagnac_qfi.__all__) == PUBLIC_API


def test_every_export_resolves():
    for name in sagnac_qfi.__all__:
        assert hasattr(sagnac_qfi, name), name
