"""Programmable unambiguous discrimination of two unknown qudit states.

Each export loads its module on first use (PEP 562), so importing the package
loads no numpy: `qudisc dims`, `--version` and `--help` run without it.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module it is read from.
_HOMES = {
    "ContractError": "errors", "DomainError": "errors",
    "McEstimate": "harness", "VerificationReport": "harness",
    "empirical_mean_density": "harness", "haar_state": "harness", "mc_success": "harness",
    "overlap_identity_check": "harness", "verify_all": "harness",
    "build_gh_bases": "jordan", "jordan_angles": "jordan",
    "Interferometer": "optics", "discriminator_network": "optics",
    "prepare_state_network": "optics", "reck_decompose": "optics", "simulate_clicks": "optics",
    "Priors": "povm", "RegimeResult": "povm", "average_success": "povm", "block_povm": "povm",
    "detection_weights": "povm", "omega2_constraint": "povm", "optimal_average": "povm",
    "optimal_pure": "povm", "optimal_subspace": "povm", "pure_success": "povm",
    "success_curve_x": "povm", "total_povm": "povm",
    "DimensionTable": "scalars", "dimension_table": "scalars",
    "mean_density_operators": "spaces", "symmetric_basis_2": "spaces",
    "symmetric_projector": "spaces",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return __all__
