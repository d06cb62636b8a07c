"""Programmable unambiguous discrimination of two unknown qudit states."""

__version__ = "0.1.0"

from .errors import ContractError, DegeneratePriorsError, DomainError
from .harness import (
    McEstimate,
    VerificationReport,
    empirical_mean_density,
    haar_state,
    mc_success,
    overlap_identity_check,
    verify_all,
)
from .jordan import (
    JordanPairSet,
    build_gh_bases,
    jordan_angles,
)
from .optics import (
    ClickStats,
    Interferometer,
    discriminator_network,
    prepare_state_network,
    reck_decompose,
    simulate_clicks,
    two_mode_unitary,
)
from .povm import (
    Priors,
    RegimeResult,
    average_success,
    block_povm,
    detection_weights,
    omega2_constraint,
    optimal_average,
    optimal_pure,
    optimal_subspace,
    pure_success,
    success_curve_x,
    total_povm,
)
from .spaces import (
    DimensionTable,
    dimension_table,
    mean_density_operators,
    symmetric_basis_2,
    symmetric_projector,
)
