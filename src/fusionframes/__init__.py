"""Fusion-frame duality, erasure error analysis, and optimal-dual certificates."""

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    coordinate_subspace,
    frobenius_norm,
    full_subspace,
    image_subspace,
    operator_norm,
    orthogonal_complement,
    orthonormal_basis,
    orthonormal_bases,
    projector,
    spd_inv_sqrt,
    spd_inverse,
    subspace_contains,
    subspace_intersection,
    subspace_sum,
    subspaces_equal,
    zero_subspace,
)
from .fusion import (
    FrameClassification,
    FusionFrame,
    canonical_dual,
    classify,
    frame_bounds,
    frame_operator,
    fusion_frame,
    is_nontrivial,
)
from .discrete import (
    DiscreteFrame,
    bridge_dual_to_discrete,
    bridge_fusion_to_discrete,
    compact_nonzero,
    discrete_canonical_dual,
    discrete_frame,
    discrete_frame_operator,
    dual_from_perturbation,
    halving_dual,
    halving_perturbation,
    perturbation_residual,
    synthesis_nullspace,
    verify_discrete_dual,
)
from .duality import (
    DualPair,
    canonical_pair,
    component_preserving_check,
    left_inverse_residual,
    lift_to_component_preserving,
    make_dual_pair,
    reconstruction_matrix,
    verify_dual,
)
from .erasures import (
    ENUMERATION_CAP,
    ErasureMask,
    ErasureReport,
    block_mask,
    discrete_error_operator,
    discrete_worst_case,
    fusion_error_operator,
    fusion_partial_error,
    matrix_norm,
    partial_erasure_error,
    worst_case_error,
)
from .optimality import (
    Certificate,
    certify_canonical_optimal,
    certify_dual_optimal,
    certify_tight_uniform,
    expand_optimal_family,
    parseval_optimal_family,
    probe_duals,
    riesz_bridge_partial_optimal,
    transport_by_unitary,
)

__version__ = "0.1.0"
