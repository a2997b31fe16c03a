"""Entanglement-cost calculators for small quantum channels and states."""

from .linalg import (
    DensityMatrix,
    PureState,
    ValidationError,
    haar_isometry,
    herm_eig,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)
from .channels import (
    KrausChannel,
    SchemaError,
    amplitude_damping,
    apply,
    channel_from_json,
    choi,
    dephasing,
    depolarizing,
    identity,
    random_channel,
)
from .entropy import (
    AepCheck,
    ClassicalJoint,
    aep_check,
    binary_h,
    classical_h0_cond,
    classical_joint_from_csv,
    classical_smooth_h0_cond,
    cond_von_neumann,
    h0,
    von_neumann,
)
from .entanglement import (
    Decomposition,
    EofResult,
    OneShotCostBounds,
    concurrence_2q,
    eof_2q,
    eof_cq_conditional,
    eof_numeric,
    eof_pure,
    max_entangled,
    one_shot_cost_bounds,
)
from .cost import (
    ConverseParams,
    Ec1Estimate,
    UNBOUNDED,
    definetti_count_log2,
    dephasing_curves,
    ec1_general,
    ec1_qubit,
    epsnet_size,
    identity_error_bound,
    postselection_factor_log2,
    security_region,
    security_threshold,
    simulation_error,
    strong_converse_error_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
