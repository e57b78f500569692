"""Security analysis of a four-state deterministic QKD protocol.

The package builds the eavesdropper's most general collective forward
attack, computes the exact joint-state spectra and entropies it induces,
evaluates privacy-amplification and final key rates with the abort rule,
builds the attack that reaches the closed-form entropy maximum, and Monte-Carlo
simulates the full protocol at finite sample sizes.
"""

from .attack import (
    AttackParams,
    AttackValidationError,
    ChannelFidelities,
    branch_vectors,
    forward_fidelities,
    gram_matrix,
    named_attack,
    realize_ancilla,
    sample_valid,
    validate,
)
from .keyrate import (
    BeSpectrumClosedForm,
    BoundaryViolationError,
    JointStateBundle,
    KeyRateReport,
    backward_indistinguishability,
    be_spectrum_closed_form,
    build_rho_abe,
    final_rate,
    joint_states,
    s_be_max,
    s_be_numeric,
)
from .optimizer import FidelityConstraint, OptResult, entropy_objective, maximize_s_be
from .protosim import (
    ProtocolConfig,
    ProtocolStats,
    estimate_with_se,
    run_protocol,
)
from .qstate import (
    DensityMatrix,
    binary_entropy,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "AttackParams",
    "AttackValidationError",
    "BeSpectrumClosedForm",
    "BoundaryViolationError",
    "ChannelFidelities",
    "DensityMatrix",
    "FidelityConstraint",
    "JointStateBundle",
    "KeyRateReport",
    "OptResult",
    "ProtocolConfig",
    "ProtocolStats",
    "backward_indistinguishability",
    "be_spectrum_closed_form",
    "binary_entropy",
    "branch_vectors",
    "build_rho_abe",
    "entropy_objective",
    "estimate_with_se",
    "final_rate",
    "forward_fidelities",
    "gram_matrix",
    "joint_states",
    "maximize_s_be",
    "named_attack",
    "partial_trace",
    "realize_ancilla",
    "run_protocol",
    "s_be_max",
    "s_be_numeric",
    "sample_valid",
    "trace_distance",
    "validate",
    "von_neumann_entropy",
]
