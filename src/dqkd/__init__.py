"""Security analysis of a four-state deterministic QKD protocol.

The package builds the eavesdropper's most general collective forward
attack, computes the exact joint-state spectra and entropies it induces,
evaluates privacy-amplification and final key rates with the abort rule,
builds the attack that reaches the closed-form entropy maximum, and Monte-Carlo
simulates the full protocol at finite sample sizes.

Each public name is imported from its module on first access (PEP 562), so
``import dqkd`` loads nothing but this file, and code that reaches only the
scalar rate formulas never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "attack": (
            "AttackParams", "AttackValidationError", "ChannelFidelities", "branch_vectors",
            "forward_fidelities", "gram_matrix", "named_attack", "realize_ancilla",
            "sample_valid", "validate",
        ),
        "keyrate": (
            "BeSpectrumClosedForm", "JointStateBundle", "backward_indistinguishability",
            "be_spectrum_closed_form", "build_rho_abe", "joint_states", "s_be_numeric",
        ),
        "optimizer": ("FidelityConstraint", "OptResult", "entropy_objective", "maximize_s_be"),
        "protosim": ("ProtocolConfig", "ProtocolStats", "estimate_with_se", "run_protocol"),
        "qstate": ("DensityMatrix", "partial_trace", "trace_distance", "von_neumann_entropy"),
        "rates": (
            "BoundaryViolationError", "KeyRateReport", "binary_entropy", "final_rate", "s_be_max",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
