"""Security analysis of a four-state deterministic QKD protocol.

The package builds the eavesdropper's most general collective forward
attack, computes the exact joint-state spectra and entropies it induces,
evaluates privacy-amplification and final key rates with the abort rule,
builds the attack that reaches the closed-form entropy maximum, and Monte-Carlo
simulates the full protocol at finite sample sizes.

Each public name is imported from its module on first access (PEP 562), so
``import dqkd`` loads nothing but this file, and code that reaches only the
scalar layer (the rate formulas, one attack and its closed-form spectrum,
the maximizer) never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "attack": (
            "AttackParams", "AttackValidationError", "ChannelFidelities", "forward_fidelities",
            "named_attack", "validate",
        ),
        "keyrate": (
            "JointStateBundle", "attack_rows", "backward_indistinguishability", "be_stack",
            "be_states", "build_rho_abe", "choi_states", "joint_states", "omega_states",
            "realize_ancilla", "s_be_numeric",
        ),
        "optimizer": ("FidelityConstraint", "OptResult", "entropy_objective", "maximize_s_be"),
        "protosim": ("ProtocolConfig", "ProtocolStats", "estimate_with_se", "run_protocol"),
        "qstate": ("DensityMatrix", "partial_trace", "trace_distance", "von_neumann_entropy"),
        "rates": (
            "BeSpectrumClosedForm", "BoundaryViolationError", "KeyRateReport",
            "be_spectrum_closed_form", "binary_entropy", "final_rate", "s_be_max",
        ),
        "verify": ("sample_valid",),
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
