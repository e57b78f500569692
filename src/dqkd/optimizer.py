"""The eavesdropper's entropy maximum at fixed observed fidelities.

Observed fidelities pin the amplitudes (c0^2 = f01) and, through the
boundary identity 1 + c0^2 p0 + c1^2 q0 = 2 fpm, one linear combination of
the real overlap parts. Everything else about the attack is free, so the
worst case is the attack maximizing the entropy of the averaged
qubit-ancilla state under that single equality constraint. That attack is
known in closed form: c00 = c11 = sqrt(f01), c01 = c10 = sqrt(1 - f01),
q0 = 1, p0 = (2 fpm - 1 - c1^2)/c0^2, and every other overlap 0. It reaches
the ceiling 1 + h(xi) exactly, so maximize_s_be builds it and scores it
once. The derivative-free search that rediscovers it from a grid and a
simplex is the tests' independent oracle (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .attack import AttackParams, forward_fidelities
from .rates import be_spectrum_closed_form, s_be_max

GAP_TOLERANCE = 1e-5
# how closely the returned maximizer must reproduce the observed fidelities
CONSTRAINT_TOLERANCE = 1e-9


class InfeasibleConstraintError(ValueError):
    """No attack parameters satisfy the fidelity constraint."""


@dataclass(frozen=True)
class FidelityConstraint:
    """Observed fidelities an attack must reproduce.

    Attributes:
        c0sq: computational-basis fidelity f01 (undisturbed probability).
        cppsq: diagonal-basis fidelity fpm.
    """

    c0sq: float
    cppsq: float

    def __post_init__(self) -> None:
        for name, val in (("c0sq", self.c0sq), ("cppsq", self.cppsq)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")

    @property
    def c1sq(self) -> float:
        return 1.0 - self.c0sq

    @property
    def xi(self) -> float:
        return self.cppsq - self.c1sq


@dataclass(frozen=True)
class OptResult:
    """Outcome of one constrained entropy maximization.

    Attributes:
        best_params: the maximizing attack.
        best_entropy: its entropy in bits.
        closed_form_entropy: the analytic maximum 1 + h(xi).
        gap: closed_form_entropy - best_entropy.
        iterations: objective evaluations spent.
        converged: |gap| within the certification tolerance.
    """

    best_params: AttackParams
    best_entropy: float
    closed_form_entropy: float
    gap: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "best_params": self.best_params.to_dict()}


def entropy_objective(params: AttackParams) -> float:
    """Entropy of the averaged qubit-ancilla state, in bits.

    Evaluates the closed-form spectrum, which holds at any amplitudes and
    matches brute-force diagonalization (s_be_numeric) within 1e-10.
    """
    return be_spectrum_closed_form(params).entropy()


def maximize_s_be(constraint: FidelityConstraint, budget: int = 1) -> OptResult:
    """The attack of maximal eavesdropper entropy under a fidelity constraint.

    Builds the analytic maximizer (module docstring) and scores it once with
    entropy_objective. q0 = 1 holds exactly and p0 is solved from the
    boundary identity, so the attack meets the identity at every c1^2.

    Args:
        constraint: observed f01 and fpm the attack must reproduce.
        budget: cap on objective evaluations, >= 1; the maximizer spends one.

    Returns:
        OptResult with the maximizer, its entropy, and the gap to the
        closed-form maximum 1 + h(xi).

    Raises:
        ValueError: budget below 1.
        BoundaryViolationError: constraint lies below the xi >= 1/2 region.
        InfeasibleConstraintError: the maximizer misses the fidelities by
            more than CONSTRAINT_TOLERANCE.
    """
    if budget < 1:
        raise ValueError(f"budget={budget} is below the one evaluation the maximizer spends")
    c0sq, c1sq, cppsq = constraint.c0sq, constraint.c1sq, constraint.cppsq
    # first, so xi >= 1/2 (and with it c0sq >= 1/2) holds before the division
    closed_form = s_be_max(constraint.xi)
    c0, c1 = math.sqrt(c0sq), math.sqrt(c1sq)
    p0 = (2.0 * cppsq - 1.0 - c1sq) / c0sq
    best_params = AttackParams(c00=c0, c01=c1, c11=c0, c10=c1, p=complex(p0), q=1 + 0j)
    best_entropy = entropy_objective(best_params)

    fids = forward_fidelities(best_params)
    if max(abs(fids.f01 - c0sq), abs(fids.fpm - cppsq)) > CONSTRAINT_TOLERANCE:
        raise InfeasibleConstraintError(
            f"maximizer violates the fidelity constraint: {fids.to_dict()}"
        )
    gap = closed_form - best_entropy
    return OptResult(best_params, best_entropy, closed_form, gap, iterations=1,
                     converged=abs(gap) <= GAP_TOLERANCE)
