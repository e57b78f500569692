"""Bulk numerical certification of the analytic security identities.

Each check replays one proven identity on freshly sampled valid attacks
and records the worst deviation: the joint-state entropy is exactly 2
bits, the closed-form spectrum matches brute-force diagonalization, the
diagonal-basis fidelity is a fixed combination of the overlaps, a
backward-only eavesdropper sees nothing, and the spectrum does not move
when the cancelling overlap directions (u and v together, and the real
parts of s and r) are perturbed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .attack import AttackParams, AttackValidationError, forward_fidelities, sample_valid
from .keyrate import backward_indistinguishability, be_spectrum_closed_form, build_rho_abe
from .qstate import von_neumann_entropy

JOINT_ENTROPY_ATOL = 1e-9
SPECTRUM_ATOL = 1e-10
IDENTITY_ATOL = 1e-10
BACKWARD_ATOL = 1e-12


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    trials: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


def _child_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


def _be_spectrum(params: AttackParams) -> np.ndarray:
    return build_rho_abe(params).rho_be.spectrum()


def _worst(child_seed: int, trials: int, deviation) -> float:
    """Largest deviation(params) over `trials` attacks drawn from child_seed."""
    worst = 0.0
    for s in _child_seeds(child_seed, trials):
        worst = max(worst, deviation(sample_valid(s, symmetric=bool(s % 2))))
    return worst


def _joint_entropy(params: AttackParams) -> float:
    """The joint-state entropy is exactly two bits, symmetric or not."""
    return abs(von_neumann_entropy(build_rho_abe(params).rho_abe) - 2.0)


def _closed_form_spectrum(params: AttackParams) -> float:
    """The closed-form spectrum against brute force, symmetric or not."""
    closed = np.sort(
        np.concatenate([be_spectrum_closed_form(params).spectrum(), np.zeros(4)])
    )[::-1]
    return float(np.max(np.abs(closed - _be_spectrum(params))))


def _diagonal_fidelity(params: AttackParams) -> float:
    """fpm = (1 + c00 c11 p0 + c01 c10 q0) / 2, any valid attack."""
    combined = 0.5 * (
        1.0
        + params.c00 * params.c11 * params.p.real
        + params.c01 * params.c10 * params.q.real
    )
    return abs(forward_fidelities(params).fpm - combined)


def _neighbors(params: AttackParams, rng: np.random.Generator) -> list[AttackParams]:
    """Valid neighbors of params along the spectrum-cancelling directions.

    Each move (u and v together, Re s, Re r) starts at a step of 0.05 and
    halves it after each invalid attempt, trying at most 14 steps.
    """
    phase = np.exp(2j * np.pi * rng.random())
    moves = []
    if params.c01 * params.c11 > 1e-9:
        ratio = -(params.c00 * params.c10) / (params.c01 * params.c11)

        def move_u(d: float) -> AttackParams:
            u = params.u + d * phase
            return replace(params, u=u, v=ratio * u)

        moves.append(move_u)
    moves.append(lambda d: replace(params, s=complex(params.s) + d))
    moves.append(lambda d: replace(params, r=complex(params.r) + d))
    out = []
    for move in moves:
        delta = 0.05
        for _ in range(14):
            try:
                out.append(move(delta))
                break
            except AttackValidationError:
                delta /= 2.0
    return out


def _insensitivity(rng: np.random.Generator, params: AttackParams) -> float:
    """The spectrum is flat along the cancelling overlap directions."""
    base = _be_spectrum(params)
    moved = (_be_spectrum(m) for m in _neighbors(params, rng))
    return max((float(np.max(np.abs(base - m))) for m in moved), default=0.0)


def run_verification(trials: int = 200, seed: int = 0) -> VerificationReport:
    """Run every certified identity on `trials` sampled attacks.

    Deterministic for fixed (trials, seed). Returns per-check worst
    deviations against the library's declared tolerances.
    """
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")
    seeds = _child_seeds(seed, 5)

    def sampled(name: str, child_seed: int, deviation, tolerance: float) -> VerificationCheck:
        return VerificationCheck(name, trials, _worst(child_seed, trials, deviation), tolerance)

    insensitivity = partial(_insensitivity, np.random.default_rng(seeds[3]))
    return VerificationReport(
        checks=(
            sampled("joint-entropy-two-bits", seeds[0], _joint_entropy, JOINT_ENTROPY_ATOL),
            sampled("closed-form-spectrum", seeds[1], _closed_form_spectrum, SPECTRUM_ATOL),
            sampled("diagonal-fidelity-identity", seeds[2], _diagonal_fidelity, IDENTITY_ATOL),
            # backward-only eavesdropping sees identical encodings
            VerificationCheck(
                "backward-indistinguishability", 1, backward_indistinguishability(), BACKWARD_ATOL
            ),
            sampled("overlap-insensitivity", seeds[4], insensitivity, SPECTRUM_ATOL),
        )
    )
