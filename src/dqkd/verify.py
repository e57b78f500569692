"""Bulk numerical certification of the analytic security identities.

Each check replays one proven identity on freshly sampled valid attacks
and records the worst deviation: the joint-state entropy is exactly 2
bits, the closed-form spectrum matches brute-force diagonalization, the
diagonal-basis fidelity is a fixed combination of the overlaps, a
backward-only eavesdropper sees nothing, and the spectrum does not move
when the cancelling overlap directions (u and v together, and the real
parts of s and r) are perturbed.

A check runs in one stacked pass: it draws all of its attacks first, and
a check that needs joint states builds them for every attack (for the
insensitivity check, every base attack and all its neighbours) with one
``keyrate.joint_states`` call, that is one eigensolver call per matrix
size. Each check also names its witness, the child seed of the first draw
that reaches the worst deviation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .attack import AttackParams, AttackValidationError, forward_fidelities, sample_valid
from .keyrate import backward_indistinguishability, be_spectrum_closed_form, joint_states
from .qstate import von_neumann_entropy

JOINT_ENTROPY_ATOL = 1e-9
SPECTRUM_ATOL = 1e-10
IDENTITY_ATOL = 1e-10
BACKWARD_ATOL = 1e-12


@dataclass(frozen=True)
class VerificationCheck:
    """One identity's worst deviation against its tolerance.

    Attributes:
        witness_seed: child seed of the first draw that reaches
            max_deviation, replayed by sample_valid(witness_seed,
            symmetric=bool(witness_seed % 2)); for the insensitivity check
            the base draw; None for an unsampled check.
    """

    name: str
    trials: int
    max_deviation: float
    tolerance: float
    witness_seed: int | None = None

    @property
    def passed(self) -> bool:
        """False when the deviation exceeds the tolerance or is NaN."""
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


def _worst(child_seed: int, trials: int, deviations) -> tuple[float, int]:
    """Largest deviation over `trials` attacks drawn from child_seed, and its seed.

    deviations maps the list of drawn attacks to one deviation per attack.
    A NaN deviation counts as the largest, so it fails its check; the
    witness is the seed of the first draw that reaches the maximum.
    """
    seeds = _child_seeds(child_seed, trials)
    devs = np.asarray(
        deviations([sample_valid(s, symmetric=bool(s % 2)) for s in seeds]), dtype=float
    )
    i = int(np.argmax(devs))  # the first NaN, if there is one
    return float(devs[i]), seeds[i]


def _joint_entropy(attacks: list[AttackParams]) -> list[float]:
    """The joint-state entropy is exactly two bits, symmetric or not."""
    return [abs(von_neumann_entropy(b.rho_abe) - 2.0) for b in joint_states(attacks)]


def _closed_form_spectrum(attacks: list[AttackParams]) -> list[float]:
    """The closed-form spectrum against brute force, symmetric or not."""
    devs = []
    for params, bundle in zip(attacks, joint_states(attacks)):
        closed = np.sort(
            np.concatenate([be_spectrum_closed_form(params).spectrum(), np.zeros(4)])
        )[::-1]
        devs.append(float(np.max(np.abs(closed - bundle.rho_be.spectrum()))))
    return devs


def _diagonal_fidelity(attacks: list[AttackParams]) -> list[float]:
    """fpm = (1 + c00 c11 p0 + c01 c10 q0) / 2, any valid attack."""
    return [
        abs(
            forward_fidelities(a).fpm
            - 0.5 * (1.0 + a.c00 * a.c11 * a.p.real + a.c01 * a.c10 * a.q.real)
        )
        for a in attacks
    ]


def _neighbors(params: AttackParams, rng: np.random.Generator) -> list[AttackParams]:
    """Valid neighbors of params along the spectrum-cancelling directions.

    Each move (u and v together, Re s, Re r) starts at a step of 0.05 and
    halves it after each invalid attempt, trying at most 14 steps. Each
    call draws one number from rng, the phase of the u-v move.
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


def _insensitivity(rng: np.random.Generator, attacks: list[AttackParams]) -> list[float]:
    """The spectrum is flat along the cancelling overlap directions.

    The neighbours of each base attack are drawn in order, and every base
    state is built in one stack with all the neighbours.
    """
    neighbors = [_neighbors(params, rng) for params in attacks]
    moved = [m for near in neighbors for m in near]
    spectra = [b.rho_be.spectrum() for b in joint_states(attacks + moved)]
    devs, j = [], len(attacks)
    for base, near in zip(spectra, neighbors):
        devs.append(
            max((float(np.max(np.abs(base - m))) for m in spectra[j : j + len(near)]), default=0.0)
        )
        j += len(near)
    return devs


def run_verification(trials: int = 200, seed: int = 0) -> VerificationReport:
    """Run every certified identity on `trials` sampled attacks.

    Deterministic for fixed (trials, seed). Returns per-check worst
    deviations and their witness seeds against the library's declared
    tolerances.

    Raises:
        TypeError: trials or seed is not an integer (a bool included).
        ValueError: trials below 1 or seed negative.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be non-negative")
    seeds = _child_seeds(seed, 5)

    def sampled(name: str, child_seed: int, deviations, tolerance: float) -> VerificationCheck:
        worst, witness = _worst(child_seed, trials, deviations)
        return VerificationCheck(name, trials, worst, tolerance, witness)

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
