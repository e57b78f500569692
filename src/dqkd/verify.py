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

import numpy as np

from .attack import (
    AttackParams,
    AttackValidationError,
    forward_fidelities,
    sample_valid,
)
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


def _perturbed_insensitive(
    params: AttackParams, rng: np.random.Generator
) -> list[tuple[str, AttackParams]]:
    """Valid neighbors of params along the spectrum-cancelling directions."""
    out: list[tuple[str, AttackParams]] = []
    phase = np.exp(2j * np.pi * rng.random())

    def try_shrinking(name: str, make) -> None:
        delta = 0.05
        for _ in range(14):
            try:
                candidate = make(delta)
            except AttackValidationError:
                delta /= 2.0
                continue
            out.append((name, candidate))
            return

    if params.c01 * params.c11 > 1e-9:
        ratio = -(params.c00 * params.c10) / (params.c01 * params.c11)

        def move_u(delta: float) -> AttackParams:
            u = params.u + delta * phase
            return replace(params, u=u, v=ratio * u)

        try_shrinking("u-and-v", move_u)

    def move_real(name: str):
        def make(delta: float) -> AttackParams:
            return replace(params, **{name: complex(getattr(params, name)) + delta})

        return make

    try_shrinking("s-real", move_real("s"))
    try_shrinking("r-real", move_real("r"))
    return out


def run_verification(trials: int = 200, seed: int = 0) -> VerificationReport:
    """Run every certified identity on `trials` sampled attacks.

    Deterministic for fixed (trials, seed). Returns per-check worst
    deviations against the library's declared tolerances.
    """
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")
    seeds = _child_seeds(seed, 5)
    checks: list[VerificationCheck] = []

    # joint-state entropy is exactly two bits, symmetric or not
    dev = 0.0
    for s in _child_seeds(seeds[0], trials):
        params = sample_valid(s, symmetric=bool(s % 2))
        entropy = von_neumann_entropy(build_rho_abe(params).rho_abe)
        dev = max(dev, abs(entropy - 2.0))
    checks.append(
        VerificationCheck(
            name="joint-entropy-two-bits",
            trials=trials,
            max_deviation=dev,
            tolerance=JOINT_ENTROPY_ATOL,
        )
    )

    # closed-form spectrum against brute force, symmetric or not
    dev = 0.0
    for s in _child_seeds(seeds[1], trials):
        params = sample_valid(s, symmetric=bool(s % 2))
        closed = np.sort(
            np.concatenate([be_spectrum_closed_form(params).spectrum(), np.zeros(4)])
        )[::-1]
        dev = max(dev, float(np.max(np.abs(closed - _be_spectrum(params)))))
    checks.append(
        VerificationCheck(
            name="closed-form-spectrum",
            trials=trials,
            max_deviation=dev,
            tolerance=SPECTRUM_ATOL,
        )
    )

    # fpm = (1 + c00 c11 p0 + c01 c10 q0) / 2, any valid attack
    dev = 0.0
    for s in _child_seeds(seeds[2], trials):
        params = sample_valid(s, symmetric=bool(s % 2))
        fids = forward_fidelities(params)
        combined = 0.5 * (
            1.0
            + params.c00 * params.c11 * params.p.real
            + params.c01 * params.c10 * params.q.real
        )
        dev = max(dev, abs(fids.fpm - combined))
    checks.append(
        VerificationCheck(
            name="diagonal-fidelity-identity",
            trials=trials,
            max_deviation=dev,
            tolerance=IDENTITY_ATOL,
        )
    )

    # backward-only eavesdropping sees identical encodings
    dev = backward_indistinguishability()
    checks.append(
        VerificationCheck(
            name="backward-indistinguishability",
            trials=1,
            max_deviation=dev,
            tolerance=BACKWARD_ATOL,
        )
    )

    # spectrum is flat along the cancelling overlap directions
    dev = 0.0
    rng = np.random.default_rng(seeds[3])
    for s in _child_seeds(seeds[4], trials):
        params = sample_valid(s, symmetric=bool(s % 2))
        base = _be_spectrum(params)
        for _, moved in _perturbed_insensitive(params, rng):
            dev = max(dev, float(np.max(np.abs(base - _be_spectrum(moved)))))
    checks.append(
        VerificationCheck(
            name="overlap-insensitivity",
            trials=trials,
            max_deviation=dev,
            tolerance=SPECTRUM_ATOL,
        )
    )

    return VerificationReport(checks=tuple(checks))
