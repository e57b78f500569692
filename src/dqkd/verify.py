"""Bulk numerical certification of the analytic security identities.

Each check replays one proven identity on freshly sampled valid attacks
and records the worst deviation: the joint-state entropy is exactly 2
bits, the closed-form spectrum matches brute-force diagonalization, the
diagonal-basis fidelity, by the Gram route, is a fixed combination of the
overlaps, a backward-only eavesdropper sees nothing (the identity attack's
two key blocks are equal), and the spectrum does not move when the
cancelling overlap directions (u and v together, and the real parts of s
and r) are perturbed.

The sampled checks run in one pass over one draw: ``trials`` attacks,
each seeded by its own child seed, together with their neighbours along
the cancelling directions. The seeds go in chunks of ``_SEED_CHUNK``, so
memory stays flat in ``trials``. In a chunk, one stacked validation checks
all draws and one checks each round of the neighbours' step-halving
ladders; the joint states of all of them are one ``keyrate.joint_states``
call, one eigensolver call per matrix size, and every check reads its
deviations from that stack. A draw's deviations depend on its seed alone,
so each check's witness, the seed of the first draw that reaches its worst
deviation, replays it by itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .attack import AttackParams, _attack_batch, _draw, _valid_attacks, gram_matrix
from .keyrate import backward_indistinguishability, be_spectrum_closed_form, joint_states
from .qstate import von_neumann_entropy

JOINT_ENTROPY_ATOL = 1e-9
SPECTRUM_ATOL = 1e-10
IDENTITY_ATOL = 1e-10
BACKWARD_ATOL = 1e-12
# seeds per chunk of _deviations; each chunk's joint states are one stack
_SEED_CHUNK = 64


@dataclass(frozen=True)
class VerificationCheck:
    """One identity's worst deviation against its tolerance.

    Attributes:
        witness_seed: child seed of the first draw that reaches
            max_deviation, replayed by sample_valid(witness_seed,
            symmetric=bool(witness_seed % 2)); None for an unsampled check.
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


def _neighbors(amps: np.ndarray, overlaps: np.ndarray, seeds: list[int]) -> tuple[list, np.ndarray]:
    """Valid neighbours of each attack along the spectrum-cancelling directions.

    Each move (u and v together, Re s, Re r) starts at a step of 0.05 and
    halves it after each invalid attempt, trying at most 14 steps; the
    phase of the u-v move is drawn from default_rng([seed, 1]). Each round
    validates the pending moves of all attacks in one stack, and a move
    stops at its first valid step. Returns the neighbours, by attack and
    then by move, and the index of each one's attack.
    """
    phase = np.array([np.exp(2j * np.pi * np.random.default_rng([s, 1]).random()) for s in seeds])
    c00, c01, c11, c10 = amps.T
    has_uv = c01 * c11 > 1e-9
    ratio = -(c00 * c10) / np.where(has_uv, c01 * c11, 1.0)
    # the moves as (attack, kind): kind 0 moves u and v, 1 Re s and 2 Re r
    owner, kind = np.nonzero(np.column_stack([has_uv, np.ones((len(amps), 2), dtype=bool)]))
    found = {}
    pending = np.arange(len(owner))
    for delta in 0.05 * 0.5 ** np.arange(14):
        if not len(pending):
            break
        i, m = owner[pending], kind[pending]
        step = overlaps[i]
        uv = m == 0
        step[uv, 1] += delta * phase[i[uv]]
        step[uv, 4] = ratio[i[uv]] * step[uv, 1]
        step[m == 1, 0] += delta
        step[m == 2, 3] += delta
        ok, valid = _valid_attacks(amps[i], step)
        found.update(zip(pending[ok].tolist(), valid))
        pending = pending[~ok]
    kept = sorted(found)
    return [found[j] for j in kept], owner[kept]


def _gram_fpm(a: AttackParams) -> float:
    """fpm by the Gram route, a reference independent of forward_fidelities:
    w^+ G w / 4 for the (+,+,+,+) and (+,-,+,-) signed amplitudes w."""
    g = gram_matrix(a)
    amps = (a.c00, a.c01, a.c11, a.c10)
    fids = []
    for signs in ((1, 1, 1, 1), (1, -1, 1, -1)):
        w = np.array([sign * c for sign, c in zip(signs, amps)], dtype=complex)
        fids.append(float(np.real(np.conjugate(w) @ g @ w)) / 4.0)
    return 0.5 * (fids[0] + fids[1])


def _deviations(seeds: list[int]) -> dict[str, np.ndarray]:
    """Every sampled identity's deviation at each seed, keyed by check name.

    Seed s draws the attack sample_valid(s, symmetric=bool(s % 2)) and its
    neighbours. The seeds run in chunks of _SEED_CHUNK, the joint states of
    a chunk's attacks and neighbours are one stack, and each stacked step
    treats each entry alone, so entry i depends on seeds[i] only and
    _deviations([seeds[i]]) replays it bit for bit.
    """
    starts = range(0, len(seeds), _SEED_CHUNK)
    parts = [_chunk_deviations(seeds[i : i + _SEED_CHUNK]) for i in starts]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _chunk_deviations(seeds: list[int]) -> dict[str, np.ndarray]:
    """_deviations of one chunk: one stacked draw, ladder and joint-state pass."""
    draws = np.array([_draw(s, bool(s % 2)) for s in seeds], dtype=complex)
    amps, overlaps = draws[:, :4].real, draws[:, 4:]
    attacks = _attack_batch(amps, overlaps)
    near, owner = _neighbors(amps, overlaps, seeds)
    states = joint_states(attacks + near)
    k = len(attacks)
    spectra = np.array([b.rho_be.spectrum() for b in states])
    # the closed form's four nonzero eigenvalues and four zeros
    closed = [np.append(be_spectrum_closed_form(a).spectrum(), [0.0] * 4) for a in attacks]
    # each neighbour's spectrum against the spectrum of its own base attack
    insensitivity = np.zeros(k)
    np.maximum.at(insensitivity, owner, np.max(np.abs(spectra[k:] - spectra[owner]), axis=1))
    return {
        # the joint-state entropy is exactly two bits, symmetric or not
        "joint-entropy-two-bits": np.array(
            [abs(von_neumann_entropy(b.rho_abe) - 2.0) for b in states[:k]]
        ),
        # the closed-form spectrum against brute force, symmetric or not
        "closed-form-spectrum": np.max(np.abs(np.sort(closed)[:, ::-1] - spectra[:k]), axis=1),
        # fpm = (1 + c00 c11 p0 + c01 c10 q0) / 2, any valid attack
        "diagonal-fidelity-identity": np.array([
            abs(_gram_fpm(a) - 0.5 * (1.0 + a.c00 * a.c11 * a.p.real + a.c01 * a.c10 * a.q.real))
            for a in attacks
        ]),
        # the spectrum is flat along the cancelling overlap directions
        "overlap-insensitivity": insensitivity,
    }


def _worst(name: str, tolerance: float, deviations: dict, seeds: list[int]) -> VerificationCheck:
    """The check's largest deviation, a NaN first, and the first seed reaching it."""
    devs = deviations[name]
    i = int(np.argmax(devs))  # the first NaN, if there is one
    return VerificationCheck(name, len(seeds), float(devs[i]), tolerance, seeds[i])


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
    seeds = _child_seeds(_child_seeds(seed, 1)[0], trials)
    devs = _deviations(seeds)
    return VerificationReport(
        checks=(
            _worst("joint-entropy-two-bits", JOINT_ENTROPY_ATOL, devs, seeds),
            _worst("closed-form-spectrum", SPECTRUM_ATOL, devs, seeds),
            _worst("diagonal-fidelity-identity", IDENTITY_ATOL, devs, seeds),
            # backward-only eavesdropping sees identical encodings
            VerificationCheck(
                "backward-indistinguishability", 1, backward_indistinguishability(), BACKWARD_ATOL
            ),
            _worst("overlap-insensitivity", SPECTRUM_ATOL, devs, seeds),
        )
    )
