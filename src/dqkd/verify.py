"""Bulk numerical certification of the analytic security identities.

Each check replays one proven identity on freshly sampled valid attacks
(``sample_valid``) and records the worst deviation: the joint-state
entropy is exactly 2 bits, the closed-form spectrum matches brute-force
diagonalization, the diagonal-basis fidelity, by the Gram route, is a
fixed combination of the overlaps, a backward-only eavesdropper sees
nothing (the identity attack's two key blocks are equal), and the
spectrum does not move when the cancelling overlap directions (u and v
together, and the real parts of s and r) are perturbed.

The sampled checks run in one pass over one draw: ``trials`` attacks,
each seeded by its own child seed, together with their neighbours along
the cancelling directions. The seeds go in chunks of ``_SEED_CHUNK``, so
memory stays flat in ``trials``. In a chunk, each draw is an AttackParams,
validated by its constructor. The draws as arrays (``keyrate.attack_rows``)
seed the neighbours' step-halving ladders, and one stacked validation
checks every step of them (``_valid_mask``, ``attack.validate``'s checks
and Gram pivots on arrays). The joint states of the draws and their
neighbours are one ``keyrate.joint_states`` call on the stacked arrays,
one eigensolver call per matrix size, and every check reads its
deviations from that stack. A draw's deviations depend on its seed alone,
so each check's witness, the seed of the first draw that reaches its worst
deviation, replays it by itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .attack import (
    AMPLITUDE_ATOL,
    OVERLAP_ATOL,
    UNITARITY_ATOL,
    AttackParams,
    gram_pivots,
)
from .keyrate import attack_rows, backward_indistinguishability, gram_matrix, joint_states
from .qstate import Ket, von_neumann_entropy
from .rates import be_spectrum_closed_form

JOINT_ENTROPY_ATOL = 1e-9
SPECTRUM_ATOL = 1e-10
IDENTITY_ATOL = 1e-10
BACKWARD_ATOL = 1e-12
# seeds per chunk of _deviations; each chunk's joint states are one stack
_SEED_CHUNK = 64
# rejection bound of sample_valid
DRAW_BUDGET = 10**6


class SamplingBudgetError(RuntimeError):
    """Rejection sampling failed to produce a valid parameter set."""


def _valid_mask(amps: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """attack.validate's verdict on each of k candidates, (k, 4) amplitudes
    and (k, 6) overlaps in the attack_rows layout: its checks, constants,
    order and Gram pivots, each as "not within" so that NaN fails. Each
    check reads only the rows that passed the ones before, so no square
    overflows and no NaN reaches the pivots. A modulus is np.hypot of the
    parts, which rounds as abs does and is inf where abs overflows (np.abs
    of a complex array can round apart from abs)."""
    in_range = (-AMPLITUDE_ATOL <= amps) & (amps <= 1.0 + AMPLITUDE_ATOL)
    rows = np.flatnonzero(in_range.all(axis=1))
    c00, c01, c11, c10 = amps[rows].T
    norms = np.abs([c00**2 + c01**2 - 1.0, c11**2 + c10**2 - 1.0])
    rows = rows[np.all(norms <= AMPLITUDE_ATOL, axis=0)]
    ov = overlaps[rows]
    # an overflowing modulus is inf, and fails; a row past a pivot that is
    # not positive divides by it, and has failed
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fits = np.all(np.hypot(ov.real, ov.imag) <= 1.0 + OVERLAP_ATOL, axis=1)
        rows, ov = rows[fits], ov[fits]
        positive = np.ones(len(rows), dtype=bool)
        for pivot in gram_pivots(*ov.T):
            positive &= pivot > 0.0
    rows = rows[positive]
    c00, c01, c11, c10 = amps[rows].T
    residual = c00 * c10 * overlaps[rows, 1] + c01 * c11 * overlaps[rows, 4]
    rows = rows[np.hypot(residual.real, residual.imag) <= UNITARITY_ATOL]
    ok = np.zeros(len(amps), dtype=bool)
    ok[rows] = True
    return ok


def _unit_vector(rng: np.random.Generator, dim: int) -> Ket:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sample_valid(seed: int | None = None, symmetric: bool = False) -> AttackParams:
    """Draw a random valid attack.

    Three ancilla kets and the amplitudes are drawn freely; <E00|E10> is
    solved from the orthogonality constraint and the fourth ket built to
    realize it, so the Gram matrix is PSD by construction. Draws that leave
    the unit disc are rejected.

    Args:
        seed: seed for the deterministic generator.
        symmetric: force c00 = c11, hence c01 = c10.

    Raises:
        SamplingBudgetError: no valid draw within DRAW_BUDGET tries.
    """
    rng = np.random.default_rng(seed)
    for _ in range(DRAW_BUDGET):
        e00 = _unit_vector(rng, 4)
        e01 = _unit_vector(rng, 4)
        e11 = _unit_vector(rng, 4)
        c00 = rng.uniform(0.0, 1.0)
        c11 = c00 if symmetric else rng.uniform(0.0, 1.0)
        c01 = np.sqrt(1.0 - c00**2)
        c10 = np.sqrt(1.0 - c11**2)
        if c00 * c10 < 1e-6:
            continue
        v = complex(np.vdot(e01, e11))
        u = -(c01 * c11 / (c00 * c10)) * v
        if abs(u) > 1.0 - 1e-9:
            continue
        w = _unit_vector(rng, 4)
        w = w - np.vdot(e00, w) * e00
        norm = np.linalg.norm(w)
        if norm < 1e-6:
            continue
        e10 = u * e00 + np.sqrt(1.0 - abs(u) ** 2) * (w / norm)
        s, p = complex(np.vdot(e00, e01)), complex(np.vdot(e00, e11))
        r, q = complex(np.vdot(e11, e10)), complex(np.vdot(e01, e10))
        amps = float(c00), float(c01), float(c11), float(c10)
        return AttackParams(*amps, s, complex(u), p, r, v, q)
    raise SamplingBudgetError(f"no valid draw within {DRAW_BUDGET} iterations")


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


def _neighbors(amps: np.ndarray, overlaps: np.ndarray, seeds: list[int]) -> tuple[np.ndarray, ...]:
    """Valid neighbours of each attack along the spectrum-cancelling directions.

    Each move (u and v together, Re s, Re r) starts at a step of 0.05 and
    halves it after each invalid attempt, trying at most 14 steps; the
    phase of the u-v move is drawn from default_rng([seed, 1]). All 14
    steps of every move are validated in one stack, and each move keeps its
    first valid step. Returns the neighbours' amplitudes and overlaps, by
    attack and then by move, and the index of each one's attack."""
    phase = np.array([np.exp(2j * np.pi * np.random.default_rng([s, 1]).random()) for s in seeds])
    c00, c01, c11, c10 = amps.T
    has_uv = c01 * c11 > 1e-9
    ratio = -(c00 * c10) / np.where(has_uv, c01 * c11, 1.0)
    # the moves as (attack, kind): kind 0 moves u and v, 1 Re s and 2 Re r
    owner, kind = np.nonzero(np.column_stack([has_uv, np.ones((len(amps), 2), dtype=bool)]))
    # row j * moves + k tries move k at step j
    moves = len(owner)
    i, m = np.tile(owner, 14), np.tile(kind, 14)
    delta = np.repeat(0.05 * 0.5 ** np.arange(14), moves)
    step = overlaps[i]
    uv = m == 0
    step[uv, 1] += delta[uv] * phase[i[uv]]
    step[uv, 4] = ratio[i[uv]] * step[uv, 1]
    step[m == 1, 0] += delta[m == 1]
    step[m == 2, 3] += delta[m == 2]
    ok = _valid_mask(amps[i], step).reshape(14, moves)
    kept = np.flatnonzero(ok.any(axis=0))
    rows = ok[:, kept].argmax(axis=0) * moves + kept
    return amps[i[rows]], step[rows], owner[kept]


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
    """_deviations of one chunk: one stacked ladder and joint-state pass."""
    attacks = [sample_valid(s, bool(s % 2)) for s in seeds]
    rows = attack_rows(attacks)
    *near, owner = _neighbors(*rows, seeds)
    # one stack: the draws, then their neighbours
    states = joint_states(*(np.concatenate(pair) for pair in zip(rows, near)))
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
