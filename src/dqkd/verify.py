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
memory stays flat in ``trials``. Every attack in a chunk, draw or
neighbour, is an AttackParams, validated by its constructor: each draw
has three neighbours, one per move, whose step-halving ladder keeps the
first step the constructor accepts, and a move with no valid step
contributes the draw itself. The joint states of the draws and their
neighbours are one ``keyrate.joint_states`` call on the list of them, one
eigensolver call per matrix size, and every check reads its deviations
from that stack. A draw's deviations depend on its seed alone, so each
check's witness, the seed of the first draw that reaches its worst
deviation, replays it by itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .attack import AttackParams, AttackValidationError
from .keyrate import backward_indistinguishability, gram_matrix, joint_states
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


def _unit_vector(rng: np.random.Generator, dim: int) -> Ket:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sample_valid(seed: int, symmetric: bool = False) -> AttackParams:
    """Draw a random valid attack.

    Three ancilla kets and the amplitudes are drawn freely; <E00|E10> is
    solved from the orthogonality constraint and the fourth ket built to
    realize it, so the Gram matrix is PSD by construction. Draws that leave
    the unit disc are rejected.

    Args:
        seed: seed for the deterministic generator, required: the draw
            depends on it alone.
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


def _neighbors(attack: AttackParams, seed: int) -> list[AttackParams]:
    """Three valid neighbours of an attack along spectrum-cancelling directions.

    Each move (u and v together, then Re s, then Re r) starts at a step of
    0.05 and halves it after each step the AttackParams constructor
    rejects, trying at most 14 steps, and keeps its first valid one. A move
    with no valid step contributes the attack itself, and so does the u-v
    move when c01 c11 vanishes; either way its deviation is exactly 0. The
    phase of the u-v move is drawn from default_rng([seed, 1]).
    """

    def step(move) -> AttackParams:
        for j in range(14):
            try:
                return replace(attack, **move(0.05 * 0.5**j))
            except AttackValidationError:
                continue
        return attack

    near = [attack]  # the u-v move's stand-in when c01 c11 vanishes
    if attack.c01 * attack.c11 > 1e-9:
        phase = complex(np.exp(2j * np.pi * np.random.default_rng([seed, 1]).random()))
        ratio = -(attack.c00 * attack.c10) / (attack.c01 * attack.c11)

        def uv(d: float) -> dict[str, complex]:
            w = attack.u + d * phase
            return {"u": w, "v": ratio * w}

        near = [step(uv)]
    return near + [step(lambda d: {"s": attack.s + d}), step(lambda d: {"r": attack.r + d})]


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
    """_deviations of one chunk: one stacked joint-state pass."""
    attacks = [sample_valid(s, bool(s % 2)) for s in seeds]
    near = [n for a, s in zip(attacks, seeds) for n in _neighbors(a, s)]
    # one stack: the draws, then their neighbours, three to a draw
    states = joint_states(attacks + near)
    k = len(attacks)
    spectra = np.array([b.rho_be.spectrum() for b in states])
    # the closed form's four nonzero eigenvalues and four zeros
    closed = [be_spectrum_closed_form(a).spectrum() + (0.0,) * 4 for a in attacks]
    # each neighbour's spectrum against the spectrum of its own draw
    insensitivity = np.max(np.abs(spectra[k:].reshape(k, 3, 8) - spectra[:k, None]), axis=(1, 2))
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
