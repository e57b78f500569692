"""Bulk numerical certification of the analytic security identities.

Each row of ``CHECKS`` replays one proven identity on freshly sampled
valid attacks (``sample_valid``) and records the worst deviation: each
attack's Choi state is a channel's (Tr_Q rho_RQ = I/2 and rho_RQ >= 0),
the closed-form spectrum matches brute-force diagonalization, f+ and f-
by the Gram route match forward_fidelities, and the upper bound's chain
(rates.bound_certificate) holds term by term. A last, unsampled line
checks that a backward-only eavesdropper sees nothing (the identity
attack's two key blocks are equal).

The paper's claim that the spectrum ignores the cancelling overlap
directions (u and v together, Re s and Re r) has no row: the closed form
reads none of them, and the acceptance test
test_spectrum_ignores_the_cancelled_overlap_components checks it by brute
force, with a positive control.

Each draw comes with one edge neighbour (``_edge``): Re s stepped by the
largest step of a halving ladder from 0.05 that validation accepts. The
draws are interior, but about 7 % of the neighbours stop within a factor
of two of the validator's boundary, so the channel row tests validation
where it is tight; edge variants pushed to each validation slack may
later replace them. The seeds go in chunks of ``_SEED_CHUNK``, so memory
stays flat in ``trials``; a chunk's draws and neighbours make one
``keyrate.choi_states`` call and one ``keyrate.omega_states`` call,
whose validated spectra are rho_be's nonzero eigenvalues. A draw whose
bound certificate cannot be evaluated reads NaN, so a fault that the
validators let through fails lines; one that omega's validation rejects
(not Hermitian, or a trace off 1) raises its typed error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attack import (
    AMPLITUDE_ATOL,
    OVERLAP_ATOL,
    UNITARITY_ATOL,
    AttackParams,
    AttackValidationError,
    forward_fidelities,
)
from .keyrate import backward_indistinguishability, choi_states, omega_states
from .rates import PSD_SLACK, be_spectrum_closed_form, bound_certificate

# seeds per chunk of _deviations; each chunk's attacks are one stack
_SEED_CHUNK = 64
# rejection bound of sample_valid
DRAW_BUDGET = 10**6


class SamplingBudgetError(RuntimeError):
    """Rejection sampling failed to produce a valid parameter set."""


def _dot(a: list[float], b: list[float]) -> float:
    """Re <a|b> of two kets held as their four real parts, then their four
    imaginary parts: eight products summed left to right."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4 + a5 * b5 + a6 * b6 + a7 * b7


def _vdot(a: list[float], b: list[float]) -> complex:
    """<a|b> of two kets held as _dot's, in a fixed order of float operations."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    im = a0 * b4 + a1 * b5 + a2 * b6 + a3 * b7 - a4 * b0 - a5 * b1 - a6 * b2 - a7 * b3
    return complex(_dot(a, b), im)


def _unit(a: list[float]) -> list[float]:
    norm = math.sqrt(_dot(a, a))
    return [x / norm for x in a]


def _times(c: complex, a: list[float]) -> list[float]:
    """c |a>, for a ket held as _dot's."""
    cr, ci = c.real, c.imag
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    return [cr * a0 - ci * a4, cr * a1 - ci * a5, cr * a2 - ci * a6, cr * a3 - ci * a7,
            cr * a4 + ci * a0, cr * a5 + ci * a1, cr * a6 + ci * a2, cr * a7 + ci * a3]


def sample_valid(seed: int, symmetric: bool = False) -> AttackParams:
    """Draw a random valid attack.

    Three ancilla kets and the amplitudes are drawn freely; <E00|E10> is
    solved from the orthogonality constraint and the fourth ket built to
    realize it, so the Gram matrix is PSD by construction. Draws that leave
    the unit disc are rejected. Every norm and inner product is a fixed
    sequence of Python float operations on real and imaginary parts, so a
    draw's bits depend on its seed and the generator's streams alone, not
    on the BLAS kernel.

    Args:
        seed: seed for the deterministic generator, required: the draw
            depends on it alone.
        symmetric: force c00 = c11, hence c01 = c10.

    Raises:
        SamplingBudgetError: no valid draw within DRAW_BUDGET tries.
    """
    rng = np.random.default_rng(seed)
    for _ in range(DRAW_BUDGET):
        # the real, then imaginary, parts of e00, e01 and e11 in turn
        z = rng.standard_normal(24).tolist()
        e00, e01, e11 = _unit(z[:8]), _unit(z[8:16]), _unit(z[16:])
        c00 = rng.random()
        c11 = c00 if symmetric else rng.random()
        c01 = math.sqrt(1.0 - c00 * c00)
        c10 = math.sqrt(1.0 - c11 * c11)
        if c00 * c10 < 1e-6:
            continue
        v = _vdot(e01, e11)
        ratio = -(c01 * c11 / (c00 * c10))
        u = complex(ratio * v.real, ratio * v.imag)
        modulus = math.sqrt(u.real * u.real + u.imag * u.imag)
        if modulus > 1.0 - 1e-9:
            continue
        w = _unit(rng.standard_normal(8).tolist())
        w = [x - y for x, y in zip(w, _times(_vdot(e00, w), e00))]
        norm = math.sqrt(_dot(w, w))
        if norm < 1e-6:
            continue
        t = math.sqrt(1.0 - modulus * modulus)
        e10 = [x + t * (y / norm) for x, y in zip(_times(u, e00), w)]
        s, p = _vdot(e00, e01), _vdot(e00, e11)
        r, q = _vdot(e11, e10), _vdot(e01, e10)
        return AttackParams(c00, c01, c11, c10, s, u, p, r, v, q)
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
    return np.random.default_rng(seed).integers(0, 2**63, size=count).tolist()


def _edge(attack: AttackParams) -> AttackParams:
    """The attack with Re s + 0.05 * 0.5**j, for the first j < 14 that the
    AttackParams constructor accepts (else the attack itself): the draw's
    closed form, within a factor 2 of the valid set's edge when j > 0."""
    c00, c01, c11, c10, s, u, p, r, v, q = attack
    for j in range(14):
        try:
            return AttackParams(c00, c01, c11, c10, s + 0.05 * 0.5**j, u, p, r, v, q)
        except AttackValidationError:
            continue
    return attack


def _gram_fidelities(a: AttackParams) -> tuple[float, float]:
    """f+ and f- by the Gram route, a reference independent of
    forward_fidelities: w^+ G w / 4, G the Gram matrix of (|E00>, |E01>,
    |E11>, |E10>), for the (+,+,+,+) and (+,-,+,-) signed amplitudes w,
    each an fsum of the sixteen real products w_i Re G_ij w_j, so its bits
    depend on no summation order or memory layout. Re G is read off the
    attack's own overlaps, laid out as keyrate's _GRAM_TABLE, with rows
    (1, s, p, u), (s, 1, v, q), (p, v, 1, r) and (u, q, r, 1)."""
    c00, c01, c11, c10, s, u, p, r, v, q = a
    s, u, p, r, v, q = s.real, u.real, p.real, r.real, v.real, q.real

    def form(w0: float, w1: float, w2: float, w3: float) -> float:
        # w_i * 1.0 is w_i exactly, so each diagonal product is w_i * w_i
        return math.fsum([
            w0 * w0, w0 * s * w1, w0 * p * w2, w0 * u * w3,
            w1 * s * w0, w1 * w1, w1 * v * w2, w1 * q * w3,
            w2 * p * w0, w2 * v * w1, w2 * w2, w2 * r * w3,
            w3 * u * w0, w3 * q * w1, w3 * r * w2, w3 * w3,
        ]) / 4.0

    return form(c00, c01, c11, c10), form(c00, -c01, c11, -c10)


class _Stack:
    """One chunk: k draws, then the edge neighbour of each; the Choi state
    of every attack, from one choi_states, and the spectrum of its omega."""

    def __init__(self, seeds: list[int]):
        draws = [sample_valid(s, bool(s % 2)) for s in seeds]
        self.attacks = draws + [_edge(a) for a in draws]
        self.k = len(draws)
        self.choi = choi_states(self.attacks)
        self.spectra = omega_states(self.choi)[1]

    def read(self) -> list[np.ndarray]:
        """Every row of CHECKS, in order, read on this stack."""
        return [deviation(self) for _, _, deviation in CHECKS]

    def _worst_row(self, rows: np.ndarray) -> np.ndarray:
        """Each draw's worst of its two rows: its own and its neighbour's."""
        return np.maximum(rows[: self.k], rows[self.k :])

    def channel(self) -> np.ndarray:
        """A draw's worst row of max |Tr_Q rho - I/2| and -lambda_min(rho)."""
        choi = self.choi
        marginal = choi.reshape(len(choi), 2, 2, 2, 2).trace(axis1=2, axis2=4)
        traced = np.max(np.abs(marginal - 0.5 * np.eye(2)), axis=(1, 2))
        return self._worst_row(np.maximum(traced, -np.linalg.eigvalsh(choi)[:, 0]))

    def closed_form(self) -> np.ndarray:
        """The closed form against omega's spectrum: a draw's worst row."""
        closed = [be_spectrum_closed_form(a).spectrum() for a in self.attacks]
        # sorted again: near a tie, the rounding of spectrum() can reorder its entries
        return self._worst_row(np.max(np.abs(np.sort(closed)[:, ::-1] - self.spectra), axis=1))

    def diagonal(self) -> np.ndarray:
        """f+ and f- by the Gram route, each against forward_fidelities."""
        pairs = [(forward_fidelities(a), _gram_fidelities(a)) for a in self.attacks[: self.k]]
        return np.max(np.abs([(p - f.fplus, m - f.fminus) for f, (p, m) in pairs]), axis=1)

    def bound(self) -> np.ndarray:
        """How far each draw's BoundCertificate misses its chain: a term or
        the majorization gap below its floor, or six terms that do not sum
        to D1 - (2 xi - 1). The defect term has no floor. A draw whose
        certificate raises ValueError, a fidelity outside [0, 1], reads NaN,
        so its check fails with that draw as witness."""
        misses = []
        for a in self.attacks[: self.k]:
            try:
                cert = bound_certificate(a)
            except ValueError:
                misses.append((math.nan,) * 7)
                continue
            t = cert.terms
            overlap_floor = -2.0 * a.c01 * a.c10 * OVERLAP_ATOL
            closure = abs(math.fsum(t) - (cert.delta1 - (2.0 * cert.xi - 1.0)))
            misses.append((-t[0], -t[1], -t[2], -t[3], overlap_floor - t[4], -cert.gap, closure))
        return np.max(misses, axis=1)


# every sampled check: its name, its tolerance, and the _Stack method reading it per draw.
# The channel row's: the diagonal of Tr_Q rho_RQ is (c00^2 + c01^2)/2 and (c10^2 +
# c11^2)/2, within AMPLITUDE_ATOL/2 of 1/2, and its off-diagonal is conj(c00 c10 u +
# c01 c11 v)/2, within UNITARITY_ATOL/2 of 0. rho_RQ = D G^T D / 2 with D the diagonal
# of amplitudes, each at most sqrt(1 + AMPLITUDE_ATOL), and G's eigenvalues above
# PSD_SLACK, so lambda_min(rho_RQ) >= PSD_SLACK (1 + AMPLITUDE_ATOL)/2. So
# (|PSD_SLACK| + AMPLITUDE_ATOL + UNITARITY_ATOL)/2 = 5.1e-11 bounds both, with about
# (AMPLITUDE_ATOL + UNITARITY_ATOL)/2 to spare for rounding
CHECKS = (
    ("choi-channel", 0.5 * (abs(PSD_SLACK) + AMPLITUDE_ATOL + UNITARITY_ATOL), _Stack.channel),
    ("closed-form-spectrum", 1e-10, _Stack.closed_form),
    ("diagonal-fidelity-identity", 1e-10, _Stack.diagonal),
    ("general-attack-bound", 1e-12, _Stack.bound),
)


def _deviations(seeds: list[int]) -> dict[str, np.ndarray]:
    """Every sampled check's deviation at each seed, keyed by check name.

    Seed s draws sample_valid(s, symmetric=bool(s % 2)) and its neighbour.
    The seeds run in chunks of _SEED_CHUNK, one _Stack at a time, whose
    steps treat each entry alone, so entry i depends on seeds[i] only and
    _deviations([seeds[i]]) replays it bit for bit.
    """
    parts = [_Stack(seeds[i : i + _SEED_CHUNK]).read() for i in range(0, len(seeds), _SEED_CHUNK)]
    return {name: np.concatenate(devs) for (name, _, _), devs in zip(CHECKS, zip(*parts))}


def _worst(name: str, tolerance: float, deviations: dict, seeds: list[int]) -> VerificationCheck:
    """The check's largest deviation, a NaN first, and the first seed reaching it."""
    devs = deviations[name]
    i = int(np.argmax(devs))  # the first NaN, if there is one
    return VerificationCheck(name, len(seeds), float(devs[i]), tolerance, seeds[i])


def run_verification(trials: int = 200, seed: int = 0) -> VerificationReport:
    """Run every row of CHECKS on `trials` sampled attacks, then the backward line.

    Deterministic for fixed (trials, seed). Returns per-check worst
    deviations and their witness seeds against the tolerances of CHECKS,
    in its order, and the unsampled backward line last.

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
    checks = [_worst(name, tol, devs, seeds) for name, tol, _ in CHECKS]
    # backward-only eavesdropping sees identical encodings: one unsampled trial
    backward = backward_indistinguishability()
    checks.append(VerificationCheck("backward-indistinguishability", 1, backward, 1e-12))
    return VerificationReport(checks=tuple(checks))
