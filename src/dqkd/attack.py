"""Collective forward attacks on the two-way channel.

An eavesdropper couples each travelling qubit to a private ancilla (at most
four-dimensional) with a unitary acting as

    U (|0> ox |E>) = c00 |0> ox |E00> + c01 |1> ox |E01>
    U (|1> ox |E>) = c11 |1> ox |E11> + c10 |0> ox |E10>

All four amplitudes are real and non-negative: any phase is absorbed into the
ancilla kets, so the computational-basis equations above define the
parameterization and every diagonal-basis quantity is derived from it.
The ancilla kets are not necessarily orthogonal; the attack is fully
described by the amplitudes plus six complex overlaps:

    s = <E00|E01>   u = <E00|E10>   p = <E00|E11>
    r = <E11|E10>   v = <E01|E11>   q = <E01|E10>

Validity means: both amplitude pairs normalized, every overlap inside the
unit disc, the 4x4 Gram matrix of the kets positive semidefinite, and the
two branch vectors orthogonal, which reads

    c00 * c10 * u + c01 * c11 * v = 0.

For equal amplitudes (c00 = c11, hence c01 = c10) the orthogonality
constraint forces u = -v, i.e. u0 = -v0 and u1 = -v1.

``validate`` checks one attack; ``_valid_mask`` applies its checks to a
stack of candidates at once, with one Gram ``eigvalsh`` call for them all,
and ``_attack_batch`` builds attacks from a stack that passes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .qstate import PSD_SLACK, ComplexMatrix, Ket
from .rates import DOMAIN_ATOL, NAMED_ATTACKS

AMPLITUDE_ATOL = 1e-12
OVERLAP_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
# amplitudes this close count as symmetric (c00 = c11, hence c01 = c10)
SYMMETRY_ATOL = 1e-9

OVERLAP_NAMES = ("s", "u", "p", "r", "v", "q")
_FIELDS = ("c00", "c01", "c11", "c10") + OVERLAP_NAMES
# entry (i, j) of the Gram matrix of (|E00>, |E01>, |E11>, |E10>) as an
# index into (1, s, u, p, r, v, q, conj(s), conj(u), ..., conj(q))
_GRAM_TABLE = np.array([[0, 1, 3, 2], [7, 0, 5, 6], [9, 11, 0, 4], [8, 12, 10, 0]])
# rejection bound of sample_valid
DRAW_BUDGET = 10**6


class AttackValidationError(ValueError):
    """Base class for attack-parameter validation failures."""


class AmplitudeNormalizationError(AttackValidationError):
    """c00^2 + c01^2 or c11^2 + c10^2 deviates from 1, or an amplitude is negative."""


class OverlapMagnitudeError(AttackValidationError):
    """Some overlap has modulus above 1."""


class UnitarityConstraintError(AttackValidationError):
    """The branch vectors are not orthogonal: c00 c10 u + c01 c11 v != 0."""


class GramNotPositiveError(AttackValidationError):
    """The 4x4 Gram matrix of the ancilla kets is not positive semidefinite."""


class SamplingBudgetError(RuntimeError):
    """Rejection sampling failed to produce a valid parameter set."""


@dataclass(frozen=True)
class AttackParams:
    """Amplitudes and ancilla overlaps of a collective forward attack.

    Construction runs validate, so every instance is a physical attack; an
    invalid or NaN parameter raises its AttackValidationError subclass.

    Attributes:
        c00: amplitude of the undisturbed branch for an incoming |0>.
        c01: amplitude of the flipped branch for an incoming |0>.
        c11: amplitude of the undisturbed branch for an incoming |1>.
        c10: amplitude of the flipped branch for an incoming |1>.
        s: overlap <E00|E01> between the two ancilla records for |0>.
        u: overlap <E00|E10> across the undisturbed-0 / flipped-1 records.
        p: overlap <E00|E11> between the two undisturbed records.
        r: overlap <E11|E10> between the two ancilla records for |1>.
        v: overlap <E01|E11> across the flipped-0 / undisturbed-1 records.
        q: overlap <E01|E10> between the two flipped records.
    """

    c00: float
    c01: float
    c11: float
    c10: float
    s: complex = 0j
    u: complex = 0j
    p: complex = 0j
    r: complex = 0j
    v: complex = 0j
    q: complex = 0j

    def __post_init__(self) -> None:
        validate(self)

    @property
    def overlaps(self) -> dict[str, complex]:
        return {name: complex(getattr(self, name)) for name in OVERLAP_NAMES}

    @property
    def symmetric(self) -> bool:
        """True when both undisturbed amplitudes coincide."""
        return abs(self.c00 - self.c11) <= SYMMETRY_ATOL

    def to_dict(self) -> dict:
        """Flat document: the four amplitudes plus a list of named overlaps."""
        return {
            "c00": float(self.c00),
            "c01": float(self.c01),
            "c11": float(self.c11),
            "c10": float(self.c10),
            "overlaps": [
                {"name": name, "re": float(val.real), "im": float(val.imag)}
                for name, val in self.overlaps.items()
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AttackParams":
        """Inverse of to_dict; an overlap left out is 0.

        A malformed document, an unknown key or an overlap given twice
        included, raises ValueError naming the key.
        """

        def number(entry: dict, key: str) -> float:
            try:
                return real_number(entry[key])
            except (KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"attack document key '{key}': missing or not a number") from exc

        def only(entry: dict, keys: set[str]) -> None:
            if unknown := sorted(set(entry) - keys):
                raise ValueError(f"attack document key '{unknown[0]}': unknown key")

        only(doc, {"c00", "c01", "c11", "c10", "overlaps"})
        amps = {k: number(doc, k) for k in ("c00", "c01", "c11", "c10")}
        ov = {}
        entries = doc.get("overlaps", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("attack document key 'overlaps': expected a list of objects")
        for entry in entries:
            only(entry, {"name", "re", "im"})
            name = entry.get("name")
            if name not in OVERLAP_NAMES:
                raise ValueError(f"unknown overlap name {name!r}")
            if name in ov:
                raise ValueError(f"attack document overlap '{name}': given more than once")
            ov[name] = complex(number(entry, "re"), number(entry, "im"))
        return cls(**amps, **ov)


def real_number(value) -> float:
    """A JSON number, integer or not, as a float; never a bool or a string.

    Raises:
        TypeError: value is not an int or a float (a bool included).
        OverflowError: an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def gram_matrix(params: AttackParams) -> ComplexMatrix:
    """Gram matrix of (|E00>, |E01>, |E11>, |E10>) with unit diagonal."""
    ov = np.array([params.s, params.u, params.p, params.r, params.v, params.q], dtype=complex)
    return np.concatenate(([1.0], ov, ov.conj()))[_GRAM_TABLE]


def _gram_stack(overlaps: np.ndarray) -> np.ndarray:
    """The (k, 4, 4) Gram matrices of (k, 6) overlaps, each as gram_matrix's."""
    ones = np.ones((len(overlaps), 1))
    return np.concatenate([ones, overlaps, overlaps.conj()], axis=1)[:, _GRAM_TABLE]


def validate(params: AttackParams) -> AttackParams:
    """Check every attack invariant; return the params unchanged if valid.

    Each bound is tested as "not within", so a NaN parameter fails it. The
    checks run in the order listed; the first that fails raises.

    Raises:
        AmplitudeNormalizationError: amplitudes negative or not normalized.
        OverlapMagnitudeError: an overlap leaves the unit disc.
        GramNotPositiveError: overlap Gram matrix not PSD.
        UnitarityConstraintError: branch vectors not orthogonal.
    """
    amps = (params.c00, params.c01, params.c11, params.c10)
    for a in amps:
        if not -AMPLITUDE_ATOL <= a <= 1.0 + AMPLITUDE_ATOL:
            raise AmplitudeNormalizationError(f"amplitudes {amps} outside [0, 1]")
    if not abs(params.c00**2 + params.c01**2 - 1.0) <= AMPLITUDE_ATOL:
        raise AmplitudeNormalizationError(
            f"c00^2 + c01^2 = {params.c00**2 + params.c01**2} is not 1"
        )
    if not abs(params.c11**2 + params.c10**2 - 1.0) <= AMPLITUDE_ATOL:
        raise AmplitudeNormalizationError(
            f"c11^2 + c10^2 = {params.c11**2 + params.c10**2} is not 1"
        )
    overlaps = (params.s, params.u, params.p, params.r, params.v, params.q)
    for name, val in zip(OVERLAP_NAMES, overlaps):
        try:
            modulus = abs(val)
        except OverflowError:  # libm's hypot, which abs calls, returned inf
            modulus = math.inf
        if not modulus <= 1.0 + OVERLAP_ATOL:
            raise OverlapMagnitudeError(f"|{name}| = {modulus} exceeds 1")
    w_min = np.linalg.eigvalsh(gram_matrix(params)).min()
    if not w_min >= PSD_SLACK:
        raise GramNotPositiveError(
            f"Gram eigenvalue {w_min} below the {PSD_SLACK:g} positivity slack"
        )
    residual = params.c00 * params.c10 * params.u + params.c01 * params.c11 * params.v
    if not abs(residual) <= UNITARITY_ATOL:
        raise UnitarityConstraintError(
            f"|c00 c10 u + c01 c11 v| = {abs(residual)} exceeds {UNITARITY_ATOL:g}"
        )
    return params


def _valid_mask(amps: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """validate's verdict on each of k candidates: (k, 4) amplitudes
    (c00, c01, c11, c10) and (k, 6) overlaps in OVERLAP_NAMES order.

    validate's checks, constants and order, each as "not within" so that NaN
    fails; each check reads only the rows that passed the ones before, so no
    square overflows and no NaN reaches the one stacked Gram eigvalsh call.
    A modulus is np.hypot of the parts, which rounds as Python's abs does
    (np.abs of a complex array can differ from it in the last bit) and is
    inf where abs overflows.
    """
    in_range = (-AMPLITUDE_ATOL <= amps) & (amps <= 1.0 + AMPLITUDE_ATOL)
    rows = np.flatnonzero(in_range.all(axis=1))
    c00, c01, c11, c10 = amps[rows].T
    norms = np.abs([c00**2 + c01**2 - 1.0, c11**2 + c10**2 - 1.0])
    rows = rows[np.all(norms <= AMPLITUDE_ATOL, axis=0)]
    ov = overlaps[rows]
    with np.errstate(over="ignore"):  # an overflowing modulus is inf, and fails
        modulus = np.hypot(ov.real, ov.imag)
    rows = rows[np.all(modulus <= 1.0 + OVERLAP_ATOL, axis=1)]
    if len(rows):
        rows = rows[np.linalg.eigvalsh(_gram_stack(overlaps[rows]))[:, 0] >= PSD_SLACK]
    c00, c01, c11, c10 = amps[rows].T
    residual = c00 * c10 * overlaps[rows, 1] + c01 * c11 * overlaps[rows, 4]
    rows = rows[np.hypot(residual.real, residual.imag) <= UNITARITY_ATOL]
    ok = np.zeros(len(amps), dtype=bool)
    ok[rows] = True
    return ok


def _valid_attacks(amps: np.ndarray, ov: np.ndarray) -> tuple[np.ndarray, list[AttackParams]]:
    """_valid_mask of k candidates, and the valid ones wrapped as AttackParams
    of Python floats and complexes without re-running __post_init__."""
    ok = _valid_mask(amps, ov)
    out = []
    for row_amps, row_ov in zip(amps[ok].tolist(), ov[ok].tolist()):
        params = object.__new__(AttackParams)
        params.__dict__.update(zip(_FIELDS, row_amps + row_ov))
        out.append(params)
    return ok, out


def _attack_batch(amps: np.ndarray, ov: np.ndarray) -> list[AttackParams]:
    """The k candidates as AttackParams, checked at once; the first invalid
    one raises validate's error class and message, prefixed with its index."""
    ok, attacks = _valid_attacks(amps, ov)
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            AttackParams(*amps[i].tolist(), *ov[i].tolist())
        except AttackValidationError as exc:
            raise type(exc)(f"attack {i}: {exc}") from None
        raise AssertionError(f"attack {i}: the stacked check rejects what validate accepts")
    return attacks


def realize_ancillas(attacks: list[AttackParams]) -> np.ndarray:
    """Concrete ancilla kets reproducing the overlaps of each attack.

    Factorizes every Gram matrix through one stacked eigendecomposition.
    The params were validated on construction, so negative eigenvalues lie
    within the -1e-10 slack; they are clamped to zero and each ket rescaled
    back to unit norm, which the clamp can move by ~1e-10. Returns a
    (k, 4, 4) array whose entry i has as rows the kets (|E00>, |E01>,
    |E11>, |E10>) of attack i in a four-dimensional space.
    """
    overlaps = np.array([(a.s, a.u, a.p, a.r, a.v, a.q) for a in attacks], dtype=complex)
    lam, vecs = np.linalg.eigh(_gram_stack(overlaps))
    b = np.conjugate(vecs * np.sqrt(np.clip(lam, 0.0, None))[:, None, :])
    # rows of b satisfy <row_i|row_j> = G_ij, whose diagonal is 1
    return b / np.linalg.norm(b, axis=2, keepdims=True)


def realize_ancilla(params: AttackParams) -> np.ndarray:
    """The (4, 4) ancilla kets of one attack: realize_ancillas for k = 1."""
    return realize_ancillas([params])[0]


def branch_stack(attacks: list[AttackParams]) -> np.ndarray:
    """The two attacked transmission branches of each attack, stacked.

    Returns a (k, 2, 8) array whose entry i holds U(|0> ox |E>) and
    U(|1> ox |E>) of attack i as 8-dim qubit-ancilla kets built from
    realized ancillas, the qubit's |0> component in the first four entries,
    its |1> in the last.
    """
    amps = np.array([(a.c00, a.c01, a.c11, a.c10) for a in attacks])
    # rows c00 E00, c01 E01, c11 E11, c10 E10; branch 0 is (c00 E00, c01 E01)
    # and branch 1 is (c10 E10, c11 E11)
    scaled = amps[:, :, None] * realize_ancillas(attacks)
    return scaled[:, [0, 1, 3, 2]].reshape(len(attacks), 2, 8)


def branch_vectors(params: AttackParams) -> tuple[Ket, Ket]:
    """(U(|0> ox |E>), U(|1> ox |E>)) of one attack: branch_stack for k = 1."""
    phi0, phi1 = branch_stack([params])[0]
    return phi0, phi1


@dataclass(frozen=True)
class ChannelFidelities:
    """Forward-channel fidelities observable in check mode.

    f0/f1 are the probabilities that a computational-basis probe comes out
    unchanged; fplus/fminus the same for the diagonal basis.
    """

    f0: float
    f1: float
    fplus: float
    fminus: float

    @property
    def f01(self) -> float:
        """Average computational-basis fidelity."""
        return 0.5 * (self.f0 + self.f1)

    @property
    def fpm(self) -> float:
        """Average diagonal-basis fidelity."""
        return 0.5 * (self.fplus + self.fminus)

    @property
    def xi(self) -> float:
        """The rate parameter fpm + f01 - 1; each fidelity must lie in [0, 1]."""
        for name, val in vars(self).items():
            if not -DOMAIN_ATOL <= val <= 1.0 + DOMAIN_ATOL:
                raise ValueError(f"{name}={val} outside [0, 1]")
        return self.fpm + self.f01 - 1.0

    def to_dict(self) -> dict:
        return asdict(self)


def forward_fidelities(params: AttackParams) -> ChannelFidelities:
    """Fidelities of the four probe states under the attack, via the Gram matrix.

    The computational-basis fidelities are c00^2 and c11^2. The diagonal
    ones are squared norms of the (+,+,+,+) and (+,-,+,-) signed amplitude
    combinations of the four ancilla kets, divided by 4; no explicit ancilla
    realization is needed.
    """
    c00, c01, c11, c10 = params.c00, params.c01, params.c11, params.c10
    g = gram_matrix(params)

    def combo_norm_sq(signs: tuple[int, int, int, int]) -> float:
        w = np.array(
            [signs[0] * c00, signs[1] * c01, signs[2] * c11, signs[3] * c10],
            dtype=complex,
        )
        return float(np.real(np.conjugate(w) @ g @ w))

    fplus = combo_norm_sq((1, 1, 1, 1)) / 4.0
    fminus = combo_norm_sq((1, -1, 1, -1)) / 4.0
    return ChannelFidelities(
        f0=float(params.c00**2),
        f1=float(params.c11**2),
        fplus=fplus,
        fminus=fminus,
    )


def named_attack(name: str, e: float | None = None) -> AttackParams:
    """Reference attacks used across tests, demos and the CLI.

    Args:
        name: one of "identity", "measure_z", "measure_x", "symmetric".
        e: disturbance in [0, 1/2], required for "symmetric", None otherwise.

    Returns:
        The named AttackParams.
    """
    if e is not None and name != "symmetric" and name in NAMED_ATTACKS:
        raise ValueError(f"the {name} attack takes no disturbance e, got e={e}")
    if name == "identity":
        params = AttackParams(
            c00=1.0, c01=0.0, c11=1.0, c10=0.0,
            s=1 + 0j, u=1 + 0j, p=1 + 0j, r=1 + 0j, v=1 + 0j, q=1 + 0j,
        )
    elif name == "measure_z":
        params = AttackParams(c00=1.0, c01=0.0, c11=1.0, c10=0.0)
    elif name == "measure_x":
        a = 1.0 / np.sqrt(2.0)
        params = AttackParams(c00=a, c01=a, c11=a, c10=a, p=1 + 0j, q=1 + 0j)
    elif name == "symmetric":
        if e is None:
            raise ValueError("the symmetric attack needs a disturbance e")
        e = float(e)
        if not 0.0 <= e <= 0.5:
            raise ValueError(f"symmetric disturbance e={e} outside [0, 1/2]")
        c0 = np.sqrt(1.0 - e)
        c1 = np.sqrt(e)
        # q0 = 1 and the boundary identity 2 fpm - 1 = c0^2 p0 + c1^2 q0
        # pin p0 so that fpm = f01 = 1 - e
        p0 = (1.0 - 3.0 * e) / (1.0 - e)
        params = AttackParams(
            c00=c0, c01=c1, c11=c0, c10=c1, p=complex(p0), q=1 + 0j,
        )
    else:
        raise ValueError(f"unknown attack name {name!r}; expected one of {NAMED_ATTACKS}")
    return params


def _unit_vector(rng: np.random.Generator, dim: int) -> Ket:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sample_valid(
    seed: int | None = None,
    symmetric: bool = False,
    max_iterations: int = DRAW_BUDGET,
) -> AttackParams:
    """Draw a random valid attack.

    Three ancilla kets and the amplitudes are drawn freely; the remaining
    overlap <E00|E10> is solved from the orthogonality constraint and the
    fourth ket is constructed to realize it, so the Gram matrix is PSD by
    construction. Draws that leave the unit disc are rejected.

    Args:
        seed: seed for the deterministic generator.
        symmetric: force c00 = c11, hence c01 = c10.
        max_iterations: rejection bound before giving up.
    """
    return AttackParams(*_draw(seed, symmetric, max_iterations))


def _draw(seed: int | None, symmetric: bool, max_iterations: int = DRAW_BUDGET) -> tuple:
    """sample_valid's draw, unvalidated: its four amplitudes, then its overlaps."""
    rng = np.random.default_rng(seed)
    for _ in range(max_iterations):
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
        return float(c00), float(c01), float(c11), float(c10), s, u, p, r, v, q
    raise SamplingBudgetError(f"no valid draw within {max_iterations} iterations")
