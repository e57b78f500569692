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
constraint forces u = -v, i.e. u0 = -v0 and u1 = -v1. The Gram matrix G has
rows (1, s, p, u), (s*, 1, v, q), (p*, v*, 1, r), (u*, q*, r*, 1); it passes
when every LDL^H pivot of G - PSD_SLACK I is > 0, exactly when its smallest
eigenvalue exceeds PSD_SLACK.

Attacks hold Python floats and complexes, and every check and fidelity is
plain arithmetic on them, so this module needs no numpy. Attacks are
sampled and realized, as stacks, in the numpy modules verify and keyrate.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .rates import DOMAIN_ATOL, NAMED_ATTACKS, PSD_SLACK

AMPLITUDE_ATOL = 1e-12
OVERLAP_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
# amplitudes this close count as symmetric (c00 = c11, hence c01 = c10)
SYMMETRY_ATOL = 1e-9

OVERLAP_NAMES = ("s", "u", "p", "r", "v", "q")


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


class _AttackFields(NamedTuple):
    c00: float
    c01: float
    c11: float
    c10: float
    s: complex
    u: complex
    p: complex
    r: complex
    v: complex
    q: complex


class AttackParams(_AttackFields):
    """Amplitudes and ancilla overlaps of a collective forward attack.

    Construction runs validate, so every instance is a physical attack; an
    invalid or NaN parameter raises its AttackValidationError subclass.
    _replace, _make, copy and unpickling construct through it too, and
    iterating yields the fields in the order below.

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

    __slots__ = ()

    def __new__(cls, c00, c01, c11, c10, s=0j, u=0j, p=0j, r=0j, v=0j, q=0j):
        return validate(tuple.__new__(cls, (c00, c01, c11, c10, s, u, p, r, v, q)))

    @classmethod
    def _make(cls, iterable) -> "AttackParams":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

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


def gram_pivots(s, u, p, r, v, q):
    """Pivots 2 to 4 of the LDL^H factorization of G - PSD_SLACK I (pivot 1
    is 1 - PSD_SLACK > 0) for one attack's overlaps, yielded in turn; pivot
    k + 1 divides by pivot k, so read on only while they are positive.
    """
    a = 1.0 - PSD_SLACK
    sr, si, ur, ui, pr, pi = s.real, s.imag, u.real, u.imag, p.real, p.imag
    d2 = a - (sr * sr + si * si) / a
    yield d2
    # entries (2, 3), (2, 4), (3, 4) of the first Schur complement, G[i, j]
    # - conj(G[1, i]) G[1, j] / a: v, q and r less conj(s) p, conj(s) u and
    # conj(p) u over a
    vr, vi = v.real - (sr * pr + si * pi) / a, v.imag - (sr * pi - si * pr) / a
    qr, qi = q.real - (sr * ur + si * ui) / a, q.imag - (sr * ui - si * ur) / a
    rr, ri = r.real - (pr * ur + pi * ui) / a, r.imag - (pr * ui - pi * ur) / a
    d3 = a - (pr * pr + pi * pi) / a - (vr * vr + vi * vi) / d2
    yield d3
    # entry (3, 4) of the second Schur complement, then the last pivot
    rr, ri = rr - (vr * qr + vi * qi) / d2, ri - (vr * qi - vi * qr) / d2
    yield a - (ur * ur + ui * ui) / a - (qr * qr + qi * qi) / d2 - (rr * rr + ri * ri) / d3


def validate(params: AttackParams) -> AttackParams:
    """Check every attack invariant; return the params unchanged if valid.

    Each bound is tested as "not within", so a NaN parameter fails it. The
    checks run in the order listed; the first that fails raises.

    Raises:
        AmplitudeNormalizationError: amplitudes negative or not normalized.
        OverlapMagnitudeError: an overlap leaves the unit disc.
        GramNotPositiveError: a pivot of G - PSD_SLACK I is not positive
            (gram_pivots), so G is not PSD within the slack.
        UnitarityConstraintError: branch vectors not orthogonal.
    """
    c00, c01, c11, c10, s, u, p, r, v, q = params
    amps = (c00, c01, c11, c10)
    for a in amps:
        if not -AMPLITUDE_ATOL <= a <= 1.0 + AMPLITUDE_ATOL:
            raise AmplitudeNormalizationError(f"amplitudes {amps} outside [0, 1]")
    if not abs(c00**2 + c01**2 - 1.0) <= AMPLITUDE_ATOL:
        raise AmplitudeNormalizationError(f"c00^2 + c01^2 = {c00**2 + c01**2} is not 1")
    if not abs(c11**2 + c10**2 - 1.0) <= AMPLITUDE_ATOL:
        raise AmplitudeNormalizationError(f"c11^2 + c10^2 = {c11**2 + c10**2} is not 1")
    overlaps = (s, u, p, r, v, q)
    for name, val in zip(OVERLAP_NAMES, overlaps):
        try:
            modulus = abs(val)
        except OverflowError:  # libm's hypot, which abs calls, returned inf
            modulus = math.inf
        if not modulus <= 1.0 + OVERLAP_ATOL:
            raise OverlapMagnitudeError(f"|{name}| = {modulus} exceeds 1")
    for k, pivot in enumerate(gram_pivots(*overlaps), start=2):
        if not pivot > 0.0:
            raise GramNotPositiveError(
                f"Gram pivot {k} = {pivot} of G - ({PSD_SLACK:g}) I is not positive"
            )
    residual = c00 * c10 * u + c01 * c11 * v
    if not abs(residual) <= UNITARITY_ATOL:
        raise UnitarityConstraintError(
            f"|c00 c10 u + c01 c11 v| = {abs(residual)} exceeds {UNITARITY_ATOL:g}"
        )
    return params


class ChannelFidelities(NamedTuple):
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
        f0, f1, fplus, fminus = self
        for name, val in (("f0", f0), ("f1", f1), ("fplus", fplus), ("fminus", fminus)):
            if not -DOMAIN_ATOL <= val <= 1.0 + DOMAIN_ATOL:
                raise ValueError(f"{name}={val} outside [0, 1]")
        return self.fpm + self.f01 - 1.0

    def to_dict(self) -> dict:
        return self._asdict()


def forward_fidelities(params: AttackParams) -> ChannelFidelities:
    """Fidelities of the four probe states under the attack, in closed form.

    f0 = c00^2 and f1 = c11^2. The diagonal ones, the squared norms of the
    (+,+,+,+) and (+,-,+,-) signed sums of c00 |E00>, c01 |E01>, c11 |E11>
    and c10 |E10> over 4, are (1 + even +/- odd)/2 with even = c00 c11 Re p
    + c01 c10 Re q and odd = c00 c01 Re s + c00 c10 Re u + c01 c11 Re v +
    c10 c11 Re r, since the amplitudes are real and normalized.
    """
    c00, c01, c11, c10 = params.c00, params.c01, params.c11, params.c10
    even = c00 * c11 * params.p.real + c01 * c10 * params.q.real
    odd = (c00 * c01 * params.s.real + c00 * c10 * params.u.real
           + c01 * c11 * params.v.real + c10 * c11 * params.r.real)
    return ChannelFidelities(c00**2, c11**2, 0.5 * (1.0 + even + odd), 0.5 * (1.0 + even - odd))


# the parameterless named attacks, each validated once by its constructor
_FIXED_ATTACKS = {
    "identity": AttackParams(
        c00=1.0, c01=0.0, c11=1.0, c10=0.0,
        s=1 + 0j, u=1 + 0j, p=1 + 0j, r=1 + 0j, v=1 + 0j, q=1 + 0j,
    ),
    "measure_z": AttackParams(c00=1.0, c01=0.0, c11=1.0, c10=0.0),
    # all four amplitudes 1/sqrt(2)
    "measure_x": AttackParams(*[1.0 / math.sqrt(2.0)] * 4, p=1 + 0j, q=1 + 0j),
}


def named_attack(name: str, e: float | None = None) -> AttackParams:
    """Reference attacks used across tests, demos and the CLI.

    identity, measure_z and measure_x are module constants, validated once
    at import, so every call returns the same object; only symmetric is
    built, and validated, per call.

    Args:
        name: one of "identity", "measure_z", "measure_x", "symmetric".
        e: disturbance in [0, 1/2], required for "symmetric", None otherwise.

    Returns:
        The named AttackParams.

    Raises:
        TypeError: e is a bool or not a real number (a string included).
        ValueError: an unknown name (one that is not a string included), or
            e missing, misplaced or out of range.
    """
    # tuple membership first: a dict lookup would raise TypeError on a list
    if name not in NAMED_ATTACKS:
        raise ValueError(f"unknown attack name {name!r}; expected one of {NAMED_ATTACKS}")
    if name != "symmetric":
        if e is not None:
            raise ValueError(f"the {name} attack takes no disturbance e, got e={e}")
        return _FIXED_ATTACKS[name]
    if e is None:
        raise ValueError("the symmetric attack needs a disturbance e")
    if isinstance(e, bool) or not isinstance(e, (float, int, numbers.Real)):
        raise TypeError(f"symmetric disturbance e must be a real number, got {e!r}")
    e = float(e)
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"symmetric disturbance e={e} outside [0, 1/2]")
    c0 = math.sqrt(1.0 - e)
    c1 = math.sqrt(e)
    # q0 = 1 and the boundary identity 2 fpm - 1 = c0^2 p0 + c1^2 q0
    # pin p0 so that fpm = f01 = 1 - e
    p0 = (1.0 - 3.0 * e) / (1.0 - e)
    return AttackParams(c00=c0, c01=c1, c11=c0, c10=c1, p=complex(p0), q=1 + 0j)
