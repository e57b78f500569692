"""The scalar formulas: entropies, the closed-form spectrum, the key rates.

The privacy-amplification rate is 1 - h(xi) and the final rate
1 - h(xi) - h(e), positive only above the abort boundary xi >= 1/2; the
keyrate module derives the ceiling 1 + h(xi) and the closed-form spectrum
behind them. These are a few scalar logarithms, so this module needs no
numpy, and ``dqkd keyrate``, ``sweep`` and ``optimize`` load nothing
heavier. It also holds the reference attack names and the positivity slack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

# float slack on the [0, 1] domain of a probability argument
DOMAIN_ATOL = 1e-12
BOUNDARY_XI = 0.5
# float slack on boundary comparisons and on the domain checks below
BOUNDARY_ATOL = 1e-12
# the reference attacks built by attack.named_attack
NAMED_ATTACKS = ("identity", "measure_z", "measure_x", "symmetric")
# how far below 0 a Gram or density-matrix eigenvalue may round
PSD_SLACK = -1e-10
# weights at or below this count as 0 in an entropy
ENTROPY_CUTOFF = 1e-12


class BoundaryViolationError(ValueError):
    """Observed fidelities fall below the abort boundary fpm + f01 >= 3/2."""


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    x = float(x)
    if not -DOMAIN_ATOL <= x <= 1.0 + DOMAIN_ATOL:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_bits(weights) -> float:
    """-sum w log2 w over the weights above 1e-12 (0 log 0 = 0), on floats,
    summed one at a time in the order given."""
    total = 0.0
    for w in weights:
        if w > ENTROPY_CUTOFF:
            total -= w * math.log2(w)
    return total


@dataclass(frozen=True)
class BeSpectrumClosedForm:
    """Closed-form nonzero spectrum of the averaged qubit-ancilla state:
    (1 +/- delta1 +/- delta2)/4 with delta1 >= delta2 >= 0. The other four
    eigenvalues of the 8-dimensional state are exactly zero."""

    delta1: float
    delta2: float

    def spectrum(self) -> tuple[float, float, float, float]:
        """The four nonzero eigenvalues, sorted descending."""
        d1, d2 = self.delta1, self.delta2
        return ((1 + d1 + d2) / 4.0, (1 + d1 - d2) / 4.0,
                (1 - d1 + d2) / 4.0, (1 - d1 - d2) / 4.0)

    def entropy(self) -> float:
        """Entropy of the spectrum in bits, with 0 log 0 = 0."""
        return entropy_bits(self.spectrum())


def be_spectrum_closed_form(params) -> BeSpectrumClosedForm:
    """Closed-form spectrum of the averaged qubit-ancilla state of any
    valid AttackParams, symmetric or not, from the 2x2 block
    B = [[2i a, m], [-conj(m), -2i b]] that the keyrate module docstring
    derives; it matches brute-force diagonalization within 1e-10."""
    m = params.c00 * params.c11 * params.p - params.c01 * params.c10 * params.q
    a = params.c00 * params.c01 * params.s.imag
    b = params.c10 * params.c11 * params.r.imag
    d_a, d_b = math.sqrt(abs(m) ** 2 + (a + b) ** 2), abs(a - b)
    return BeSpectrumClosedForm(delta1=max(d_a, d_b), delta2=min(d_a, d_b))


def s_be_max(c0sq: float, c1sq: float, cppsq: float) -> float:
    """Largest eavesdropper entropy compatible with observed fidelities.

    Over all attacks reproducing computational-basis fidelity c0sq (flip
    probability c1sq) and diagonal-basis fidelity cppsq, the entropy of the
    averaged qubit-ancilla state reaches 1 + h(xi), xi = cppsq - c1sq.

    Args:
        c0sq: observed undisturbed probability, equals 1 - c1sq.
        c1sq: observed flip probability.
        cppsq: observed diagonal-basis fidelity.

    Returns:
        The maximum entropy in bits.

    Raises:
        ValueError: inputs outside [0, 1] or mutually inconsistent.
        BoundaryViolationError: cppsq - c1sq < 1/2 (abort region).
    """
    for name, val in (("c0sq", c0sq), ("c1sq", c1sq), ("cppsq", cppsq)):
        if not -BOUNDARY_ATOL <= val <= 1.0 + BOUNDARY_ATOL:
            raise ValueError(f"{name}={val} outside [0, 1]")
    if abs(c0sq + c1sq - 1.0) > 1e-9:
        raise ValueError(f"c0sq + c1sq = {c0sq + c1sq} is not 1")
    xi = cppsq - c1sq
    if xi < BOUNDARY_XI - BOUNDARY_ATOL:
        raise BoundaryViolationError(
            f"cppsq - c1sq = {xi} below the 1/2 boundary; no positive rate exists"
        )
    return 1.0 + binary_entropy(min(xi, 1.0))


@dataclass(frozen=True)
class KeyRateReport:
    """Asymptotic rate summary for one observed (xi, e) pair.

    Attributes:
        xi: forward-channel rate parameter fpm + f01 - 1.
        e: bit error rate of the announced key bits.
        r_pa: privacy-amplification rate 1 - h(xi), 0 when aborted.
        r_final: final rate max(0, 1 - h(xi) - h(e)), 0 when aborted.
        r_final_raw: unclamped 1 - h(xi) - h(e), kept for rate curves; NaN
            when xi < 0 leaves it undefined.
        r_bb84: comparator rate 1 - 2 h(e).
        boundary_ok: xi >= 1/2.
    """

    xi: float
    e: float
    r_pa: float
    r_final: float
    r_final_raw: float
    r_bb84: float
    boundary_ok: bool

    @property
    def aborted(self) -> bool:
        """The protocol outcome: the negation of boundary_ok."""
        return not self.boundary_ok

    def to_dict(self) -> dict:
        raw = self.r_final_raw
        # replacing r_final_raw keeps its place among the field keys
        return {**asdict(self), "r_final_raw": raw if math.isfinite(raw) else None,
                "aborted": self.aborted}


def final_rate(xi: float, e: float) -> KeyRateReport:
    """Evaluate the asymptotic key rate and the abort decision.

    Args:
        xi: forward rate parameter in [-1, 1].
        e: announced-bit error rate in [0, 1/2].

    Returns:
        KeyRateReport; aborted runs carry zero rates, not errors.

    Raises:
        ValueError: xi or e outside their domains.
    """
    if not -1.0 - BOUNDARY_ATOL <= xi <= 1.0 + BOUNDARY_ATOL:
        raise ValueError(f"xi={xi} outside [-1, 1]")
    if not -BOUNDARY_ATOL <= e <= 0.5 + BOUNDARY_ATOL:
        raise ValueError(f"e={e} outside [0, 1/2]")
    xi = min(max(xi, -1.0), 1.0)
    e = min(max(e, 0.0), 0.5)
    r_bb84 = 1.0 - 2.0 * binary_entropy(e)
    if xi >= 0.0:
        r_final_raw = 1.0 - binary_entropy(xi) - binary_entropy(e)
    else:
        r_final_raw = math.nan
    boundary_ok = xi >= BOUNDARY_XI - BOUNDARY_ATOL
    if boundary_ok:
        r_pa = 1.0 - binary_entropy(xi)
        r_final = max(0.0, r_final_raw)
    else:
        r_pa = 0.0
        r_final = 0.0
    return KeyRateReport(
        xi=xi,
        e=e,
        r_pa=r_pa,
        r_final=r_final,
        r_final_raw=r_final_raw,
        r_bb84=r_bb84,
        boundary_ok=boundary_ok,
    )
