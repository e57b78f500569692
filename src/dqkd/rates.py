"""The scalar formulas: entropies, the closed-form spectrum, the key rates.

The privacy-amplification rate is 1 - h(xi) and the final rate
1 - h(xi) - h(e), positive only where clears_boundary, the abort rule
xi >= 1/2, passes; the keyrate module derives the ceiling 1 + h(xi) and
the closed-form spectrum behind them, and bound_certificate breaks the
ceiling's proof for one attack into named terms. These few scalar
logarithms need no numpy, so ``dqkd keyrate``, ``sweep`` and ``optimize``
load nothing heavier. It also holds the reference attack names and the
positivity slack.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# float slack on the domain checks below: a probability's [0, 1], xi's [-1, 1]
DOMAIN_ATOL = 1e-12
BOUNDARY_XI = 0.5
# float slack on the abort rule, read by clears_boundary alone
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


class BeSpectrumClosedForm(NamedTuple):
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


def _block(params) -> tuple[complex, float, float]:
    """m of the 2x2 block B = [[2i a, m], [-conj(m), -2i b]] that the
    keyrate module docstring derives, and its two candidate deltas
    sqrt(|m|^2 + (a + b)^2) and |a - b|."""
    c00, c01, c11, c10, s, _, p, r, _, q = params
    m = c00 * c11 * p - c01 * c10 * q
    a = c00 * c01 * s.imag
    b = c10 * c11 * r.imag
    return m, math.sqrt(abs(m) ** 2 + (a + b) ** 2), abs(a - b)


def be_spectrum_closed_form(params) -> BeSpectrumClosedForm:
    """Closed-form spectrum of the averaged qubit-ancilla state of any
    valid AttackParams, symmetric or not, from the block B; it matches
    brute-force diagonalization within 1e-10."""
    _, d_a, d_b = _block(params)
    return BeSpectrumClosedForm(max(d_a, d_b), min(d_a, d_b))


class BoundCertificate(NamedTuple):
    """The upper bound S(rho_BE) <= 1 + h(xi) for one attack, as a chain.

    The spectrum (1 +/- D1 +/- D2)/4 is majorized by the one with D2 = 0,
    so S <= 1 + h((1 + D1)/2); since D1 <= 1 and xi >= 1/2, the bound
    follows once D1 >= 2 xi - 1. With d_a = sqrt(|m|^2 + (a + b)^2) and
    the normalization defects n0 = c00^2 + c01^2 - 1 and n1 = c11^2 +
    c10^2 - 1, the margin D1 - (2 xi - 1) is exactly the sum of six terms:

        (D1 - d_a) + (d_a - |m|) + (|m| - Re m) + (c01 - c10)^2
        + 2 c01 c10 (1 - Re q) - (n0 + n1).

    The first four are >= 0; the fifth is >= -2 c01 c10 times the overlap
    slack of validation, which admits |q| up to 1 plus that slack; the
    sixth, the defect term, has either sign.

    Attributes:
        terms: the six terms, in the order above.
        gap: the majorization gap 1 + h((1 + D1)/2) - S, >= 0.
        xi: the attack's forward margin, forward_fidelities(params).xi.
        delta1: D1, as be_spectrum_closed_form gives it.
    """

    terms: tuple[float, float, float, float, float, float]
    gap: float
    xi: float
    delta1: float


def bound_certificate(params) -> BoundCertificate:
    """The chain of BoundCertificate, evaluated on one valid AttackParams."""
    from .attack import forward_fidelities  # attack imports this module

    m, d_a, d_b = _block(params)
    d1, d2 = max(d_a, d_b), min(d_a, d_b)
    c00, c01, c11, c10 = params[:4]
    defect = (c00**2 + c01**2 - 1.0) + (c11**2 + c10**2 - 1.0)
    terms = (d1 - d_a, d_a - abs(m), abs(m) - m.real, (c01 - c10) ** 2,
             2.0 * c01 * c10 * (1.0 - params.q.real), -defect)
    gap = 1.0 + binary_entropy((1.0 + d1) / 2.0) - BeSpectrumClosedForm(d1, d2).entropy()
    return BoundCertificate(terms, gap, forward_fidelities(params).xi, d1)


def clears_boundary(xi: float) -> bool:
    """The abort rule: xi >= 1/2, within float slack. A NaN xi aborts."""
    return xi >= BOUNDARY_XI - BOUNDARY_ATOL


def s_be_max(xi: float) -> float:
    """Largest eavesdropper entropy compatible with observed fidelities.

    Over all attacks reproducing computational-basis fidelity c0sq (flip
    probability c1sq) and diagonal-basis fidelity cppsq, the entropy of the
    averaged qubit-ancilla state reaches 1 + h(xi), xi = cppsq - c1sq.

    Args:
        xi: observed forward margin cppsq - c1sq.

    Returns:
        The maximum entropy in bits.

    Raises:
        ValueError: xi outside [-1, 1], NaN included.
        BoundaryViolationError: xi < 1/2 (abort region).
    """
    if not -1.0 - DOMAIN_ATOL <= xi <= 1.0 + DOMAIN_ATOL:
        raise ValueError(f"xi={xi} outside [-1, 1]")
    if not clears_boundary(xi):
        raise BoundaryViolationError(f"xi = {xi} below the 1/2 boundary; no positive rate exists")
    return 1.0 + binary_entropy(xi)


class KeyRateReport(NamedTuple):
    """Asymptotic rate summary for one observed (xi, e) pair.

    Attributes:
        xi: forward-channel rate parameter fpm + f01 - 1.
        e: bit error rate of the announced key bits.
        r_pa: privacy-amplification rate 1 - h(xi), 0 when aborted.
        r_final: final rate max(0, 1 - h(xi) - h(e)), 0 when aborted.
        r_final_raw: unclamped 1 - h(xi) - h(e), kept for rate curves; NaN
            when xi < 0 leaves it undefined.
        r_bb84: comparator rate 1 - 2 h(e).
        boundary_ok: the abort rule passed, slack included in a simulated run.
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
        return {**self._asdict(), "r_final_raw": raw if math.isfinite(raw) else None,
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
    if not -1.0 - DOMAIN_ATOL <= xi <= 1.0 + DOMAIN_ATOL:
        raise ValueError(f"xi={xi} outside [-1, 1]")
    if not -DOMAIN_ATOL <= e <= 0.5 + DOMAIN_ATOL:
        raise ValueError(f"e={e} outside [0, 1/2]")
    xi = min(max(xi, -1.0), 1.0)
    e = min(max(e, 0.0), 0.5)
    h_e = binary_entropy(e)
    # h(xi), and with it the raw curve, is defined only for xi >= 0
    r_pa = 1.0 - binary_entropy(xi) if xi >= 0.0 else math.nan
    r_final_raw = r_pa - h_e
    boundary_ok = clears_boundary(xi)
    if boundary_ok:
        r_final = max(0.0, r_final_raw)
    else:
        r_pa = r_final = 0.0
    return KeyRateReport(xi, e, r_pa, r_final, r_final_raw, 1.0 - 2.0 * h_e, boundary_ok)
