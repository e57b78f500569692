"""Monte-Carlo simulation of the full two-way protocol at finite size.

Each of the n rounds sends a uniformly chosen state from {0, 1, +, -}
through the forward attack. The receiver either check-measures it in a
uniformly chosen basis (keeping only consistent-basis results for the
fidelity estimates) or encodes a uniform key bit, I for 0 and the flip Y
for 1. The encoded qubit returns through a classical bit-flip channel of
strength backward_noise and is measured in the preparation basis, which
decodes the key bit deterministically on a clean channel. A random subset
of the decoded bits is announced to estimate the error rate; the rest form
the raw key. Estimates feed the asymptotic rate formulas; the abort rule
rates.clears_boundary is applied once, to the estimated xi optionally
slacked by a multiple of its standard error, and stats and report share it.

Rounds are i.i.d., and every estimate is a function of how many rounds
land in each of 24 cells: the prepared state times {consistent check that
matches, consistent check that misses, discarded check, announced error,
announced correct bit, raw key}. One multinomial draw of those counts
replaces the per-round simulation, so a run costs the same at any n. A
consistent check matches with the channel fidelity f of its state. Both
encodings decode wrongly with probability 1 - f, because the flip Y maps
each basis state to its complement, and the backward flip b folds in as
e = (1 - f)(1 - b) + f b.

It is the one home of the state labels and of e (error_rate, which sweep
reads too). Cells and estimates are a few dozen scalar products on Python
floats; only run_protocol imports numpy, to seed the generator and make
the one draw. A config stores its float fields as Python floats, so a
numpy scalar cannot carry its own precision into the cells.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace

from .attack import AttackParams, ChannelFidelities, forward_fidelities
from .rates import KeyRateReport, clears_boundary, final_rate

STATE_LABELS = ("0", "1", "+", "-")
BASIS_OF = {"0": "Z", "1": "Z", "+": "X", "-": "X"}
COMPLEMENT = {"0": "1", "1": "0", "+": "-", "-": "+"}


class InsufficientDataError(ValueError):
    """An estimator was asked for a rate with zero trials."""


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: attack, sample size, conventions, seed.

    check_fraction is the probability a received qubit is check-measured;
    announce_fraction the probability an encoding-mode bit is announced.
    abort_slack_z widens the abort rule to est_xi - z * se < 1/2. A field
    outside its domain, a negative seed included, raises ValueError; an
    attack that is not an AttackParams, an n or seed that is not an integer,
    or another field that is not a real number (a bool included), raises
    TypeError. The integer fields are stored as int and the real ones as
    float, whatever numeric type they were given in.
    """

    attack: AttackParams
    n: int
    check_fraction: float = 0.5
    announce_fraction: float = 0.5
    backward_noise: float = 0.0
    seed: int = 0
    abort_slack_z: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.attack, AttackParams):
            raise TypeError(f"attack must be an AttackParams, got {self.attack!r}")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is not JSON
        for name in ("check_fraction", "announce_fraction", "backward_noise", "abort_slack_z"):
            value = getattr(self, name)
            # float and int first: they skip the abstract-class check, ~1 us each
            if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            try:
                # nor is a numpy float, and a float32 would round the cells to its precision
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name}={value} does not fit in a float") from None
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")
        # numpy's multinomial draws n as a signed 64-bit integer
        if not 1 <= self.n <= 2**63 - 1:
            raise ValueError(f"n={self.n} outside [1, 2**63 - 1]")
        for name in ("check_fraction", "announce_fraction"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name}={val} outside the open interval (0, 1)")
        if not 0.0 <= self.backward_noise <= 0.5:
            raise ValueError(f"backward_noise={self.backward_noise} outside [0, 1/2]")
        if not 0.0 <= self.abort_slack_z < math.inf:
            raise ValueError(f"abort_slack_z={self.abort_slack_z} must be finite and >= 0")

    def to_dict(self) -> dict:
        return {**asdict(self), "attack": self.attack.to_dict()}


@dataclass(frozen=True)
class ProtocolStats:
    """Counts and estimates from one simulated run.

    counts holds the consistent-basis check tallies keyed
    "prepared|basis|outcome"; the four round categories
    (consistent checks, discarded checks, announced bits, raw key m)
    partition n exactly.
    """

    counts: dict
    n_check_consistent: int
    n_check_discarded: int
    n_announced: int
    m: int
    est_f0: float
    se_f0: float
    est_f1: float
    se_f1: float
    est_fplus: float
    se_fplus: float
    est_fminus: float
    se_fminus: float
    est_e: float
    se_e: float
    est_xi: float
    se_xi: float
    k_est: int
    aborted: bool

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_with_se(successes: int, trials: int) -> tuple[float, float]:
    """Binomial point estimate and standard error sqrt(p(1-p)/trials).

    Raises:
        InsufficientDataError: trials < 1.
        ValueError: successes outside [0, trials].
    """
    if trials < 1:
        raise InsufficientDataError("estimate requested with zero trials")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} outside [0, trials={trials}]")
    p = successes / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def error_rate(f: float, b: float) -> float:
    """e = (1 - f)(1 - b) + f b in [0, 1]: linear in f, so the mean of e is e at the mean f."""
    return min(max((1.0 - f) * (1.0 - b) + f * b, 0.0), 1.0)


def _cell_probabilities(config: ProtocolConfig, fids: ChannelFidelities) -> list[float]:
    """The 24 cell probabilities, flat and row by row.

    Rows follow STATE_LABELS; the columns are hit, miss, discarded,
    announced error, announced correct and raw key. Each product keeps the
    association of the numpy formulation in tests/oracles.py, which the
    tests hold every probability to, bit for bit.
    """
    b = config.backward_noise
    c = config.check_fraction
    a = config.announce_fraction
    check = 0.5 * c
    announce = (1.0 - c) * a
    discarded = 0.25 * check
    raw = 0.25 * ((1.0 - c) * (1.0 - a))
    cells = []
    for fid in (fids.f0, fids.f1, fids.fplus, fids.fminus):
        # validation lets overlaps exceed 1 by float slack, and f with them
        f = min(max(fid, 0.0), 1.0)
        e = error_rate(f, b)
        cells += (
            0.25 * (check * f),
            0.25 * (check * (1.0 - f)),
            discarded,
            0.25 * (announce * e),
            0.25 * (announce * (1.0 - e)),
            raw,
        )
    return cells


def run_protocol(config: ProtocolConfig) -> tuple[ProtocolStats, KeyRateReport]:
    """Simulate one full run and evaluate the asymptotic rate from estimates.

    All randomness is one multinomial draw of the 24 cell counts from a
    generator seeded with config.seed, so identical configs reproduce
    identical results bit for bit, and no array of size n is built. The
    cell probabilities before the draw and the estimates after it are
    Python float arithmetic. The abort rule decides once, at est_xi -
    abort_slack_z * se_xi; a run the slack alone aborts reports zero rates.

    Raises:
        InsufficientDataError: n too small for some estimator to see even
            one trial (every fidelity needs consistent-basis checks and
            the error rate needs announced bits).
    """
    import numpy as np

    cells = _cell_probabilities(config, forward_fidelities(config.attack))
    rng = np.random.default_rng(config.seed)
    tally = rng.multinomial(config.n, cells).tolist()
    hits, misses, discarded, ann_err, ann_ok, raw = (tally[k::6] for k in range(6))

    counts: dict[str, int] = {}
    for label, hit, miss in zip(STATE_LABELS, hits, misses):
        basis = BASIS_OF[label]
        if hit:
            counts[f"{label}|{basis}|{label}"] = hit
        if miss:
            counts[f"{label}|{basis}|{COMPLEMENT[label]}"] = miss
    est_f, se_f = zip(*(estimate_with_se(hit, hit + miss) for hit, miss in zip(hits, misses)))

    n_announced = sum(ann_err) + sum(ann_ok)
    m = sum(raw)
    est_e, se_e = estimate_with_se(sum(ann_err), n_announced)

    est_xi = ChannelFidelities(*est_f).xi
    se0, se1, se2, se3 = se_f
    # summed in state order; float addition is not associative
    se_xi = 0.5 * math.sqrt(se0 * se0 + se1 * se1 + se2 * se2 + se3 * se3)

    # estimates lie in [0, 1], so est_xi is in [-1, 1] exactly; only e is capped
    report = final_rate(est_xi, min(est_e, 0.5))
    aborted = not clears_boundary(est_xi - config.abort_slack_z * se_xi)
    if aborted and report.boundary_ok:
        report = replace(report, r_pa=0.0, r_final=0.0, boundary_ok=False)
    k_est = round(m * report.r_final)

    stats = ProtocolStats(
        counts=counts,
        n_check_consistent=sum(hits) + sum(misses),
        n_check_discarded=sum(discarded),
        n_announced=n_announced,
        m=m,
        est_f0=est_f[0],
        se_f0=se0,
        est_f1=est_f[1],
        se_f1=se1,
        est_fplus=est_f[2],
        se_fplus=se2,
        est_fminus=est_f[3],
        se_fminus=se3,
        est_e=est_e,
        se_e=se_e,
        est_xi=est_xi,
        se_xi=se_xi,
        k_est=k_est,
        aborted=aborted,
    )
    return stats, report
