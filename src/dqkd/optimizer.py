"""Certify the eavesdropper's entropy maximum by direct search.

Observed fidelities pin the amplitudes (c0^2 = f01) and, through the
boundary identity 1 + c0^2 p0 + c1^2 q0 = 2 fpm, one linear combination of
the real overlap parts. Everything else about the attack is free, so the
worst case is the attack maximizing the entropy of the averaged
qubit-ancilla state under that single equality constraint. The search
eliminates q0 exactly, grids the remaining real direction p0, and refines
with a derivative-free simplex over (p0, p1, q1, s1, r1) from the analytic
candidate q0 = 1 and from the best grid point, one run when the two
coincide; overlaps that provably cancel from the spectrum (u and v, linked
by the orthogonality constraint, and the real parts of s and r) are held at
the tie-break value 0. Points of this slice are scored from the raw
overlaps, with the validity test and closed form an AttackParams would use;
only the maximizer is built as one. The result is compared against the
closed-form maximum 1 + h(xi).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attack import AttackParams, forward_fidelities, overlap_fault
from .keyrate import BeSpectrumClosedForm, be_spectrum_closed_form, s_be_max

GAP_TOLERANCE = 1e-5
# how closely the returned maximizer must reproduce the observed fidelities
CONSTRAINT_TOLERANCE = 1e-9
# below this flip probability the q0 term cannot compensate anything and p0 is pinned
PINNED_C1SQ = 1e-9
# two grid points, then for each of 2 starts its start point and a 5-d simplex's 6 vertices
MIN_BUDGET = 2 + 2 * (1 + 6)


class InfeasibleConstraintError(ValueError):
    """No attack parameters satisfy the fidelity constraint."""


@dataclass(frozen=True)
class FidelityConstraint:
    """Observed fidelities an attack must reproduce.

    Attributes:
        c0sq: computational-basis fidelity f01 (undisturbed probability).
        cppsq: diagonal-basis fidelity fpm.
    """

    c0sq: float
    cppsq: float

    def __post_init__(self) -> None:
        for name, val in (("c0sq", self.c0sq), ("cppsq", self.cppsq)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")

    @property
    def c1sq(self) -> float:
        return 1.0 - self.c0sq

    @property
    def xi(self) -> float:
        return self.cppsq - self.c1sq


@dataclass(frozen=True)
class OptResult:
    """Outcome of one constrained entropy maximization.

    Attributes:
        best_params: the best attack found.
        best_entropy: its entropy in bits.
        closed_form_entropy: the analytic maximum 1 + h(xi).
        gap: closed_form_entropy - best_entropy.
        iterations: objective evaluations spent.
        converged: |gap| within the certification tolerance.
    """

    best_params: AttackParams
    best_entropy: float
    closed_form_entropy: float
    gap: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "best_params": self.best_params.to_dict()}


def entropy_objective(params: AttackParams) -> float:
    """Entropy of the averaged qubit-ancilla state, in bits.

    Evaluates the closed-form spectrum, which holds at any amplitudes and
    matches brute-force diagonalization (s_be_numeric) within 1e-10.
    """
    return be_spectrum_closed_form(params).entropy()


class _Slice:
    """The search space x = (p0, p1, q1, s1, r1) of one constraint.

    The amplitudes are c00 = c11 = sqrt(f01) and c01 = c10 = sqrt(1 - f01);
    q0 is solved from the boundary identity, and u = v = 0 and Re s =
    Re r = 0 (the tie-break value of directions that cancel from the
    spectrum). The amplitudes are validated once, here; u = v = 0 keeps the
    branches orthogonal, so only the overlaps vary from point to point.
    [lo, hi] is the p0 interval on which q0 stays in [-1, 1]; without a
    flip amplitude (c1sq <= PINNED_C1SQ) it is the single pinned p0.
    """

    def __init__(self, constraint: FidelityConstraint) -> None:
        self.c0sq = constraint.c0sq
        self.c1sq = constraint.c1sq
        self.c0 = math.sqrt(self.c0sq)
        self.c1 = math.sqrt(self.c1sq)
        self.pinned = 2.0 * constraint.cppsq - 1.0
        AttackParams(c00=self.c0, c01=self.c1, c11=self.c0, c10=self.c1)
        if self.c1sq > PINNED_C1SQ:
            self.lo = max(-1.0, (self.pinned - self.c1sq) / self.c0sq)
            self.hi = min(1.0, (self.pinned + self.c1sq) / self.c0sq)
        else:
            self.lo = self.hi = self.pinned / self.c0sq

    def overlaps(self, x: np.ndarray) -> tuple[complex, complex, complex, complex] | None:
        """(s, p, r, q) at x, or None when p0 or q0 leaves [-1, 1]."""
        p0, p1, q1, s1, r1 = (float(t) for t in x)
        if self.c1sq > PINNED_C1SQ:
            q0 = (self.pinned - self.c0sq * p0) / self.c1sq
        else:
            p0, q0 = self.lo, 1.0  # project onto the pinned p0
        if abs(p0) > 1.0 or abs(q0) > 1.0:
            return None
        return complex(0.0, s1), complex(p0, p1), complex(0.0, r1), complex(q0, q1)

    def params(self, x: np.ndarray) -> AttackParams | None:
        """The attack at x, None outside the box; raises AttackValidationError."""
        ov = self.overlaps(x)
        if ov is None:
            return None
        s, p, r, q = ov
        c0, c1 = self.c0, self.c1
        return AttackParams(c00=c0, c01=c1, c11=c0, c10=c1, s=s, u=0j, p=p, r=r, v=0j, q=q)

    def neg_entropy(self, x: np.ndarray) -> float:
        """-entropy_objective(params(x)), or inf where params(x) is None or raises.

        Decides validity with attack.overlap_fault and scores with
        BeSpectrumClosedForm.from_block, the routes AttackParams and
        be_spectrum_closed_form take, so the value is the same bits.
        """
        ov = self.overlaps(x)
        if ov is None:
            return math.inf
        s, p, r, q = ov
        if overlap_fault(s, 0j, p, r, 0j, q) is not None:
            return math.inf
        c0, c1 = self.c0, self.c1
        m = c0 * c0 * p - c1 * c1 * q
        return -BeSpectrumClosedForm.from_block(m, c0 * c1 * s.imag, c1 * c0 * r.imag).entropy()


def maximize_s_be(constraint: FidelityConstraint, budget: int = 20000) -> OptResult:
    """Maximize the eavesdropper entropy under a fidelity constraint.

    A grid along p0, then Nelder-Mead from p0 = lo (q0 = 1) and from the
    best grid point, or from lo alone when that is the best grid point;
    each run may spend half the budget left after the grid. Evaluations
    score the slice directly (_Slice.neg_entropy); the maximizer is built
    and validated as an AttackParams.

    Args:
        constraint: observed f01 and fpm the attack must reproduce.
        budget: cap on objective evaluations over all stages, >= MIN_BUDGET;
            the search is deterministic in (constraint, budget).

    Returns:
        OptResult with the best attack, its entropy, and the gap to the
        closed-form maximum.

    Raises:
        ValueError: budget below MIN_BUDGET.
        BoundaryViolationError: constraint lies below the xi >= 1/2 region.
        InfeasibleConstraintError: no overlap assignment can meet it.
    """
    # not at module level: scipy.optimize is most of a cold start of the CLI
    from scipy.optimize import minimize

    if budget < MIN_BUDGET:
        raise ValueError(f"budget={budget} is below the minimum {MIN_BUDGET}")
    c0sq = constraint.c0sq
    c1sq = constraint.c1sq
    cppsq = constraint.cppsq
    closed_form = s_be_max(c0sq, c1sq, cppsq)
    space = _Slice(constraint)
    lo, hi = space.lo, space.hi

    evals = 0

    def neg_entropy(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return space.neg_entropy(x)

    if lo > hi + 1e-12 or hi < -1.0 or lo > 1.0:
        raise InfeasibleConstraintError(
            f"no p0 satisfies the boundary identity for {constraint}"
        )

    # stage 1: grid along the one constrained real direction
    n_grid = max(2, min(41, budget // 8)) if hi > lo else 1
    grid = np.linspace(lo, hi, n_grid)
    grid_scores = [neg_entropy(np.array([p0, 0.0, 0.0, 0.0, 0.0])) for p0 in grid]
    best_grid_p0 = float(grid[int(np.argmin(grid_scores))])

    # stage 2: simplex refinement from the analytic candidate q0 = 1, which
    # is p0 = lo, and from the best grid point unless that is lo too (a
    # second run would repeat the first). A lone start still gets half the
    # remaining budget, so whether the starts coincide never changes where
    # a start stops.
    start_p0s = (lo,) if best_grid_p0 == lo else (lo, best_grid_p0)
    starts = [np.array([p0, 0.0, 0.0, 0.0, 0.0]) for p0 in start_p0s]
    per_start = (budget - evals) // 2

    candidates: list[tuple[float, np.ndarray]] = []
    for x0 in starts:
        score0 = neg_entropy(x0)
        if np.isfinite(score0):
            candidates.append((score0, x0))
        # inf marks infeasible proposals; silence the inf-inf comparison noise
        with np.errstate(invalid="ignore"):
            res = minimize(
                neg_entropy,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": per_start - 1,  # x0 was scored above
                    "xatol": 1e-9,
                    "fatol": 1e-12,
                },
            )
        if np.isfinite(res.fun):
            candidates.append((float(res.fun), res.x))

    if not candidates:
        raise InfeasibleConstraintError(
            f"search found no valid attack for {constraint}"
        )

    def tie_break(entry: tuple[float, np.ndarray]) -> tuple[float, float]:
        score, x = entry
        # smaller (q1, p1) wins between equal entropies; s0 = r0 = 0 already
        return (round(score / 1e-12) * 1e-12, float(np.hypot(x[2], x[1])))

    _, best_x = min(candidates, key=tie_break)
    best_params = space.params(best_x)
    if best_params is None:
        raise InfeasibleConstraintError("refinement left the feasible region")
    best_entropy = entropy_objective(best_params)

    fids = forward_fidelities(best_params)
    if (
        abs(fids.f01 - c0sq) > CONSTRAINT_TOLERANCE
        or abs(fids.fpm - cppsq) > CONSTRAINT_TOLERANCE
    ):
        raise InfeasibleConstraintError(
            f"maximizer violates the fidelity constraint: {fids.to_dict()}"
        )

    gap = closed_form - best_entropy
    return OptResult(
        best_params=best_params,
        best_entropy=best_entropy,
        closed_form_entropy=closed_form,
        gap=gap,
        iterations=evals,
        converged=abs(gap) <= GAP_TOLERANCE,
    )
