"""Independent reference routes that the tests compare the library against.

The library computes channel fidelities from the Gram matrix of the ancilla
kets alone. The oracle here takes the simulation route instead: it realizes
the attack as an explicit 8x8 unitary on qubit ox ancilla, sends a probe
state through it and measures the reduced qubit. The library places each
branch ket's qubit components by slicing; the oracle builds the same kets
from Kronecker products with the qubit basis.

The library decides Gram positivity by the LDL pivots of G - PSD_SLACK I;
the oracle here diagonalizes G (eigvalsh_gram_verdict). Both are exact
criteria for lambda_min(G) > PSD_SLACK, so they can part only within
rounding of the slack.

The library builds the entropy-maximizing attack in closed form; the
oracle here rediscovers it by derivative-free search (search_s_be), a grid
along the one constrained direction and a Nelder-Mead simplex, with no
knowledge of the answer beyond its starting point. The search admits a
point by its own checks, the Gram matrix by eigvalsh_gram_verdict, and
returns a SliceAttack, not an AttackParams. Its simplex presses on the
slack, where the two verdicts can part: they differ on 437 of the 46,536
Gram matrices that the tests' searches judge, and with the pivot verdict
inside the search, in any of the 24 pivot orders, the simplex takes other
paths. So the search keeps eigvalsh, the criterion its pinned results were
found with, and its maximizer can lie a rounding error past the library's
slack.

The one-attack branch vectors (branch_vectors) and the encoding flip
(Y_GATE) that the tests read live here too, since the library needs
neither.

The library's binary entropy is double-precision logarithms; the oracle
here evaluates it in 50-digit decimal arithmetic.

The library simulates a protocol run on Python floats around one
multinomial draw; the oracle here builds the same 24 cell probabilities as
numpy columns (column_stack_cells) and runs the protocol on arrays
(array_run_protocol). The two must agree bit for bit. Tests import these
with ``from oracles import ...``.
"""

import decimal
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from dqkd.attack import (
    OVERLAP_ATOL,
    AttackParams,
    AttackValidationError,
    ChannelFidelities,
    forward_fidelities,
)
from dqkd.optimizer import (
    CONSTRAINT_TOLERANCE,
    GAP_TOLERANCE,
    FidelityConstraint,
    InfeasibleConstraintError,
    OptResult,
    entropy_objective,
)
from dqkd.keyrate import attack_rows, branch_stack, realize_ancilla
from dqkd.protosim import (
    BASIS_OF,
    COMPLEMENT,
    STATE_LABELS,
    ProtocolConfig,
    ProtocolStats,
    estimate_with_se,
)
from dqkd.qstate import (
    ComplexMatrix,
    DensityMatrix,
    Ket,
    outer,
    partial_trace,
)
from dqkd.rates import (
    BOUNDARY_ATOL,
    BOUNDARY_XI,
    PSD_SLACK,
    KeyRateReport,
    final_rate,
    s_be_max,
)

# Encoding flip |0><1| - |1><0|. Real antisymmetric; differs from the Pauli Y
# by a global phase, so conjugating a state with it is the same operation.
Y_GATE = np.array([[0, 1], [-1, 0]], dtype=complex)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2.0)
STATE_KETS = {"0": KET_0, "1": KET_1, "+": KET_PLUS, "-": KET_MINUS}

# below this flip probability the q0 term cannot compensate anything and p0 is pinned
PINNED_C1SQ = 1e-9
# two grid points, then for each of 2 starts its start point and a 5-d simplex's 6 vertices
MIN_BUDGET = 2 + 2 * (1 + 6)


def binary_entropy_decimal(x: float) -> float:
    """h(x) at the exact value of the float x, in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p = decimal.Decimal(x)
        ln2 = decimal.Decimal(2).ln()
        return float(sum((-t * t.ln() / ln2 for t in (p, 1 - p) if t > 0), decimal.Decimal(0)))


def branch_vectors(params: AttackParams) -> tuple[Ket, Ket]:
    """(U(|0> ox |E>), U(|1> ox |E>)) of one attack: the library's
    branch_stack for k = 1."""
    return tuple(branch_stack(*attack_rows([params]))[0])


def kron_branch_vectors(params: AttackParams) -> tuple[Ket, Ket]:
    """U(|0> ox |E>) and U(|1> ox |E>) as sums of qubit ox ancilla products."""
    e00, e01, e11, e10 = realize_ancilla(params)
    phi0 = params.c00 * np.kron(KET_0, e00) + params.c01 * np.kron(KET_1, e01)
    phi1 = params.c11 * np.kron(KET_1, e11) + params.c10 * np.kron(KET_0, e10)
    return phi0, phi1


def build_unitary(params: AttackParams) -> ComplexMatrix:
    """8x8 unitary realizing the attack on qubit ox ancilla.

    The columns for inputs |0> ox |E> and |1> ox |E> (ancilla reference ket
    = first basis vector) are exactly the two branch vectors; the remaining
    columns are an orthonormal completion of the complement.
    """
    phi0, phi1 = branch_vectors(params)
    u = np.zeros((8, 8), dtype=complex)
    u[:, 0] = phi0
    u[:, 4] = phi1
    # orthonormal basis of the complement via the projector's eigenvectors
    proj = np.eye(8, dtype=complex) - outer(phi0) - outer(phi1)
    lam, vecs = np.linalg.eigh(proj)
    complement = vecs[:, lam > 0.5]
    if complement.shape[1] != 6:
        raise AttackValidationError("branch vectors do not span a 2-dim subspace")
    for col, idx in zip(complement.T, (1, 2, 3, 5, 6, 7)):
        u[:, idx] = col
    return u


def probe_outcome_probability(params: AttackParams, prepared: str, outcome: str) -> float:
    """P(measuring the attacked probe as `outcome`), by direct simulation.

    Sends the prepared state through a realized attack, traces out the
    ancilla, and projects the reduced qubit state onto the outcome state.
    With outcome == prepared this is the channel fidelity; it provides the
    simulation-route counterpart to the closed-form forward_fidelities.
    """
    phi0, phi1 = branch_vectors(params)
    prep = STATE_KETS[prepared]
    attacked = prep[0] * phi0 + prep[1] * phi1
    rho = DensityMatrix(outer(attacked), dims=(2, 4))
    reduced = partial_trace(rho, keep=(0,))
    out = STATE_KETS[outcome]
    return float(np.real(np.conjugate(out) @ reduced.matrix @ out))


def gram_literal(s, u, p, r, v, q) -> np.ndarray:
    """The Gram matrix of (|E00>, |E01>, |E11>, |E10>), entry by entry."""
    c = np.conjugate
    return np.array(
        [[1.0, s, p, u], [c(s), 1.0, v, q], [c(p), c(v), 1.0, r], [c(u), c(q), c(r), 1.0]],
        dtype=complex,
    )


def eigvalsh_gram_verdict(overlaps) -> np.ndarray:
    """Gram positivity of (k, 6) overlaps, in OVERLAP_NAMES order, by
    diagonalization: eigvalsh(G).min() >= PSD_SLACK for each row."""
    gram = np.array([gram_literal(*row) for row in overlaps])
    return np.linalg.eigvalsh(gram)[:, 0] >= PSD_SLACK


@dataclass(frozen=True)
class SliceAttack:
    """An attack that the search oracle admits by its own checks: the
    fields of an AttackParams, not validated by the library. The library's
    functions of an attack (entropy_objective, forward_fidelities,
    s_be_numeric) read its fields as they read an AttackParams'."""

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


class _Slice:
    """The search space x = (p0, p1, q1, s1, r1) of one constraint.

    The amplitudes are c00 = c11 = sqrt(f01) and c01 = c10 = sqrt(1 - f01);
    q0 is solved from the boundary identity, and u = v = 0 and Re s =
    Re r = 0 (the tie-break value of directions that cancel from the
    spectrum). params builds a point as a validated AttackParams; attack
    admits it by the oracle's own checks, which the search uses.
    [lo, hi] is the p0 interval on which q0 stays in [-1, 1]; without a
    flip amplitude (c1sq <= PINNED_C1SQ) it is the single pinned p0.
    """

    def __init__(self, constraint: FidelityConstraint) -> None:
        self.c0sq = constraint.c0sq
        self.c1sq = constraint.c1sq
        self.c0 = math.sqrt(self.c0sq)
        self.c1 = math.sqrt(self.c1sq)
        self.pinned = 2.0 * constraint.cppsq - 1.0
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

    def attack(self, x: np.ndarray) -> SliceAttack | None:
        """The attack at x, or None where the oracle rejects it: off the
        box, an overlap outside the unit disc, or a Gram matrix that
        eigvalsh_gram_verdict rejects. The amplitudes are normalized and
        u = v = 0 is orthogonal throughout."""
        ov = self.overlaps(x)
        if ov is None or not all(abs(z) <= 1.0 + OVERLAP_ATOL for z in ov):
            return None
        s, p, r, q = ov
        if not eigvalsh_gram_verdict([(s, 0j, p, r, 0j, q)])[0]:
            return None
        c0, c1 = self.c0, self.c1
        return SliceAttack(c00=c0, c01=c1, c11=c0, c10=c1, s=s, u=0j, p=p, r=r, v=0j, q=q)

    def neg_entropy(self, x: np.ndarray) -> float:
        """-entropy_objective(attack(x)), or inf where attack(x) is None."""
        attack = self.attack(x)
        return math.inf if attack is None else -entropy_objective(attack)


def search_s_be(constraint: FidelityConstraint, budget: int = 20000) -> OptResult:
    """Maximize the eavesdropper entropy under a fidelity constraint by search.

    A grid along p0, then Nelder-Mead from p0 = lo (q0 = 1) and from the
    best grid point, or from lo alone when that is the best grid point;
    each run may spend half the budget left after the grid. Each evaluation
    admits the attack by the oracle's checks (_Slice.attack) and scores it
    with entropy_objective (_Slice.neg_entropy); the best one is returned
    as that SliceAttack, so it can lie a rounding error past the library's
    slack.

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
    if budget < MIN_BUDGET:
        raise ValueError(f"budget={budget} is below the minimum {MIN_BUDGET}")
    c0sq = constraint.c0sq
    cppsq = constraint.cppsq
    closed_form = s_be_max(constraint.xi)
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
    best_params = space.attack(best_x)
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


def column_stack_cells(config: ProtocolConfig, fids: ChannelFidelities) -> np.ndarray:
    """The 24 cell probabilities of a run as one flat array.

    Rows follow STATE_LABELS; the columns are hit, miss, discarded,
    announced error, announced correct and raw key, each built as a numpy
    column over the four states.
    """
    f = np.clip([fids.f0, fids.f1, fids.fplus, fids.fminus], 0.0, 1.0)
    b = config.backward_noise
    e = np.clip((1.0 - f) * (1.0 - b) + f * b, 0.0, 1.0)
    c = config.check_fraction
    a = config.announce_fraction
    cells = 0.25 * np.column_stack([
        0.5 * c * f,
        0.5 * c * (1.0 - f),
        np.full(4, 0.5 * c),
        (1.0 - c) * a * e,
        (1.0 - c) * a * (1.0 - e),
        np.full(4, (1.0 - c) * (1.0 - a)),
    ])
    return cells.ravel()


def array_run_protocol(config: ProtocolConfig) -> tuple[ProtocolStats, KeyRateReport]:
    """protosim.run_protocol on numpy arrays, drawing from column_stack_cells."""
    cells = column_stack_cells(config, forward_fidelities(config.attack))
    rng = np.random.default_rng(config.seed)
    tally = rng.multinomial(config.n, cells).reshape(4, 6).tolist()
    hits, misses, discarded, ann_err, ann_ok, raw = zip(*tally)

    counts: dict[str, int] = {}
    for label, hit, miss in zip(STATE_LABELS, hits, misses):
        basis = BASIS_OF[label]
        if hit:
            counts[f"{label}|{basis}|{label}"] = hit
        if miss:
            counts[f"{label}|{basis}|{COMPLEMENT[label]}"] = miss
    est_f, se_f = np.array(
        [estimate_with_se(hit, hit + miss) for hit, miss in zip(hits, misses)]
    ).T

    n_announced = sum(ann_err) + sum(ann_ok)
    m = sum(raw)
    est_e, se_e = estimate_with_se(sum(ann_err), n_announced)

    est_xi = ChannelFidelities(*est_f.tolist()).xi
    se_xi = 0.5 * math.sqrt(float(np.sum(se_f**2)))

    report = final_rate(
        min(max(est_xi, -1.0), 1.0),
        min(max(float(est_e), 0.0), 0.5),
    )
    aborted = bool(est_xi - config.abort_slack_z * se_xi < BOUNDARY_XI - BOUNDARY_ATOL)
    if aborted:
        # an aborted run reports no key, whichever of point estimate and slack aborted it
        report = KeyRateReport(xi=report.xi, e=report.e, r_pa=0.0, r_final=0.0,
                               r_final_raw=report.r_final_raw, r_bb84=report.r_bb84,
                               boundary_ok=False)
    k_est = 0 if aborted else max(0, int(round(m * report.r_final)))

    stats = ProtocolStats(
        counts=counts,
        n_check_consistent=sum(hits) + sum(misses),
        n_check_discarded=sum(discarded),
        n_announced=n_announced,
        m=m,
        est_f0=float(est_f[0]),
        se_f0=float(se_f[0]),
        est_f1=float(est_f[1]),
        se_f1=float(se_f[1]),
        est_fplus=float(est_f[2]),
        se_fplus=float(se_f[2]),
        est_fminus=float(est_f[3]),
        se_fminus=float(se_f[3]),
        est_e=float(est_e),
        se_e=float(se_e),
        est_xi=est_xi,
        se_xi=float(se_xi),
        k_est=k_est,
        aborted=aborted,
    )
    return stats, report


def bernstein_halfwidth(n: int, p: float, level: float) -> float:
    """Half-width t of a two-sided Bernstein interval for a Binomial(n, p) count X.

    A sum of n independent [0, 1] draws obeys
    P(|X - n p| >= t) <= 2 exp(-t^2 / (2 (n p (1 - p) + t/3))), which is
    2 exp(-level) at t = level/3 + sqrt(level^2/9 + 2 level n p (1 - p)).
    """
    var = n * p * (1.0 - p)
    return level / 3.0 + math.sqrt(level * level / 9.0 + 2.0 * level * var)
