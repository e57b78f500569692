import numpy as np
import pytest

from dqkd.attack import (
    OVERLAP_NAMES,
    AttackParams,
    GramNotPositiveError,
    forward_fidelities,
    named_attack,
)
from dqkd.keyrate import s_be_numeric
from dqkd.optimizer import (
    CONSTRAINT_TOLERANCE,
    FidelityConstraint,
    entropy_objective,
    maximize_s_be,
)
from dqkd.rates import PSD_SLACK, BoundaryViolationError
from dqkd.verify import sample_valid
from oracles import MIN_BUDGET, gram_literal, search_s_be

# precomputed with 30-digit arithmetic
ONE_PLUS_H_075 = 1.8112781244591329


def test_entropy_objective_special_attacks():
    assert entropy_objective(named_attack("identity")) == pytest.approx(1.0, abs=1e-12)
    assert entropy_objective(named_attack("measure_z")) == pytest.approx(2.0, abs=1e-12)
    assert entropy_objective(named_attack("measure_x")) == pytest.approx(2.0, abs=1e-12)


def test_entropy_objective_routes_agree():
    # the closed form against diagonalization, symmetric or not
    for seed in range(30):
        for symmetric in (True, False):
            params = sample_valid(seed=seed, symmetric=symmetric)
            assert abs(entropy_objective(params) - s_be_numeric(params)) <= 1e-10


def test_constraint_validation():
    c = FidelityConstraint(c0sq=0.9, cppsq=0.95)
    assert c.c1sq == pytest.approx(0.1)
    assert c.xi == pytest.approx(0.85)
    with pytest.raises(ValueError):
        FidelityConstraint(c0sq=1.2, cppsq=0.9)
    with pytest.raises(ValueError):
        FidelityConstraint(c0sq=0.9, cppsq=-0.1)


def test_perfect_channel_forces_one_bit():
    result = maximize_s_be(FidelityConstraint(c0sq=1.0, cppsq=1.0))
    assert result.closed_form_entropy == pytest.approx(1.0, abs=1e-12)
    assert abs(result.gap) <= 1e-6
    assert result.converged


def test_undisturbed_computational_basis_example():
    # f01 = 1, fpm = 3/4 leaves the eavesdropper 1 + h(3/4) bits
    result = maximize_s_be(FidelityConstraint(c0sq=1.0, cppsq=0.75))
    assert result.closed_form_entropy == pytest.approx(ONE_PLUS_H_075, abs=1e-14)
    assert abs(result.gap) <= 1e-5
    assert result.best_entropy == pytest.approx(ONE_PLUS_H_075, abs=1e-5)


def test_search_is_sound_and_complete():
    rng = np.random.default_rng(5)
    for _ in range(8):
        c0sq = rng.uniform(0.75, 1.0)
        # keep xi = cppsq - (1 - c0sq) inside the operating region
        cppsq = rng.uniform(1.5 - c0sq + 0.01, 1.0)
        result = maximize_s_be(FidelityConstraint(c0sq=c0sq, cppsq=cppsq))
        # never exceeds the proven ceiling, and reaches it
        assert result.best_entropy <= result.closed_form_entropy + 1e-8
        assert abs(result.gap) <= 1e-5
        # the maximizer uses only the two load-bearing overlap components
        best = result.best_params
        assert abs(best.s.real) <= 1e-3 and abs(best.r.real) <= 1e-3
        assert abs(best.q.imag) <= 1e-3 and abs(best.p.imag) <= 1e-3


def test_search_is_deterministic():
    # nothing in the search oracle is random: a constraint and a budget fix the result
    c = FidelityConstraint(c0sq=0.9, cppsq=0.92)
    a = search_s_be(c, budget=5000)
    b = search_s_be(c, budget=5000)
    assert a == b
    assert a.iterations <= 5000


def test_no_start_exhausts_its_share():
    # each of the two simplex starts gets about half the budget; both
    # converge long before spending it, so a larger budget changes nothing
    for c0sq, cppsq in ((0.9, 0.9), (0.8, 0.85), (1.0, 0.75)):
        c = FidelityConstraint(c0sq=c0sq, cppsq=cppsq)
        result = search_s_be(c, budget=20000)
        assert result.iterations < 20000 // 2
        assert search_s_be(c, budget=40000) == result


@pytest.mark.parametrize(
    "c0sq, cppsq, entropy_hex, max_iterations",
    [
        (0.9, 0.9, "0x1.b8d047959ad49p+0", 611),
        (0.8, 0.85, "0x1.ef1f158613782p+0", 594),
        (1.0, 0.75, "0x1.cfafec54831f2p+0", 205),
        (0.9, 0.92, "0x1.ae19877e29cb4p+0", 569),
        (0.7715960402188387, 0.8132663915296381, "0x1.faa794139a2d0p+0", 2341),
    ],
)
def test_pinned_results(c0sq, cppsq, entropy_hex, max_iterations):
    # the maximum found, to the last bit, and an upper bound on its cost:
    # one simplex run where the best grid point is the analytic candidate
    result = search_s_be(FidelityConstraint(c0sq=c0sq, cppsq=cppsq))
    assert result.best_entropy.hex() == entropy_hex
    assert result.iterations <= max_iterations


def test_budget_caps_every_evaluation():
    # each start's share pays for its start point too, so a binding
    # budget is never overspent
    c = FidelityConstraint(c0sq=0.9, cppsq=0.9)
    for budget in (MIN_BUDGET, 1000):
        assert search_s_be(c, budget=budget).iterations <= budget
    for budget in (10, -5, MIN_BUDGET - 1):
        with pytest.raises(ValueError, match="budget"):
            search_s_be(c, budget=budget)


def test_maximizer_respects_the_constraint():
    c = FidelityConstraint(c0sq=0.85, cppsq=0.9)
    result = maximize_s_be(c)
    f = forward_fidelities(result.best_params)
    assert abs(f.f01 - c.c0sq) <= CONSTRAINT_TOLERANCE
    assert abs(f.fpm - c.cppsq) <= CONSTRAINT_TOLERANCE


def test_maximizer_at_the_gram_slack_is_realizable():
    # the search's maximizer here has its smallest Gram eigenvalue within
    # 1e-15 of the -1e-10 slack, where eigvalsh and eigh land on opposite
    # sides of it
    c = FidelityConstraint(c0sq=0.7715960402188387, cppsq=0.8132663915296381)
    result = search_s_be(c, budget=20000)
    assert abs(s_be_numeric(result.best_params) - result.best_entropy) <= 1e-10


def test_library_attack_at_the_gram_slack_is_realizable():
    # the search's maximizer above lies 3.8e-16 past the slack (60-digit
    # arithmetic): eigvalsh admits it, the Gram pivots reject it. Shrinking
    # its overlaps by t moves lambda_min to t lambda + 1 - t; at the largest
    # float t that AttackParams accepts, the attack sits on the library's
    # side of the slack within 1e-15, and it is realizable too
    c = FidelityConstraint(c0sq=0.7715960402188387, cppsq=0.8132663915296381)
    best = search_s_be(c, budget=20000).best_params
    amps = {name: getattr(best, name) for name in ("c00", "c01", "c11", "c10")}

    def built(t: float) -> AttackParams | None:
        try:
            return AttackParams(**amps, **{n: t * getattr(best, n) for n in OVERLAP_NAMES})
        except GramNotPositiveError:
            return None

    inside, outside = 1.0 - 1e-12, 1.0
    assert built(inside) is not None and built(outside) is None
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        if built(mid) is None:
            outside = mid
        else:
            inside = mid
    attack = built(inside)
    gram = gram_literal(*(getattr(attack, n) for n in OVERLAP_NAMES))
    assert abs(np.linalg.eigvalsh(gram)[0] - PSD_SLACK) <= 1e-15
    assert abs(s_be_numeric(attack) - entropy_objective(attack)) <= 1e-10


def test_infeasible_constraint_raises():
    # xi = 0.70 - 0.25 = 0.45 < 1/2: the protocol would have aborted
    with pytest.raises(BoundaryViolationError):
        maximize_s_be(FidelityConstraint(c0sq=0.75, cppsq=0.70))


def test_result_serialization():
    result = maximize_s_be(FidelityConstraint(c0sq=1.0, cppsq=0.75))
    doc = result.to_dict()
    assert sorted(doc) == [
        "best_entropy", "best_params", "closed_form_entropy",
        "converged", "gap", "iterations",
    ]
    assert doc["best_params"]["c00"] == pytest.approx(1.0)


def _claim4_grid() -> list[tuple[float, float]]:
    # the acceptance suite's claim-4 constraints
    return [
        (float(c0sq), float(cppsq))
        for c0sq in np.linspace(0.75, 1.0, 10)
        for cppsq in np.linspace(1.5 - c0sq + 0.02, 1.0, 10)
    ]


def _random_constraints(count: int) -> list[tuple[float, float]]:
    # f01 in [1/2, 1] and fpm anywhere in the xi >= 1/2 region above it
    rng = np.random.default_rng(23)
    out = []
    for _ in range(count):
        c0sq = float(rng.uniform(0.5, 1.0))
        out.append((c0sq, float(rng.uniform(1.5 - c0sq, 1.0))))
    return out


def test_analytic_maximizer_shape_and_entropy():
    # q0 = 1 and p real exactly, every other overlap exactly 0; the
    # fidelities hold and diagonalization agrees with the closed form
    for c0sq, cppsq in _claim4_grid() + _random_constraints(50):
        c = FidelityConstraint(c0sq=c0sq, cppsq=cppsq)
        result = maximize_s_be(c)
        best = result.best_params
        assert best.q == 1 + 0j
        assert best.s == best.r == best.u == best.v == 0
        assert best.p.imag == 0.0
        f = forward_fidelities(best)
        assert abs(f.f01 - c.c0sq) <= CONSTRAINT_TOLERANCE
        assert abs(f.fpm - c.cppsq) <= CONSTRAINT_TOLERANCE
        assert abs(s_be_numeric(best) - result.best_entropy) <= 1e-10
        assert result.iterations == 1


def test_analytic_maximizer_at_the_edges():
    # a flip probability of 1e-10: the solved p0 still meets fpm
    for cppsq in (0.6, 0.75, 0.9, 1.0):
        result = maximize_s_be(FidelityConstraint(c0sq=1.0 - 1e-10, cppsq=cppsq))
        assert abs(forward_fidelities(result.best_params).fpm - cppsq) <= 1e-15
    # xi = 1/2 exactly, where the ceiling is 2 bits
    c = FidelityConstraint(c0sq=1.0, cppsq=0.5)
    assert c.xi == 0.5
    assert maximize_s_be(c).best_entropy == 2.0
    # the boundary slack is 1e-12 either way
    maximize_s_be(FidelityConstraint(c0sq=1.0, cppsq=0.5 - 1e-13))
    with pytest.raises(BoundaryViolationError):
        maximize_s_be(FidelityConstraint(c0sq=1.0, cppsq=0.5 - 1e-11))
    with pytest.raises(ValueError, match="budget"):
        maximize_s_be(c, budget=0)


def test_analytic_maximizer_is_the_symmetric_attack():
    # with f01 = fpm = 1 - e the maximizer is the symmetric attack of disturbance e
    for e in np.linspace(0.0, 0.25, 26):
        best = maximize_s_be(FidelityConstraint(c0sq=1.0 - e, cppsq=1.0 - e)).best_params
        ref = named_attack("symmetric", float(e))
        for name in ("c00", "c01", "c11", "c10", "s", "u", "p", "r", "v", "q"):
            assert abs(getattr(best, name) - getattr(ref, name)) <= 1e-15, (e, name)
