"""Certification of the package's headline numerical guarantees.

One test per advertised claim, each printing a single [PASS]/[FAIL] line
(visible with pytest -s) and asserting the same condition. Frozen reference
values were precomputed once with 30-digit arithmetic.
"""

import json
import time
from dataclasses import replace

import numpy as np

from dqkd.attack import (
    AttackParams,
    AttackValidationError,
    forward_fidelities,
    named_attack,
    sample_valid,
    validate,
)
from dqkd.keyrate import (
    backward_indistinguishability,
    be_spectrum_closed_form,
    build_rho_abe,
    final_rate,
)
from dqkd.optimizer import FidelityConstraint, maximize_s_be
from dqkd.protosim import ProtocolConfig, run_protocol
from dqkd.qstate import binary_entropy, von_neumann_entropy
from oracles import search_s_be

H_005 = 0.2863969571159561  # h(0.05)
H_01 = 0.4689955935892812  # h(0.1)
TWO_WAY_CROSSING = 0.07567945601099242  # root of 1 - h(2e) - h(e)
COMPARATOR_CROSSING = 0.11002786443835955  # root of 1 - 2 h(e)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_joint_entropy_is_exactly_two_bits():
    # 1000 random valid attacks; the eavesdropper's joint uncertainty about
    # (key bit, returning qubit) must be 2 bits to within 1e-9
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        params = sample_valid(seed=seed, symmetric=bool(seed % 2))
        s = von_neumann_entropy(build_rho_abe(params).rho_abe)
        worst = max(worst, abs(s - 2.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _report(
        "joint entropy pins two bits",
        ok,
        f"max |S - 2| = {worst:.3e} over 1000 draws in {dt:.1f}s",
    )
    assert worst <= 1e-9
    assert dt < 10.0


def test_closed_form_spectrum_matches_diagonalization():
    # 1000 symmetric and 1000 asymmetric attacks; the four closed-form
    # eigenvalues (plus four exact zeros) must match brute-force
    # diagonalization within 1e-10
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        for symmetric in (True, False):
            params = sample_valid(seed=seed, symmetric=symmetric)
            closed = np.concatenate([be_spectrum_closed_form(params).spectrum(), np.zeros(4)])
            brute = build_rho_abe(params).rho_be.spectrum()
            worst = max(worst, float(np.max(np.abs(np.sort(closed)[::-1] - brute))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 10.0
    _report(
        "closed-form spectrum oracle",
        ok,
        f"max eigenvalue deviation = {worst:.3e} over 2000 draws in {dt:.1f}s",
    )
    assert worst <= 1e-10
    assert dt < 10.0


def _perturb_insensitive(params: AttackParams, rng: np.random.Generator):
    """Shift u (dragging v along the orthogonality constraint) and the real
    parts of s and r; halve the step until the perturbation validates."""
    step_u = 0.05 * np.exp(2j * np.pi * rng.random())
    step_s = 0.05 * (2.0 * rng.random() - 1.0)
    step_r = 0.05 * (2.0 * rng.random() - 1.0)
    pinned = abs(params.c01 * params.c11) <= 1e-6
    for _ in range(20):
        u = params.u if pinned else params.u + step_u
        v = params.v if pinned else -(params.c00 * params.c10 * u) / (params.c01 * params.c11)
        try:
            candidate = replace(
                params, u=u, v=v, s=params.s + step_s, r=params.r + step_r
            )
            return validate(candidate), abs(step_s)
        except AttackValidationError:
            step_u *= 0.5
            step_s *= 0.5
            step_r *= 0.5
    return None, 0.0


def test_spectrum_ignores_the_cancelled_overlap_components():
    # the four cross and real overlap components (u, the constraint-linked v,
    # Re s, Re r) drop out of the spectrum; the imaginary parts of s and r
    # do not, and the control below proves the test can see a real shift
    rng = np.random.default_rng(0)
    worst = 0.0
    biggest_step = 0.0
    for seed in range(200):
        params = sample_valid(seed=seed, symmetric=bool(seed % 2))
        perturbed, step = _perturb_insensitive(params, rng)
        if perturbed is None:
            continue
        biggest_step = max(biggest_step, step)
        before = build_rho_abe(params).rho_be.spectrum()
        after = build_rho_abe(perturbed).rho_be.spectrum()
        worst = max(worst, float(np.max(np.abs(before - after))))

    # positive control: an interior attack whose spectrum must move when
    # Im s is shifted by the same nominal step
    base = validate(
        AttackParams(
            c00=np.sqrt(0.8), c01=np.sqrt(0.2),
            c11=np.sqrt(0.8), c10=np.sqrt(0.2),
            p=0.5 + 0j, q=0.9 + 0j,
        )
    )
    moved = validate(replace(base, s=0.05j))
    control = float(
        np.max(
            np.abs(
                build_rho_abe(base).rho_be.spectrum()
                - build_rho_abe(moved).rho_be.spectrum()
            )
        )
    )
    ok = worst <= 1e-10 and biggest_step >= 0.01 and control > 1e-6
    _report(
        "cancelled overlap components",
        ok,
        f"max spectrum shift = {worst:.3e} over 200 trials "
        f"(control shift {control:.3e})",
    )
    assert worst <= 1e-10
    assert biggest_step >= 0.01  # the perturbations were not vacuously tiny
    assert control > 1e-6


def test_entropy_maximum_certification():
    # on a 10x10 grid of feasible fidelities the search oracle must land on
    # the ceiling 1 + h(xi) within 1e-5, with the four cancelled overlap
    # components of its maximizer at zero; the evaluation count is a
    # host-independent guard on its cost. The library's analytic maximizer
    # must reach the ceiling within 1e-14, and the search never beats it
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_component = 0.0
    worst_library_gap = 0.0
    oracle_wins = 0
    evals = 0
    for c0sq in np.linspace(0.75, 1.0, 10):
        for cppsq in np.linspace(1.5 - c0sq + 0.02, 1.0, 10):
            constraint = FidelityConstraint(c0sq=float(c0sq), cppsq=float(cppsq))
            result = search_s_be(constraint, budget=20000)
            library = maximize_s_be(constraint)
            worst_gap = max(worst_gap, abs(result.gap))
            worst_library_gap = max(worst_library_gap, abs(library.gap))
            oracle_wins += result.best_entropy > library.best_entropy
            evals += result.iterations
            best = result.best_params
            worst_component = max(
                worst_component,
                abs(best.r.real), abs(best.s.real),
                abs(best.q.imag), abs(best.p.imag),
            )
            assert result.converged
    dt = time.perf_counter() - t0
    ok = (
        worst_gap <= 1e-5 and worst_component <= 1e-3 and dt < 120.0 and evals <= 61192
        and oracle_wins == 0 and worst_library_gap <= 1e-14
    )
    _report(
        "entropy maximum certification",
        ok,
        f"max |gap| = {worst_gap:.3e}, max stray component = "
        f"{worst_component:.3e} over 100 constraints in {dt:.1f}s, "
        f"{evals} evaluations; analytic max |gap| = {worst_library_gap:.3e}, "
        f"search above it at {oracle_wins} constraints",
    )
    assert worst_gap <= 1e-5
    assert worst_component <= 1e-3
    assert dt < 120.0
    assert evals <= 61192
    assert oracle_wins == 0
    assert worst_library_gap <= 1e-14


def test_special_attack_rates():
    # identity: 1 secret bit per key bit; either full measurement: none
    r_identity = final_rate(forward_fidelities(named_attack("identity")).xi, 0.0)
    r_z = final_rate(forward_fidelities(named_attack("measure_z")).xi, 0.0)
    r_x = final_rate(forward_fidelities(named_attack("measure_x")).xi, 0.0)
    formula_ok = (
        abs(r_identity.r_pa - 1.0) <= 1e-9
        and abs(r_z.r_pa) <= 1e-9
        and abs(r_x.r_pa) <= 1e-9
    )

    # Monte-Carlo reproduction at n = 1e6
    stats, report = run_protocol(ProtocolConfig(attack=named_attack("identity"), n=10**6))
    mc_ok = stats.est_xi == 1.0 and report.r_pa == 1.0 and report.r_final == 1.0
    worst_pa = 0.0
    for name in ("measure_z", "measure_x"):
        stats, report = run_protocol(ProtocolConfig(attack=named_attack(name), n=10**6))
        mc_ok = mc_ok and abs(stats.est_xi - 0.5) <= 3.0 * stats.se_xi
        # at the boundary the rate responds quadratically, so the 3-se window
        # on xi maps to a sub-1e-3 window on the rate
        worst_pa = max(worst_pa, report.r_pa)
    mc_ok = mc_ok and worst_pa <= 1e-3
    ok = formula_ok and mc_ok
    _report(
        "special-attack rates",
        ok,
        f"formula exact, measured stray rate <= {worst_pa:.2e}",
    )
    assert formula_ok
    assert mc_ok


def _bisect_root(f, lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    assert flo > 0.0 > fhi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_rate_curve_comparison():
    # under symmetric disturbance the two-way curve 1 - h(2e) - h(e) stays
    # below the comparator 1 - 2 h(e) on (0, 0.11], and both zero crossings
    # land on the frozen reference roots
    def two_way(e: float) -> float:
        return 1.0 - binary_entropy(2.0 * e) - binary_entropy(e)

    def comparator(e: float) -> float:
        return 1.0 - 2.0 * binary_entropy(e)

    grid = np.arange(1, 101) * 0.0011  # 100 points spanning (0, 0.11]
    strictly_below = all(two_way(e) < comparator(e) for e in grid)

    root_two_way = _bisect_root(two_way, 0.07, 0.08, 1e-6)
    root_comparator = _bisect_root(comparator, 0.10, 0.12, 1e-6)
    roots_ok = (
        abs(root_two_way - TWO_WAY_CROSSING) <= 2e-6
        and abs(root_comparator - COMPARATOR_CROSSING) <= 2e-6
    )
    ok = strictly_below and roots_ok
    _report(
        "rate-curve comparison",
        ok,
        f"crossings at {root_two_way:.6f} and {root_comparator:.6f}",
    )
    assert strictly_below
    assert roots_ok


def test_backward_only_attack_is_futile():
    # the two encodings of the maximally mixed qubit are the same state
    dist = backward_indistinguishability()
    ok = dist <= 1e-12
    _report("backward-only futility", ok, f"trace distance = {dist:.3e}")
    assert dist <= 1e-12


def test_simulation_reproduces_known_rates():
    # clean forward channel with injected backward noise b: the error
    # estimate must land on b and the final rate on 1 - h(b), within 3
    # standard errors, in under a minute per configuration, bit for bit
    # reproducibly
    expectations = {0.0: 1.0, 0.05: 1.0 - H_005, 0.1: 1.0 - H_01}
    ok = True
    details = []
    for noise, want_rate in expectations.items():
        config = ProtocolConfig(attack=named_attack("identity"), n=10**6, backward_noise=noise)
        t0 = time.perf_counter()
        stats, report = run_protocol(config)
        dt = time.perf_counter() - t0
        if noise == 0.0:
            here = stats.est_e == 0.0 and report.r_final == 1.0
        else:
            slope = abs(np.log2((1.0 - noise) / noise))  # |d r / d e| at b
            here = (
                abs(stats.est_e - noise) <= 3.0 * stats.se_e
                and abs(report.r_final - want_rate) <= 3.0 * slope * stats.se_e
            )
        again, _ = run_protocol(config)
        here = here and again == stats
        here = here and json.dumps(again.to_dict()) == json.dumps(stats.to_dict())
        here = here and dt < 60.0
        ok = ok and here
        details.append(f"b={noise}: est_e={stats.est_e:.5f} in {dt:.1f}s")
    _report("simulation consistency", ok, "; ".join(details))
    assert ok


def test_abort_rule():
    # any channel whose true margin sits below 1/2 must abort under the
    # point-estimate policy; a measurement attack sits exactly at the
    # boundary and aborts once statistical slack is demanded
    stats, report = run_protocol(
        ProtocolConfig(attack=named_attack("symmetric", e=0.3), n=10**6)
    )
    below_ok = stats.aborted and report.aborted and stats.k_est == 0
    formula_ok = final_rate(0.4, 0.0).aborted

    boundary_stats, _ = run_protocol(
        ProtocolConfig(attack=named_attack("measure_z"), n=10**6, abort_slack_z=3.0)
    )
    boundary_ok = boundary_stats.aborted
    ok = below_ok and formula_ok and boundary_ok
    _report(
        "abort rule",
        ok,
        f"sub-boundary run aborted with est_xi = {stats.est_xi:.4f}; "
        f"boundary run aborted under 3-se slack",
    )
    assert below_ok
    assert formula_ok
    assert boundary_ok
