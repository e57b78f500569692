import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dqkd.attack import (
    AttackParams,
    ChannelFidelities,
    forward_fidelities,
    named_attack,
    validate,
)
from dqkd.keyrate import (
    backward_indistinguishability,
    be_stack,
    be_states,
    build_rho_abe,
    choi_states,
    joint_states,
    omega_states,
    s_be_numeric,
)
from dqkd import rates
from dqkd.optimizer import FidelityConstraint, maximize_s_be
from dqkd.qstate import (
    DensityMatrix,
    outer,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from dqkd.rates import (
    BoundaryViolationError,
    be_spectrum_closed_form,
    binary_entropy,
    bound_certificate,
    clears_boundary,
    entropy_bits,
    final_rate,
    s_be_max,
)
from dqkd.verify import sample_valid
from oracles import Y_GATE, binary_entropy_decimal, branch_vectors, kron_branch_vectors

# precomputed with 30-digit arithmetic
H_01 = 0.4689955935892812
H_08 = 0.7219280948873623
R_PA_08 = 0.2780719051126377  # 1 - h(0.8)
R_BB84_01 = 0.06200881282143755  # 1 - 2 h(0.1)
R_FINAL_09_005 = 0.2446074492947626  # 1 - h(0.9) - h(0.05)


def test_bundle_structure():
    # the block-sliced state equals the kron route (Y ox I) be0 (Y ox I)^+ bit for bit
    y_qubit = np.kron(Y_GATE, np.eye(4))
    attacks = [sample_valid(seed=seed) for seed in range(20)]
    attacks += [named_attack(name) for name in ("identity", "measure_z", "measure_x")]
    attacks.append(named_attack("symmetric", e=0.1))
    for params in attacks:
        phi0, phi1 = branch_vectors(params)
        be0 = 0.5 * (outer(phi0) + outer(phi1))
        be1 = y_qubit @ be0 @ y_qubit.conj().T
        bundle = build_rho_abe(params)
        abe = bundle.rho_abe.matrix
        # block diagonal in the key bit: halves of the two branches
        assert np.array_equal(abe[:8, :8], 0.5 * be0)
        assert np.array_equal(abe[8:, 8:], 0.5 * be1)
        assert not abe[:8, 8:].any() and not abe[8:, :8].any()
        # tracing the key bit averages the branches
        assert np.max(np.abs(bundle.rho_be.matrix - 0.5 * (be0 + be1))) <= 1e-12


def test_each_state_is_diagonalized_once(monkeypatch):
    # rho_abe and rho_be are diagonalized when validated; the spectrum and
    # the entropy reuse those eigenvalues, and s_be_numeric builds rho_be alone
    params = sample_valid(seed=3)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    s_be_numeric(params)
    assert calls == [(1, 8, 8)]
    calls.clear()
    build_rho_abe(params).rho_be.spectrum()
    assert len(calls) == 2


def test_joint_states_equal_one_at_a_time():
    # the stacked build runs the same routines on each matrix, so entry i
    # is the bundle of attack i built alone, bit for bit
    attacks = [sample_valid(seed=seed, symmetric=bool(seed % 2)) for seed in range(64)]
    for params, bundle, rho_be in zip(attacks, joint_states(attacks), be_states(attacks)):
        alone = build_rho_abe(params)
        pairs = [(bundle.rho_abe, alone.rho_abe), (bundle.rho_be, alone.rho_be)]
        # rho_be without rho_abe is the bundle's, stacked or alone
        pairs += [(rho_be, bundle.rho_be), (be_states([params])[0], bundle.rho_be)]
        for got, want in pairs:
            assert got.dims == want.dims
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.spectrum().tobytes() == want.spectrum().tobytes()
        # the key bit traced by its two diagonal blocks is the generic
        # partial trace, bit for bit
        traced = partial_trace(bundle.rho_abe, keep=(1, 2))
        assert traced.dims == bundle.rho_be.dims
        assert np.array_equal(bundle.rho_be.matrix, traced.matrix)


# bounds of the Choi route against the realization route, fixed before the
# first run: entries and eigenvalues of states of norm <= 1 agree to a few
# hundred ulps, and an entropy drops weights below 1e-12 on both sides
CHOI_ENTRY_ATOL = 1e-14
CHOI_MARGINAL_ATOL = 1e-15
CHOI_ENTROPY_ATOL = 1e-12


def test_choi_route_matches_the_realization_route():
    # on 256 draws and the named attacks (measure_z has c01 = 0): the Choi
    # state is the reference-qubit marginal of the realized branches, Tr_Q
    # of it is I/2, omega's spectrum is rho_be's four nonzero eigenvalues,
    # and S(omega) is s_be_numeric; each spectrum of the stack is, bit for
    # bit, that of its omega validated alone
    attacks = [sample_valid(seed, symmetric=bool(seed % 2)) for seed in range(256)]
    attacks += [named_attack(name) for name in ("identity", "measure_z", "measure_x")]
    attacks.append(named_attack("symmetric", e=0.1))
    choi = choi_states(attacks)
    assert choi.shape == (len(attacks), 4, 4)
    omega, spectra = omega_states(choi)
    assert omega.shape == (len(attacks), 4, 4) and spectra.shape == (len(attacks), 4)
    assert not spectra.flags.writeable
    realized = be_stack(attacks)[1]
    for params, rho, w, spectrum, rho_be in zip(attacks, choi, omega, spectra, realized):
        # (1/2) sum_e phi_r[a, e] conj(phi_r'[b, e]), phi_r = U(|r> ox |E>)
        phi = np.array(kron_branch_vectors(params)).reshape(2, 2, 4)
        explicit = 0.5 * np.einsum("rae,sbe->rasb", phi, phi.conj()).reshape(4, 4)
        assert np.max(np.abs(rho - explicit)) <= CHOI_ENTRY_ATOL
        marginal = partial_trace(DensityMatrix(rho, dims=(2, 2)), keep=(0,)).matrix
        assert np.max(np.abs(marginal - 0.5 * np.eye(2))) <= CHOI_MARGINAL_ATOL
        assert spectrum.tobytes() == DensityMatrix(w, dims=(2, 2)).spectrum().tobytes()
        be = rho_be.spectrum()
        assert np.max(np.abs(spectrum - be[:4])) <= CHOI_ENTRY_ATOL
        assert np.max(np.abs(be[4:])) <= CHOI_ENTRY_ATOL
        assert abs(entropy_bits(spectrum.tolist()) - s_be_numeric(params)) <= CHOI_ENTROPY_ATOL


def test_stored_spectrum_matches_fresh_diagonalization():
    attacks = [sample_valid(seed=seed, symmetric=bool(seed % 2)) for seed in range(200)]
    attacks += [named_attack(name) for name in ("identity", "measure_z", "measure_x")]
    attacks.append(named_attack("symmetric", e=0.1))
    for params in attacks:
        bundle = build_rho_abe(params)
        for rho in (bundle.rho_be, bundle.rho_abe):
            w = np.linalg.eigvalsh(rho.matrix)
            assert rho.spectrum().tobytes() == np.sort(w)[::-1].tobytes()
            assert von_neumann_entropy(rho) == entropy_bits(w)


def test_joint_entropy_is_two_bits():
    # the eavesdropper's uncertainty about (key bit, qubit) is exactly 2 bits
    for seed in range(200):
        bundle = build_rho_abe(sample_valid(seed=seed, symmetric=bool(seed % 2)))
        assert abs(von_neumann_entropy(bundle.rho_abe) - 2.0) <= 1e-9


def test_backward_channel_carries_nothing():
    # without a forward probe the two encodings give the same mixed state
    assert backward_indistinguishability() <= 1e-12

    def key_block_distance(name: str) -> float:
        abe = build_rho_abe(named_attack(name)).rho_abe.matrix
        return trace_distance(2.0 * abe[:8, :8], 2.0 * abe[8:, 8:])

    assert key_block_distance("identity") <= 1e-12
    # a forward measurement makes the encodings perfectly distinguishable
    assert key_block_distance("measure_z") == pytest.approx(1.0, abs=1e-12)


def test_closed_form_identity_attack():
    closed = be_spectrum_closed_form(named_attack("identity"))
    assert closed.delta1 == pytest.approx(1.0, abs=1e-12)
    assert closed.delta2 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(closed.spectrum(), [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    assert closed.entropy() == pytest.approx(1.0, abs=1e-12)


def test_closed_form_measurement_attacks():
    # both measurement attacks leave the state maximally mixed on its support
    for name in ("measure_z", "measure_x"):
        closed = be_spectrum_closed_form(named_attack(name))
        assert np.allclose(closed.spectrum(), 0.25, atol=1e-12)
        assert closed.entropy() == pytest.approx(2.0, abs=1e-12)


def test_closed_form_symmetric_family():
    # the symmetric attack reaches the entropy ceiling 1 + h(xi) exactly
    for e in (0.05, 0.1, 0.2):
        closed = be_spectrum_closed_form(named_attack("symmetric", e=e))
        assert closed.delta1 == pytest.approx(1.0 - 4.0 * e, abs=1e-12)
        assert closed.delta2 == pytest.approx(0.0, abs=1e-12)
        xi = 1.0 - 2.0 * e
        assert closed.entropy() == pytest.approx(1.0 + binary_entropy(xi), abs=1e-12)
    closed = be_spectrum_closed_form(named_attack("symmetric", e=0.1))
    assert closed.entropy() == pytest.approx(1.0 + H_08, abs=1e-14)
    assert closed.entropy() == pytest.approx(s_be_max(0.8), abs=1e-12)


def test_closed_form_real_overlap_slice():
    # with purely real p, q and no other overlaps the eigenvalues pair up
    params = validate(
        AttackParams(
            c00=math.sqrt(0.8), c01=math.sqrt(0.2),
            c11=math.sqrt(0.8), c10=math.sqrt(0.2),
            p=0.5 + 0j, q=0.9 + 0j,
        )
    )
    closed = be_spectrum_closed_form(params)
    want = abs(0.8 * 0.5 - 0.2 * 0.9)
    assert closed.delta1 == pytest.approx(want, abs=1e-12)
    assert closed.delta2 == 0.0
    assert closed.spectrum()[0] == closed.spectrum()[1] == pytest.approx((1 + want) / 4)


def test_closed_form_matches_diagonalization():
    for seed in range(300):
        for symmetric in (True, False):
            params = sample_valid(seed=seed, symmetric=symmetric)
            closed = be_spectrum_closed_form(params)
            full = np.concatenate([closed.spectrum(), np.zeros(4)])
            brute = build_rho_abe(params).rho_be.spectrum()
            assert np.max(np.abs(np.sort(full)[::-1] - brute)) <= 1e-10
            assert abs(closed.entropy() - s_be_numeric(params)) <= 1e-9


def test_bound_certificate_closes_at_the_amplitude_slack():
    # validation accepts amplitudes scaled by sqrt(1 +/- 9e-13); the defect
    # term carries the scaling, so the six terms still sum to D1 - (2 xi - 1)
    for seed in range(100):
        base = sample_valid(seed, symmetric=bool(seed % 2))
        for e0, e1 in ((9e-13, 9e-13), (-9e-13, -9e-13), (9e-13, -9e-13)):
            f0, f1 = math.sqrt(1.0 + e0), math.sqrt(1.0 + e1)
            params = base._replace(c00=base.c00 * f0, c01=base.c01 * f0,
                                   c11=base.c11 * f1, c10=base.c10 * f1)
            cert = bound_certificate(params)
            margin = cert.delta1 - (2.0 * cert.xi - 1.0)
            assert abs(math.fsum(cert.terms) - margin) <= 1e-12, (seed, e0, e1)
            assert cert.terms[5] == pytest.approx(-(e0 + e1), abs=1e-14)
            assert min(cert.terms[:4]) >= -1e-15 and cert.gap >= -1e-15
            if e0 == e1 == 9e-13:
                # five terms alone miss the margin by the defect
                assert abs(math.fsum(cert.terms[:5]) - margin) > 1e-12


def test_bound_certificate_is_tight_at_the_maximizer():
    # the maximizer has c01 = c10, q0 = 1, Im m = 0 and a = b = 0: every
    # term and the majorization gap vanish, to rounding
    for c0sq, cppsq in ((0.9, 0.9), (0.95, 0.85), (0.8, 0.99)):
        params = maximize_s_be(FidelityConstraint(c0sq, cppsq)).best_params
        cert = bound_certificate(params)
        assert max(map(abs, (*cert.terms, cert.gap))) <= 1e-15
        assert cert.xi == pytest.approx(FidelityConstraint(c0sq, cppsq).xi, abs=1e-15)


def test_closed_form_asymmetric_real_slice():
    # with s = r = 0 the block B is off-diagonal: delta1 = |c00 c11 p - c01 c10 q|
    params = AttackParams(
        c00=math.sqrt(0.8), c01=math.sqrt(0.2),
        c11=math.sqrt(0.6), c10=math.sqrt(0.4),
        p=0.5 + 0.3j, q=0.9 + 0j,
    )
    assert not params.symmetric
    closed = be_spectrum_closed_form(params)
    want = abs(math.sqrt(0.48) * (0.5 + 0.3j) - math.sqrt(0.08) * 0.9)
    assert closed.delta1 == pytest.approx(want, abs=1e-12)
    assert closed.delta2 == 0.0
    brute = build_rho_abe(params).rho_be.spectrum()
    want_spectrum = [(1 + want) / 4] * 2 + [(1 - want) / 4] * 2 + [0.0] * 4
    assert np.max(np.abs(brute - want_spectrum)) <= 1e-10


def test_entropy_ceiling():
    assert s_be_max(1.0) == pytest.approx(1.0, abs=1e-12)
    assert s_be_max(0.5) == pytest.approx(2.0, abs=1e-12)
    assert s_be_max(0.8) == pytest.approx(1.0 + H_08, abs=1e-14)
    for xi in (1.2, 1.0 + 2e-12, math.nan):
        with pytest.raises(ValueError, match="outside"):
            s_be_max(xi)
    with pytest.raises(BoundaryViolationError):
        s_be_max(0.45)  # in the abort region


def test_abort_rule_at_the_boundary_edge():
    # the rule's slack admits 1/2 - 1e-12 and no less; final_rate, s_be_max
    # and maximize_s_be (whose xi is cppsq at c0sq = 1) all read the one rule
    ladder = (0.5 - 2e-12, 0.5 - 1e-12, 0.5 - 1e-13, 0.5, 0.5 + 1e-13)
    assert [clears_boundary(xi) for xi in ladder] == [False, True, True, True, True]
    for xi in ladder:
        assert final_rate(xi, 0.0).boundary_ok == clears_boundary(xi)
        if clears_boundary(xi):
            assert maximize_s_be(FidelityConstraint(1.0, xi)).closed_form_entropy == s_be_max(xi)
            continue
        with pytest.raises(BoundaryViolationError):
            s_be_max(xi)
        with pytest.raises(BoundaryViolationError):
            maximize_s_be(FidelityConstraint(1.0, xi))
    assert not clears_boundary(math.nan)


def test_only_clears_boundary_reads_the_abort_rule():
    # the rule's constants are read by rates.clears_boundary alone: another
    # module importing them, or another function of rates reading them,
    # would be a second copy of the rule to keep in step
    rule = {"BOUNDARY_XI", "BOUNDARY_ATOL"}
    reads = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "dqkd").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    reads += [(path.name, "import", a.name) for a in node.names if a.name in rule]
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in rule:
                        reads.append((path.name, owner, node.id))
                elif isinstance(node, ast.Attribute) and node.attr in rule:
                    reads.append((path.name, owner, node.attr))
    assert sorted(reads) == [("rates.py", "clears_boundary", name) for name in sorted(rule)]


def test_only_keyrate_reads_attack_rows():
    # attack lists enter the numpy layer through keyrate alone: a library
    # caller building the stacked arrays itself would skip the attacks that
    # vouch for their rows (dqkd/__init__.py names it only as an export string)
    users = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "dqkd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                if any(a.name == "attack_rows" for a in node.names):
                    users.add(path.name)
            elif isinstance(node, ast.Name) and node.id == "attack_rows":
                users.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "attack_rows":
                users.add(path.name)
    assert users == {"keyrate.py"}


def test_xi_from_fidelities():
    assert ChannelFidelities(1, 1, 1, 1).xi == pytest.approx(1.0)
    assert ChannelFidelities(1, 1, 0.5, 0.5).xi == pytest.approx(0.5)
    got = ChannelFidelities(0.9, 0.9, 0.95, 0.85).xi
    assert got == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError, match="f0=1.5 outside"):
        ChannelFidelities(1.5, 1.0, 1.0, 1.0).xi
    with pytest.raises(ValueError, match="fminus=nan outside"):
        ChannelFidelities(1.0, 1.0, 1.0, float("nan")).xi


def test_binary_entropy_matches_decimal_oracle():
    # seeded points over [0, 1], log-spaced towards both ends, and the ends
    # themselves, against 50-digit decimal logarithms; the tolerance is two
    # units in the last place at h's maximum of 1
    rng = np.random.default_rng(23)
    points = [0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0**-53, *rng.uniform(0.0, 1.0, 200)]
    points += [*10.0 ** rng.uniform(-300.0, 0.0, 50), *(1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 50))]
    for x in points:
        assert abs(binary_entropy(x) - binary_entropy_decimal(x)) <= 2 * 2.0**-52, x
    # within the domain slack, just outside [0, 1], the ends' value 0
    assert binary_entropy(-1e-13) == binary_entropy(1.0 + 1e-13) == 0.0


def test_final_rate_perfect_channel():
    report = final_rate(1.0, 0.0)
    assert report.r_pa == 1.0
    assert report.r_final == 1.0
    assert report.r_bb84 == 1.0
    assert report.boundary_ok and not report.aborted


def test_final_rate_frozen_values():
    # xi = 0.8, e = 0.1: above the boundary yet no key survives correction
    report = final_rate(0.8, 0.1)
    assert report.r_pa == pytest.approx(R_PA_08, abs=1e-14)
    assert report.r_final == 0.0
    assert report.r_final_raw == pytest.approx(R_PA_08 - H_01, abs=1e-14)
    assert report.r_bb84 == pytest.approx(R_BB84_01, abs=1e-14)
    assert not report.aborted
    # xi = 0.9, e = 0.05: a comfortably positive rate
    report = final_rate(0.9, 0.05)
    assert report.r_final == pytest.approx(R_FINAL_09_005, abs=1e-14)


def test_final_rate_abort_region():
    report = final_rate(0.45, 0.0)
    assert report.aborted and not report.boundary_ok
    assert report.r_pa == 0.0 and report.r_final == 0.0
    assert math.isfinite(report.r_final_raw)  # curve value is still reported
    # negative xi leaves the raw curve undefined
    report = final_rate(-0.5, 0.1)
    assert report.aborted
    assert math.isnan(report.r_final_raw)
    assert report.to_dict()["r_final_raw"] is None


def test_final_rate_evaluates_each_entropy_once(monkeypatch):
    # h(e) once, and h(xi) once where it is defined (xi >= 0), whether or
    # not the run clears the boundary
    calls = []
    entropy = rates.binary_entropy
    monkeypatch.setattr(rates, "binary_entropy", lambda x: calls.append(x) or entropy(x))
    for xi, e, count in ((0.9, 0.05, 2), (0.5, 0.0, 2), (0.3, 0.1, 2), (-0.5, 0.1, 1)):
        calls.clear()
        final_rate(xi, e)
        assert len(calls) == count, (xi, e, calls)


def test_final_rate_domain_errors():
    with pytest.raises(ValueError):
        final_rate(1.5, 0.0)
    with pytest.raises(ValueError):
        final_rate(0.9, 0.7)
    with pytest.raises(ValueError):
        final_rate(0.9, -0.1)


def test_final_rate_serialization_keys():
    got = final_rate(0.8, 0.05).to_dict()
    assert sorted(got) == [
        "aborted", "boundary_ok", "e", "r_bb84", "r_final", "r_final_raw", "r_pa", "xi",
    ]


def test_final_rate_monotonicity():
    # better channels never hurt: r_final rises with xi, falls with e
    rates = [final_rate(xi, 0.05).r_final for xi in np.linspace(0.5, 1.0, 26)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    rates = [final_rate(1.0, e).r_final for e in np.linspace(0.0, 0.5, 26)]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_two_way_rate_stays_below_comparator():
    # under symmetric disturbance xi = 1 - 2e the two-way curve never beats
    # the comparator in (0, 0.11]
    for e in np.linspace(0.001, 0.11, 56):
        report = final_rate(1.0 - 2.0 * e, e)
        assert report.r_final_raw < report.r_bb84


def test_observed_attacks_respect_the_ceiling():
    # every sampled symmetric attack sits at or below 1 + h(xi)
    for seed in range(100):
        params = sample_valid(seed=seed, symmetric=True)
        xi = forward_fidelities(params).xi
        if xi < 0.5:
            continue  # observed fidelities in the abort region
        ceiling = s_be_max(xi)
        assert s_be_numeric(params) <= ceiling + 1e-9
