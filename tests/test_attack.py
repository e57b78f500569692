import gc
from dataclasses import replace

import numpy as np
import pytest

from dqkd.attack import (
    AmplitudeNormalizationError,
    AttackParams,
    GramNotPositiveError,
    OverlapMagnitudeError,
    SamplingBudgetError,
    UnitarityConstraintError,
    branch_vectors,
    forward_fidelities,
    gram_matrix,
    named_attack,
    realize_ancilla,
    sample_valid,
    validate,
)
from oracles import build_unitary, kron_branch_vectors, probe_outcome_probability


def test_identity_attack_is_valid():
    params = named_attack("identity")
    assert params.c00 == 1.0 and params.c11 == 1.0
    assert all(val == 1 + 0j for val in params.overlaps.values())
    f = forward_fidelities(params)
    assert np.allclose([f.f0, f.f1, f.fplus, f.fminus], 1.0, atol=1e-12)


def test_amplitude_normalization_error():
    with pytest.raises(AmplitudeNormalizationError):
        validate(AttackParams(c00=1.0, c01=0.5, c11=1.0, c10=0.0))
    with pytest.raises(AmplitudeNormalizationError):
        validate(AttackParams(c00=-0.6, c01=0.8, c11=1.0, c10=0.0))


def test_overlap_magnitude_error():
    with pytest.raises(OverlapMagnitudeError):
        validate(AttackParams(c00=1.0, c01=0.0, c11=1.0, c10=0.0, p=1.5 + 0j))


def test_unitarity_constraint_error():
    # u and v individually fine but c00 c10 u + c01 c11 v != 0
    with pytest.raises(UnitarityConstraintError):
        validate(
            AttackParams(c00=0.8, c01=0.6, c11=0.8, c10=0.6, u=0.5 + 0j, v=0.5 + 0j)
        )


def test_gram_not_positive_error():
    # s = 1 makes E01 = E00, so q = <E01|E10> must equal u; q = 1 with
    # u = -1 is inconsistent and the Gram matrix goes indefinite
    with pytest.raises(GramNotPositiveError):
        bad = AttackParams(
            c00=0.8, c01=0.6, c11=0.8, c10=0.6,
            s=1 + 0j, u=-1 + 0j, v=1 + 0j, q=1 + 0j,
        )
        validate(bad)


NAN = float("nan")


@pytest.mark.parametrize(
    "error, fields",
    [
        pytest.param(AmplitudeNormalizationError, dict(c00=1.0, c01=0.5, c11=1.0, c10=0.0),
                     id="not-normalized"),
        pytest.param(AmplitudeNormalizationError, dict(c00=-0.6, c01=0.8, c11=1.0, c10=0.0),
                     id="negative-amplitude"),
        pytest.param(AmplitudeNormalizationError, dict(c00=NAN, c01=0.0, c11=1.0, c10=0.0),
                     id="nan-c00"),
        pytest.param(AmplitudeNormalizationError, dict(c00=1.0, c01=0.0, c11=1.0, c10=NAN),
                     id="nan-c10"),
        pytest.param(OverlapMagnitudeError, dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0, p=1.5 + 0j),
                     id="overlap-outside-disc"),
        pytest.param(OverlapMagnitudeError,
                     dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0, s=complex(NAN, 0.0)),
                     id="nan-overlap-real"),
        pytest.param(OverlapMagnitudeError,
                     dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0, s=complex(0.0, NAN)),
                     id="nan-overlap-imag"),
        pytest.param(UnitarityConstraintError,
                     dict(c00=0.8, c01=0.6, c11=0.8, c10=0.6, u=0.5 + 0j, v=0.5 + 0j),
                     id="branches-not-orthogonal"),
        pytest.param(GramNotPositiveError,
                     dict(c00=0.8, c01=0.6, c11=0.8, c10=0.6,
                          s=1 + 0j, u=-1 + 0j, v=1 + 0j, q=1 + 0j),
                     id="gram-indefinite"),
    ],
)
def test_invalid_attack_cannot_be_constructed(error, fields):
    with pytest.raises(error):
        AttackParams(**fields)


def test_rejected_attack_leaves_no_reference_cycle():
    # a cycle through the raising frame would keep every caller's locals
    # alive until the cycle collector runs; one rejection of each class
    rejected = (
        (AmplitudeNormalizationError, dict(c00=1.0, c01=0.5, c11=1.0, c10=0.0)),
        (OverlapMagnitudeError, dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0, p=1.5 + 0j)),
        (OverlapMagnitudeError, dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0, s=complex(NAN, 0.0))),
        (GramNotPositiveError, dict(c00=0.8, c01=0.6, c11=0.8, c10=0.6,
                                    s=1 + 0j, u=-1 + 0j, v=1 + 0j, q=1 + 0j)),
        (UnitarityConstraintError, dict(c00=0.8, c01=0.6, c11=0.8, c10=0.6,
                                        u=0.5 + 0j, v=0.5 + 0j)),
    )
    gc.collect()
    gc.disable()
    try:
        for error, fields in rejected:
            # no "as": binding the exception here would make a cycle of its own
            try:
                AttackParams(**fields)
            except error:
                continue
            pytest.fail(f"{fields} was accepted")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_replace_to_an_invalid_point_raises():
    params = named_attack("symmetric", e=0.1)
    with pytest.raises(OverlapMagnitudeError):
        replace(params, q=complex(NAN, 0.0))
    with pytest.raises(AmplitudeNormalizationError):
        replace(params, c00=1.0)
    with pytest.raises(GramNotPositiveError):
        replace(params, s=1 + 0j, q=-1 + 0j)


def test_serialization_round_trip():
    params = sample_valid(seed=42)
    again = AttackParams.from_dict(params.to_dict())
    assert again == params
    with pytest.raises(ValueError):
        AttackParams.from_dict({"c00": 1.0, "c01": 0.0, "c11": 1.0})  # c10 missing
    doc = params.to_dict()
    doc["overlaps"][0]["name"] = "w"
    with pytest.raises(ValueError):
        AttackParams.from_dict(doc)
    # unknown keys and a repeated overlap are errors, not silently dropped
    doc = named_attack("symmetric", e=0.1).to_dict()
    with pytest.raises(ValueError, match="'extra': unknown key"):
        AttackParams.from_dict({**doc, "extra": 5})
    with pytest.raises(ValueError, match="'imag': unknown key"):
        AttackParams.from_dict({**doc, "overlaps": [{"name": "p", "re": 0.2, "imag": 0.0}]})
    twice = [{"name": "p", "re": 0.2, "im": 0.0}, {"name": "p", "re": 0.9, "im": 0.0}]
    with pytest.raises(ValueError, match="'p': given more than once"):
        AttackParams.from_dict({**doc, "overlaps": twice})
    # overlaps left out are 0
    only_q = AttackParams.from_dict({**doc, "overlaps": [{"name": "q", "re": 1.0, "im": 0.0}]})
    assert only_q.p == 0j and only_q.q == 1 + 0j


def test_sampler_is_deterministic():
    assert sample_valid(seed=0) == sample_valid(seed=0)
    assert sample_valid(seed=0, symmetric=True) == sample_valid(seed=0, symmetric=True)
    assert sample_valid(seed=0) != sample_valid(seed=1)


def test_sampler_bulk_validity():
    # every draw satisfies every invariant when re-checked externally
    for seed in range(1000):
        params = sample_valid(seed=seed, symmetric=bool(seed % 2))
        validate(params)


def test_sampler_budget_error():
    with pytest.raises(SamplingBudgetError):
        sample_valid(seed=0, max_iterations=0)


def test_symmetric_draws_link_u_and_v():
    # with c00 = c11 the orthogonality constraint collapses to u = -v
    for seed in range(50):
        params = sample_valid(seed=seed, symmetric=True)
        assert params.c00 == params.c11
        assert abs(params.u + params.v) <= 1e-12


def test_realized_ancilla_reproduces_gram():
    for seed in range(50):
        params = sample_valid(seed=seed)
        kets = realize_ancilla(params)
        g = gram_matrix(params)
        got = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.max(np.abs(got - g)) <= 1e-10


def test_realized_ancilla_special_cases():
    # identity attack: all four records are the same unit ket
    kets = realize_ancilla(named_attack("identity"))
    for row in kets:
        assert abs(np.vdot(kets[0], row) - 1.0) <= 1e-12
    # measurement attack: records pairwise orthonormal
    kets = realize_ancilla(named_attack("measure_z"))
    assert np.allclose(
        np.array([[np.vdot(a, b) for b in kets] for a in kets]), np.eye(4), atol=1e-12
    )


def test_branch_vectors_are_orthonormal():
    for seed in range(50):
        phi0, phi1 = branch_vectors(sample_valid(seed=seed))
        assert abs(np.vdot(phi0, phi0) - 1.0) <= 1e-10
        assert abs(np.vdot(phi1, phi1) - 1.0) <= 1e-10
        assert abs(np.vdot(phi0, phi1)) <= 1e-10


def test_branch_vectors_match_kron_route():
    # slicing places each qubit component where np.kron(|0> or |1>, .) puts it
    attacks = [sample_valid(seed=seed, symmetric=bool(seed % 2)) for seed in range(200)]
    attacks += [named_attack(name) for name in ("identity", "measure_z", "measure_x")]
    attacks.append(named_attack("symmetric", e=0.1))
    for params in attacks:
        for got, want in zip(branch_vectors(params), kron_branch_vectors(params)):
            assert np.array_equal(got, want)


def test_build_unitary_is_unitary():
    for seed in range(100):
        u = build_unitary(sample_valid(seed=seed))
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10


def test_build_unitary_columns_are_branches():
    params = sample_valid(seed=7)
    u = build_unitary(params)
    phi0, phi1 = branch_vectors(params)
    assert np.allclose(u[:, 0], phi0, atol=1e-12)
    assert np.allclose(u[:, 4], phi1, atol=1e-12)


def test_gram_route_matches_simulation_route():
    # fidelities computed from overlaps alone agree with sending the probe
    # through a realized attack and measuring
    for seed in range(50):
        params = sample_valid(seed=seed)
        f = forward_fidelities(params)
        table = {"0": f.f0, "1": f.f1, "+": f.fplus, "-": f.fminus}
        for label, want in table.items():
            got = probe_outcome_probability(params, label, label)
            assert abs(got - want) <= 1e-10


def test_measurement_attack_randomizes_conjugate_basis():
    # a computational-basis measurement leaves |+> fully mixed
    params = named_attack("measure_z")
    assert probe_outcome_probability(params, "+", "+") == pytest.approx(0.5, abs=1e-12)
    assert probe_outcome_probability(params, "+", "-") == pytest.approx(0.5, abs=1e-12)
    assert probe_outcome_probability(params, "0", "0") == pytest.approx(1.0, abs=1e-12)


def test_named_attack_fidelity_table():
    # measure_z: computational probes survive, diagonal ones decohere
    f = forward_fidelities(named_attack("measure_z"))
    assert np.allclose([f.f0, f.f1], 1.0, atol=1e-12)
    assert np.allclose([f.fplus, f.fminus], 0.5, atol=1e-12)
    assert f.fpm + f.f01 - 1.0 == pytest.approx(0.5, abs=1e-12)
    # measure_x: the mirror image
    f = forward_fidelities(named_attack("measure_x"))
    assert np.allclose([f.fplus, f.fminus], 1.0, atol=1e-12)
    assert np.allclose([f.f0, f.f1], 0.5, atol=1e-12)
    assert f.fpm + f.f01 - 1.0 == pytest.approx(0.5, abs=1e-12)


def test_symmetric_attack_family():
    # all four fidelities equal 1 - e, so the abort margin is 1 - 2e
    for e in (0.0, 0.05, 0.1, 0.25, 0.4):
        f = forward_fidelities(named_attack("symmetric", e=e))
        assert np.allclose([f.f0, f.f1, f.fplus, f.fminus], 1.0 - e, atol=1e-12)
        assert f.fpm + f.f01 - 1.0 == pytest.approx(1.0 - 2.0 * e, abs=1e-12)
    # e = 0 degenerates to the identity attack
    assert named_attack("symmetric", e=0.0).c00 == 1.0


def test_named_attack_errors():
    with pytest.raises(ValueError):
        named_attack("symmetric")  # e is required
    with pytest.raises(ValueError):
        named_attack("symmetric", e=0.6)
    with pytest.raises(ValueError):
        named_attack("bogus")
    for name in ("identity", "measure_z", "measure_x"):
        with pytest.raises(ValueError, match="takes no disturbance"):
            named_attack(name, e=0.3)
        with pytest.raises(ValueError, match="takes no disturbance"):
            named_attack(name, e=0.0)
