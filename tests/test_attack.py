import copy
import gc
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from dqkd.attack import (
    OVERLAP_NAMES,
    AmplitudeNormalizationError,
    AttackParams,
    AttackValidationError,
    GramNotPositiveError,
    OverlapMagnitudeError,
    UnitarityConstraintError,
    forward_fidelities,
    gram_pivots,
    named_attack,
    validate,
)
from dqkd import attack as attack_module
from dqkd import verify
from dqkd.keyrate import _gram_stack, attack_rows, realize_ancilla
from dqkd.optimizer import FidelityConstraint
from dqkd.protosim import ProtocolConfig
from dqkd.rates import PSD_SLACK
from dqkd.verify import SamplingBudgetError, sample_valid
from oracles import (
    branch_vectors,
    build_unitary,
    eigvalsh_gram_verdict,
    gram_matrix,
    kron_branch_vectors,
    probe_outcome_probability,
)
from oracles import gram_literal as _gram_literal


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
INF = float("inf")


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
        pytest.param(OverlapMagnitudeError,
                     dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0, s=complex(1.5e308, 1.5e308)),
                     id="overflowing-overlap"),
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
        (OverlapMagnitudeError, dict(c00=1.0, c01=0.0, c11=1.0, c10=0.0,
                                     s=complex(1.5e308, 1.5e308))),
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
        params._replace(q=complex(NAN, 0.0))
    with pytest.raises(AmplitudeNormalizationError):
        params._replace(c00=1.0)
    with pytest.raises(GramNotPositiveError):
        params._replace(s=1 + 0j, q=-1 + 0j)


def _validated_record(kind: str):
    """A valid record of a validating class, one invalid field for it, and
    the error that field raises."""
    attack = named_attack("symmetric", e=0.1)
    if kind == "attack":
        return attack, {"c00": 1.0}, AmplitudeNormalizationError
    if kind == "constraint":
        return FidelityConstraint(c0sq=0.9, cppsq=0.9), {"c0sq": 1.5}, ValueError
    return ProtocolConfig(attack=attack, n=1000), {"n": True}, TypeError


@pytest.mark.parametrize("kind", ["attack", "constraint", "config"])
def test_every_construction_path_validates(kind):
    # the records are tuples, so each path that rebuilds one from its
    # values (_replace, _make, copy, deepcopy, unpickling) must go
    # through the validating constructor
    record, invalid, error = _validated_record(kind)
    cls = type(record)
    values = [invalid.get(name, value) for name, value in zip(record._fields, record)]
    with pytest.raises(error):
        record._replace(**invalid)
    with pytest.raises(error):
        cls._make(values)
    # tuple.__new__ skips the constructor: the only way to an invalid record
    forged = tuple.__new__(cls, values)
    rebuilds = [copy.copy, copy.deepcopy]
    rebuilds += [lambda r, proto=proto: pickle.loads(pickle.dumps(r, proto))
                 for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for rebuild in rebuilds:
        again = rebuild(record)
        assert type(again) is cls and again == record
        with pytest.raises(error):
            rebuild(forged)


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
    # no seed, no draw: an unseeded generator would read OS entropy
    with pytest.raises(TypeError):
        sample_valid()


def test_sampler_bulk_validity():
    # every draw satisfies every invariant when re-checked externally
    for seed in range(1000):
        params = sample_valid(seed=seed, symmetric=bool(seed % 2))
        validate(params)


def test_sampler_budget_error(monkeypatch):
    # the budget is read when the sampler runs
    monkeypatch.setattr(verify, "DRAW_BUDGET", 0)
    with pytest.raises(SamplingBudgetError):
        sample_valid(seed=0)


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
    # through a realized attack and measuring, and the closed form agrees
    # with the Gram quadratic form of the signed amplitudes, over 4, to four
    # ulps of 1 (the worst case measured is one)
    attacks = [sample_valid(seed=seed) for seed in range(50)]
    attacks += [sample_valid(seed=seed, symmetric=True) for seed in range(50)]
    attacks += [named_attack(name) for name in ("identity", "measure_z", "measure_x")]
    attacks += [named_attack("symmetric", e=e) for e in (0.0, 0.05, 0.11, 0.25, 0.3, 0.4, 0.5)]
    for params in attacks:
        # the attack and its fidelities hold plain Python numbers
        assert [type(val) for val in params._asdict().values()] == [float] * 4 + [complex] * 6
        f = forward_fidelities(params)
        assert [type(val) for val in f._asdict().values()] == [float] * 4
        g = gram_matrix(params)
        amps = np.array([params.c00, params.c01, params.c11, params.c10])
        for signs, closed in (((1, 1, 1, 1), f.fplus), ((1, -1, 1, -1), f.fminus)):
            w = np.multiply(signs, amps)
            assert abs(np.real(w @ g @ w) / 4.0 - closed) <= 4 * np.finfo(float).eps
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


def test_parameterless_named_attacks_are_validated_constants(monkeypatch):
    # identity, measure_z and measure_x are validated once, at import, and
    # shared; only the symmetric attack is built, and validated, per call
    calls = []
    check = attack_module.validate
    monkeypatch.setattr(attack_module, "validate", lambda params: calls.append(params) or check(params))
    for name in ("identity", "measure_z", "measure_x"):
        assert named_attack(name) is named_attack(name)
        assert type(named_attack(name)) is AttackParams
    assert calls == []
    named_attack("symmetric", 0.1)
    assert len(calls) == 1


def test_named_attack_errors():
    with pytest.raises(ValueError):
        named_attack("symmetric")  # e is required
    with pytest.raises(ValueError):
        named_attack("symmetric", e=0.6)
    # a name that is not a string, hashable or not, is unknown too
    for name in ("bogus", ["identity"], {}, None):
        with pytest.raises(ValueError, match="unknown attack name"):
            named_attack(name)
    for name in ("identity", "measure_z", "measure_x"):
        with pytest.raises(ValueError, match="takes no disturbance"):
            named_attack(name, e=0.3)
        with pytest.raises(ValueError, match="takes no disturbance"):
            named_attack(name, e=0.0)
    # e is a real number: a string or bytes that float() would parse, a
    # bool or a complex is a type error
    for e in ("0.1", b"0.1", True, False, 0.1j):
        with pytest.raises(TypeError, match="must be a real number"):
            named_attack("symmetric", e)
    # a numpy float or an int is a real number
    assert named_attack("symmetric", np.float64(0.1)) == named_attack("symmetric", 0.1)
    assert named_attack("symmetric", np.float32(0.25)) == named_attack("symmetric", 0.25)
    assert named_attack("symmetric", 0) == named_attack("symmetric", 0.0)


def _scalar_outcome(amps, overlaps) -> tuple[type | None, str]:
    """(error class, message) of AttackParams at one row, (None, "") if valid."""
    try:
        AttackParams(*amps, *overlaps)
    except AttackValidationError as exc:
        return type(exc), str(exc)
    return None, ""


def _straddle(make, lo: float, hi: float) -> list[tuple[list, list]]:
    """Rows at the four floats either side of where the outcome of make(x)
    changes between lo and hi, found by bisection down to adjacent floats."""
    side = _scalar_outcome(*make(lo))[0]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _scalar_outcome(*make(mid))[0] is side:
            lo = mid
        else:
            hi = mid
    xs = [lo, hi]
    for _ in range(3):
        xs = [np.nextafter(xs[0], -np.inf), *xs, np.nextafter(xs[-1], np.inf)]
    return [make(float(x)) for x in xs]


def _edited(params: AttackParams, **fields) -> tuple[list, list]:
    values = {**params._asdict(), **fields}
    return ([values[n] for n in ("c00", "c01", "c11", "c10")],
            [values[n] for n in OVERLAP_NAMES])


def _validation_cloud(rng: np.random.Generator) -> list[tuple[list, list]]:
    """Perturbed sample_valid attacks reaching every fault class, with rows
    at adjacent floats where validity flips at each check's threshold."""
    identity, measure_z = named_attack("identity"), named_attack("measure_z")
    # c00 = c10 = 1: the unitarity residual is |u| itself
    crossed = AttackParams(c00=1.0, c01=0.0, c11=0.0, c10=1.0)
    rows = []
    # amplitude range: valid down to -1e-12, as c01 = -1e-13 keeps the norm
    rows += _straddle(lambda x: _edited(measure_z, c01=x), 0.0, -1.0)
    rows += _straddle(lambda x: _edited(measure_z, c10=x), 0.0, -1.0)
    # each norm, with valid amplitudes a little above 1
    rows += _straddle(lambda x: _edited(measure_z, c00=x), 1.0, 1.5)
    rows += _straddle(lambda x: _edited(measure_z, c11=x), 1.0, 1.5)
    # overlap magnitude: a rank-one Gram matrix stays within its slack past
    # |overlap| = 1, so validity flips at 1 + 1e-12 for every overlap, on
    # the real axis and off it, where np.abs of a complex array and Python's
    # abs can round apart
    pairs = {"s": ("00", "01"), "u": ("00", "10"), "p": ("00", "11"),
             "r": ("11", "10"), "v": ("01", "11"), "q": ("01", "10")}
    for name in OVERLAP_NAMES:
        rows += _straddle(lambda x: _edited(identity, **{name: complex(x, 0.0)}), 1.0, 1.5)
        for _ in range(3):
            # one-dimensional ancilla kets |Eij> = e^{i theta_ij}
            ket = dict(zip(("00", "01", "11", "10"), np.exp(1j * rng.uniform(0, 2 * np.pi, 4))))
            phased = {n: complex(np.conj(ket[i]) * ket[j]) for n, (i, j) in pairs.items()}
            rows += _straddle(
                lambda x: _edited(identity, **{**phased, name: x * phased[name]}), 1.0, 1.5
            )
    # unitarity at exactly 1e-12, on the real axis and off it
    rows += _straddle(lambda x: _edited(crossed, u=complex(x, 0.0)), 0.0, 1.0)
    for turn in np.exp(1j * rng.uniform(0, 2 * np.pi, 12)):
        rows += _straddle(lambda x: _edited(crossed, u=complex(x * turn)), 0.0, 1.0)
    for seed in range(12):
        a = sample_valid(seed=seed, symmetric=bool(seed % 2))
        rows.append(_edited(a))
        rows += _straddle(lambda x: _edited(a, c01=x), a.c01, a.c01 + 1e-9)
        rows += _straddle(lambda x: _edited(a, c10=x), a.c10, a.c10 - 1e-9)
        name = OVERLAP_NAMES[seed % 6]
        rows.append(_edited(a, **{name: complex(NAN, 0.0)}))
        rows.append(_edited(a, **{name: complex(0.0, NAN)}))
        # Gram positivity along a random direction that leaves u and v alone
        ray = rng.standard_normal(8).view(complex)
        rows += _straddle(
            lambda x: _edited(a, s=a.s + x * ray[0], p=a.p + x * ray[1],
                              r=a.r + x * ray[2], q=a.q + x * ray[3]),
            0.0, 2.0,
        )
        rows += _straddle(lambda x: _edited(a, u=a.u + x), 0.0, 1e-9)
        # random perturbations of every field, at scales down to the tolerances
        for scale in (1e-1, 1e-6, 1e-11, 1e-12, 1e-13):
            amps, overlaps = _edited(a)
            rows.append((
                [c + scale * rng.standard_normal() for c in amps],
                [o + scale * complex(*rng.standard_normal(2)) for o in overlaps],
            ))
    # moduli that overflow a float, and an infinite part next to a NaN one
    for name in OVERLAP_NAMES:
        for big in (complex(1.5e308, 1.5e308), complex(-1e308, 1.7e308), complex(INF, NAN)):
            rows.append(_edited(identity, **{name: big}))
    rows.append(([NAN, 0.0, 1.0, 0.0], [0j] * 6))
    return rows


def test_gram_stack_matches_gram_matrix_bytes():
    # the stacked Gram matrices are gram_matrix's, and both the matrix
    # written out entry by entry, bit for bit, NaN and overflow included
    rows = _validation_cloud(np.random.default_rng(17))
    overlaps = np.array([o for _, o in rows], dtype=complex)
    assert np.isnan(overlaps).any() and np.isinf(overlaps).any()
    # gram_matrix reads its overlaps through attack_rows, which reads the
    # amplitudes too
    amps = {"c00": 1.0, "c01": 0.0, "c11": 1.0, "c10": 0.0}
    for g, o in zip(_gram_stack(overlaps), overlaps):
        assert g.tobytes() == _gram_literal(*o).tobytes()
        row = SimpleNamespace(**amps, **dict(zip(OVERLAP_NAMES, o)))
        assert g.tobytes() == gram_matrix(row).tobytes()


def test_overflowing_overlap_leaves_the_unit_disc():
    # abs() of this overlap overflows, and validate reads its modulus as inf
    big = complex(1.5e308, 1.5e308)
    with pytest.raises(OverlapMagnitudeError, match=r"^\|s\| = inf exceeds 1$"):
        AttackParams(c00=1.0, c01=0.0, c11=1.0, c10=0.0, s=big)


def _pivot_verdicts(overlaps: np.ndarray) -> np.ndarray:
    """Gram positivity of each row by gram_pivots on its Python complexes."""
    return np.array([all(pivot > 0.0 for pivot in gram_pivots(*row)) for row in overlaps.tolist()])


def test_pivot_verdict_matches_eigvalsh_on_perturbed_draws():
    # 2000 sampler draws, each perturbed at five scales: 10,000 Gram
    # matrices. The pivot test and the eigvalsh oracle decide each alike
    # (0 flips), and both verdicts occur
    rng = np.random.default_rng(23)
    draws = attack_rows([sample_valid(seed, bool(seed % 2)) for seed in range(2000)])[1]
    cloud = np.concatenate([
        draws + scale * (rng.standard_normal(draws.shape) + 1j * rng.standard_normal(draws.shape))
        for scale in (0.0, 1e-3, 1e-2, 0.1, 0.3)
    ])
    verdict = _pivot_verdicts(cloud)
    flips = int(np.count_nonzero(verdict != eigvalsh_gram_verdict(cloud)))
    assert flips == 0
    assert verdict[:2000].all() and not verdict.all()


def test_pivot_verdict_on_both_sides_of_the_slack():
    # G(t) = I + t (G0 - I) for singular Gram matrices G0 of four unit kets
    # in C^3 has lambda_min = 1 - t, so t = 1 - PSD_SLACK + d puts
    # lambda_min at PSD_SLACK - d. Down to |d| = 1e-12 the pivot test
    # accepts exactly where d < 0, as the eigvalsh oracle does (0 flips)
    rng = np.random.default_rng(29)
    kets = rng.standard_normal((200, 4, 3)) + 1j * rng.standard_normal((200, 4, 3))
    kets /= np.linalg.norm(kets, axis=2, keepdims=True)
    g0 = kets.conj() @ kets.swapaxes(1, 2)
    assert np.max(np.abs(np.linalg.eigvalsh(g0)[:, 0])) <= 1e-14
    # the kets in the order (E00, E01, E11, E10): s, u, p, r, v, q
    ov0 = g0[:, [0, 0, 0, 2, 1, 1], [1, 3, 2, 3, 2, 3]]
    for d in (-1e-1, -1e-4, -1e-8, -1e-11, -1e-12, 1e-12, 1e-11, 1e-8, 1e-4, 1e-1):
        verdict = _pivot_verdicts((1.0 - PSD_SLACK + d) * ov0)
        assert verdict.tolist() == [d < 0] * len(ov0), d
        assert verdict.tolist() == eigvalsh_gram_verdict((1.0 - PSD_SLACK + d) * ov0).tolist(), d
