import math

import numpy as np
import pytest

from dqkd import verify
from dqkd.attack import sample_valid
from dqkd.cli import main
from dqkd.verify import VerificationCheck, VerificationReport, run_verification


def test_all_checks_pass():
    report = run_verification(trials=30, seed=0)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "joint-entropy-two-bits",
        "closed-form-spectrum",
        "diagonal-fidelity-identity",
        "backward-indistinguishability",
        "overlap-insensitivity",
    ]
    for check in report.checks:
        assert check.passed
        assert check.max_deviation <= check.tolerance


def test_report_flags_failures():
    good = VerificationCheck(name="a", trials=1, max_deviation=0.0, tolerance=1e-9)
    bad = VerificationCheck(name="b", trials=1, max_deviation=1.0, tolerance=1e-9)
    assert good.passed and not bad.passed
    assert bad.to_dict()["passed"] is False
    assert VerificationReport(checks=(good,)).ok
    assert not VerificationReport(checks=(good, bad)).ok


def test_verification_is_deterministic():
    a = run_verification(trials=10, seed=4)
    b = run_verification(trials=10, seed=4)
    assert a == b


@pytest.mark.parametrize(
    "trials, seed, deviations",
    [
        (16, 0, ("0x1.0000000000000p-51", "0x1.8000000000000p-52", "0x1.0000000000000p-53",
                 "0x0.0p+0", "0x1.0000000000000p-51")),
        (30, 7, ("0x1.0000000000000p-52", "0x1.c000000000000p-52", "0x1.8000000000000p-53",
                 "0x0.0p+0", "0x1.0000000000000p-51")),
    ],
)
def test_pinned_deviations(trials, seed, deviations):
    # every check's worst deviation, to the last bit, in report order
    report = run_verification(trials=trials, seed=seed)
    assert tuple(c.max_deviation.hex() for c in report.checks) == deviations


def test_nan_deviation_fails_its_check(monkeypatch):
    # a NaN deviation is the worst one, and its draw is the witness
    seeds = verify._child_seeds(0, 4)
    worst, witness = verify._worst(0, 4, lambda attacks: [0.0, math.nan, 1.0, math.nan])
    assert math.isnan(worst) and witness == seeds[1]
    assert not VerificationCheck("nan", 4, worst, 1e-9, witness).passed
    monkeypatch.setattr(verify, "_diagonal_fidelity", lambda attacks: [math.nan] * len(attacks))
    report = run_verification(trials=4, seed=0)
    assert not report.ok
    assert [c.name for c in report.checks if not c.passed] == ["diagonal-fidelity-identity"]


@pytest.mark.parametrize("trials, seed", [(16, 0), (30, 7)])
def test_witness_seed_replays_worst_deviation(trials, seed):
    report = run_verification(trials=trials, seed=seed)
    child = verify._child_seeds(seed, 5)
    deviations = {
        "joint-entropy-two-bits": verify._joint_entropy,
        "closed-form-spectrum": verify._closed_form_spectrum,
        "diagonal-fidelity-identity": verify._diagonal_fidelity,
    }
    for i, check in enumerate(report.checks):
        assert check.to_dict()["witness_seed"] == check.witness_seed
        if check.name == "backward-indistinguishability":
            assert check.witness_seed is None
            continue
        draws = verify._child_seeds(child[i], trials)
        w = check.witness_seed
        first = draws.index(w)
        attack = sample_valid(w, symmetric=bool(w % 2))
        if check.name == "overlap-insensitivity":
            # advance the neighbour rng past the draws before the witness
            rng = np.random.default_rng(child[3])
            rng.random(first)
            replayed = verify._insensitivity(rng, [attack])[0]
        else:
            replayed = deviations[check.name]([attack])[0]
            # the witness is the first draw that reaches the maximum
            devs = deviations[check.name]([sample_valid(s, symmetric=bool(s % 2)) for s in draws])
            assert all(d < check.max_deviation for d in devs[:first])
        assert replayed == check.max_deviation


def test_run_verification_argument_contract():
    for kwargs, name in (
        ({"trials": True}, "trials"),
        ({"trials": 16.0}, "trials"),
        ({"seed": False}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "0"}, "seed"),
    ):
        with pytest.raises(TypeError, match=name):
            run_verification(**kwargs)
    with pytest.raises(ValueError, match="seed"):
        run_verification(trials=1, seed=-1)
    with pytest.raises(ValueError, match="trials"):
        run_verification(trials=0)
    assert run_verification(trials=1, seed=np.int64(3)) == run_verification(trials=1, seed=3)


def test_verify_command_rejects_a_negative_seed(capsys):
    assert main(["verify", "--trials", "2", "--seed", "-1"]) == 1
    assert "seed=-1" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [16, 40])
def test_eigensolver_census(monkeypatch, trials):
    # each check that builds joint states diagonalizes all of them, 16x16
    # and 8x8, and realizes all their ancillas with one call per size
    calls = {}

    def counted(name, solver):
        def wrapper(m, *args, **kwargs):
            key = (name, m.shape[-1])
            calls[key] = calls.get(key, 0) + 1
            return solver(m, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    run_verification(trials=trials, seed=0)
    builds_states = 3  # joint entropy, closed-form spectrum, insensitivity
    assert calls[("eigvalsh", 16)] == builds_states
    assert calls[("eigvalsh", 8)] == builds_states
    assert calls[("eigh", 4)] == builds_states
