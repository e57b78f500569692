import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqkd import attack, verify
from dqkd.cli import main
from dqkd.verify import VerificationCheck, VerificationReport, run_verification

ROOT = Path(__file__).resolve().parent.parent


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
        assert check.trials == (1 if check.name == "backward-indistinguishability" else 30)


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
        (16, 0, ("0x1.0000000000000p-51", "0x1.c000000000000p-52", "0x1.0000000000000p-53",
                 "0x0.0p+0", "0x1.2000000000000p-51")),
        (30, 7, ("0x1.0000000000000p-52", "0x1.c000000000000p-52", "0x1.0000000000000p-53",
                 "0x0.0p+0", "0x1.8000000000000p-51")),
        (200, 0, ("0x1.0000000000000p-51", "0x1.2000000000000p-51", "0x1.0000000000000p-53",
                  "0x0.0p+0", "0x1.a000000000000p-51")),
    ],
)
def test_pinned_deviations(trials, seed, deviations):
    # every check's worst deviation, to the last bit, in report order
    report = run_verification(trials=trials, seed=seed)
    assert tuple(c.max_deviation.hex() for c in report.checks) == deviations
    # the joint-entropy check draws the attacks it has always drawn
    joint_entropy_witness = {
        (16, 0): 8490676843039873848,
        (30, 7): 7491102830980345719,
        (200, 0): 8490676843039873848,
    }
    assert report.checks[0].witness_seed == joint_entropy_witness[trials, seed]


def _draws(trials: int, seed: int) -> list[int]:
    """The child seeds run_verification(trials, seed) draws its attacks from."""
    return verify._child_seeds(verify._child_seeds(seed, 1)[0], trials)


def test_nan_deviation_fails_its_check(monkeypatch):
    # a NaN deviation is the worst one, and its draw is the witness
    seeds = [11, 12, 13, 14]
    worst = verify._worst("nan", 1e-9, {"nan": np.array([0.0, math.nan, 1.0, math.nan])}, seeds)
    assert math.isnan(worst.max_deviation) and worst.witness_seed == 12
    assert not worst.passed
    deviations = verify._deviations

    def nan_diagonal(seeds):
        return {**deviations(seeds), "diagonal-fidelity-identity": np.full(len(seeds), math.nan)}

    monkeypatch.setattr(verify, "_deviations", nan_diagonal)
    report = run_verification(trials=4, seed=0)
    assert not report.ok
    assert [c.name for c in report.checks if not c.passed] == ["diagonal-fidelity-identity"]


@pytest.mark.parametrize("trials, seed", [(16, 0), (30, 7)])
def test_witness_seed_replays_worst_deviation(trials, seed):
    report = run_verification(trials=trials, seed=seed)
    draws = _draws(trials, seed)
    deviations = verify._deviations(draws)
    for check in report.checks:
        assert check.to_dict()["witness_seed"] == check.witness_seed
        if check.name == "backward-indistinguishability":
            assert check.witness_seed is None
            continue
        # one call on the witness alone replays the worst deviation
        assert verify._deviations([check.witness_seed])[check.name][0] == check.max_deviation
        # and the witness is the first draw that reaches it
        first = draws.index(check.witness_seed)
        assert all(d < check.max_deviation for d in deviations[check.name][:first])


def test_stacking_couples_no_entries():
    # the deviations of the first k draws are the first k of a longer run
    draws = _draws(24, 5)
    longer = verify._deviations(draws)
    for k in (1, 7, 16):
        shorter = verify._deviations(draws[:k])
        assert shorter.keys() == longer.keys()
        for name, devs in shorter.items():
            assert devs.tobytes() == longer[name][:k].tobytes(), (k, name)


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


@pytest.mark.parametrize("trials", [16, 40, 2 * verify._SEED_CHUNK + 8])
def test_eigensolver_census(monkeypatch, trials):
    # per chunk, one stack holds the joint states of every draw and every
    # neighbour: one call per size diagonalizes them all and realizes their
    # ancillas; the 4x4 Gram matrices are never diagonalized to validate,
    # but checked by pivots: each draw by AttackParams, and all 14 steps of
    # every neighbour ladder in one stacked validation
    calls = {}

    def counted(name, solver):
        def wrapper(m, *args, **kwargs):
            key = (name, m.shape[-1])
            calls[key] = calls.get(key, 0) + 1
            return solver(m, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    mask_calls = []
    chunk_deviations = verify._chunk_deviations
    valid_mask = verify._valid_mask

    def counted_mask(amps, overlaps):
        mask_calls[-1] += 1
        return valid_mask(amps, overlaps)

    def counted_chunk(seeds):
        mask_calls.append(0)
        return chunk_deviations(seeds)

    monkeypatch.setattr(verify, "_valid_mask", counted_mask)
    monkeypatch.setattr(verify, "_chunk_deviations", counted_chunk)
    run_verification(trials=trials, seed=0)
    chunks = -(-trials // verify._SEED_CHUNK)
    # the backward check builds the identity attack's states once more and
    # takes the trace distance of their two 8x8 key blocks
    assert calls[("eigvalsh", 16)] == chunks + 1
    assert calls[("eigvalsh", 8)] == chunks + 2
    assert calls[("eigh", 4)] == chunks + 1
    assert ("eigvalsh", 4) not in calls
    assert mask_calls == [1] * chunks


def test_every_drawn_attack_is_validated(monkeypatch):
    # AttackParams validates each of the 40 draws and the backward check's
    # identity attack, and nothing builds an attack around its constructor
    calls = [0]
    validate = attack.validate

    def counted(params):
        calls[0] += 1
        return validate(params)

    monkeypatch.setattr(attack, "validate", counted)
    run_verification(trials=40, seed=3)
    assert calls[0] == 41


def test_chunks_concatenate_to_one_stack(monkeypatch):
    # over 2.5 chunks, the chunked deviations are the chunks run one at a
    # time and concatenated, and those of one stack of every seed, byte for byte
    n = 5 * verify._SEED_CHUNK // 2
    draws = _draws(n, 2)
    chunked = verify._deviations(draws)
    pieces = [
        verify._deviations(draws[i : i + verify._SEED_CHUNK])
        for i in range(0, n, verify._SEED_CHUNK)
    ]
    monkeypatch.setattr(verify, "_SEED_CHUNK", n)
    whole = verify._deviations(draws)
    for name, devs in chunked.items():
        assert len(devs) == n
        assert devs.tobytes() == np.concatenate([p[name] for p in pieces]).tobytes(), name
        assert devs.tobytes() == whole[name].tobytes(), name


def test_witness_in_a_later_chunk_replays_alone():
    trials, seed = 5 * verify._SEED_CHUNK // 2, 1
    report = run_verification(trials=trials, seed=seed)
    draws = _draws(trials, seed)
    later = [
        check for check in report.checks
        if check.witness_seed is not None and draws.index(check.witness_seed) >= verify._SEED_CHUNK
    ]
    assert later
    for check in later:
        assert verify._deviations([check.witness_seed])[check.name][0] == check.max_deviation


def _verify_peak_rss_mb(trials: int) -> float:
    """Peak RSS of a `dqkd verify --trials <trials>` child, from its own rusage."""
    child = subprocess.Popen(
        [sys.executable, "-m", "dqkd.cli", "verify", "--trials", str(trials)],
        stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    return usage.ru_maxrss / 1024  # kilobytes on Linux


# ten times the trials may cost at most this much more peak memory; one
# stack of all trials cost ~150 MB more at 5000 trials than at 500
FLAT_MEMORY_MARGIN_MB = 8.0


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kilobytes, as on Linux")
def test_verify_memory_is_flat_in_trials():
    small = _verify_peak_rss_mb(500)
    large = _verify_peak_rss_mb(5000)
    assert large - small <= FLAT_MEMORY_MARGIN_MB, (small, large)
