import pytest

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
