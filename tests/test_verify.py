import hashlib
import inspect
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqkd import attack, keyrate, rates, verify
from dqkd.attack import AMPLITUDE_ATOL, UNITARITY_ATOL, named_attack
from dqkd.cli import main
from dqkd.keyrate import choi_states
from dqkd.qstate import NotDensityMatrixError, NotHermitianError
from dqkd.rates import PSD_SLACK, be_spectrum_closed_form
from dqkd.verify import VerificationCheck, VerificationReport, run_verification

ROOT = Path(__file__).resolve().parent.parent


def test_all_checks_pass():
    report = run_verification(trials=30, seed=0)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "choi-channel",
        "closed-form-spectrum",
        "diagonal-fidelity-identity",
        "general-attack-bound",
        "backward-indistinguishability",
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
        (16, 0, ("0x1.0000000000000p-53", "0x1.4000000000000p-53", "0x1.0000000000000p-53",
                 "0x1.0000000000000p-51", "0x0.0p+0")),
        (30, 7, ("0x1.0000000000000p-53", "0x1.0000000000000p-52", "0x1.0000000000000p-53",
                 "0x1.0000000000000p-51", "0x0.0p+0")),
        (200, 0, ("0x1.0000000000000p-53", "0x1.4000000000000p-52", "0x1.0000000000000p-53",
                  "0x1.0000000000000p-51", "0x0.0p+0")),
    ],
)
def test_pinned_deviations(trials, seed, deviations):
    # every check's worst deviation, to the last bit, in report order
    report = run_verification(trials=trials, seed=seed)
    assert tuple(c.max_deviation.hex() for c in report.checks) == deviations
    # the channel check draws the attacks it has always drawn
    channel_witness = {
        (16, 0): 117553109793323584,
        (30, 7): 273083634880134529,
        (200, 0): 117553109793323584,
    }
    assert report.checks[0].witness_seed == channel_witness[trials, seed]


# the two rows that read no eigensolver, at every draw of run_verification(512, 0)
PINNED_PLAIN_ROWS_SHA256 = "4a90b105a4cfa4dc51ef6eca1e1a68acd4558b896adc8914cad352d4282844ea"


def test_pinned_plain_rows():
    # every deviation of the diagonal and bound rows, to the last bit: they
    # read no LAPACK, so this pin holds under every BLAS kernel
    devs = verify._deviations(_draws(512, 0))
    rows = ("diagonal-fidelity-identity", "general-attack-bound")
    text = "\n".join(x.hex() for name in rows for x in devs[name].tolist())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PLAIN_ROWS_SHA256


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


def test_each_check_is_named_once():
    # a check is one row of CHECKS, or the backward line after them, and
    # its name is spelled nowhere else in the module
    source = Path(verify.__file__).read_text(encoding="utf-8")
    names = [c.name for c in run_verification(trials=1, seed=0).checks]
    assert names == [name for name, _, _ in verify.CHECKS] + ["backward-indistinguishability"]
    assert {name: source.count(name) for name in names} == dict.fromkeys(names, 1)


def test_channel_tolerance_covers_the_validation_slacks(capsys):
    # the channel row's tolerance is derived from the validation slacks: it
    # covers the first-order bounds of the marginal and of the smallest
    # eigenvalue, with less than 1e-12 to spare beyond their sum, and
    # `dqkd verify` prints it in full
    marginal = 0.5 * max(AMPLITUDE_ATOL, UNITARITY_ATOL)
    eigenvalue = 0.5 * abs(PSD_SLACK) * (1.0 + AMPLITUDE_ATOL)
    (tolerance,) = [tol for name, tol, _ in verify.CHECKS if name == "choi-channel"]
    assert tolerance == 0.5 * (abs(PSD_SLACK) + AMPLITUDE_ATOL + UNITARITY_ATOL)
    assert max(marginal, eigenvalue) <= tolerance < marginal + eigenvalue + 1e-12
    assert main(["verify", "--trials", "1"]) == 0
    assert f"(tolerance {tolerance!r})" in capsys.readouterr().out.splitlines()[0]


def test_neighbours_share_their_draws_closed_form():
    # the edge step changes only Re s, which the closed form never reads, so
    # the closed form on a neighbour's row is its draw's, bit for bit, and
    # each of its rows checks the brute-force spectrum against it
    for seed in _draws(64, 0):
        draw = verify.sample_valid(seed, bool(seed % 2))
        assert be_spectrum_closed_form(verify._edge(draw)) == be_spectrum_closed_form(draw)


# each mutant, under a name of its own: the function of dqkd.attack or
# dqkd.keyrate it edits, the source text it replaces, the replacement, and
# at each (trials, seed) the lines of run_verification it fails, or the
# validator's error it raises
MUTANTS = [
    pytest.param(
        "forward_fidelities", "c00 * c01 * params.s.real", "c00 * c01 * params.s.imag",
        {(16, 0): {"diagonal-fidelity-identity"}, (200, 0): {"diagonal-fidelity-identity"}},
        id="fidelity-s-imaginary",
    ),
    # at (200, 0) a draw's f- leaves [0, 1], so its certificate raises and
    # its bound row reads NaN
    pytest.param(
        "forward_fidelities", "+ c01 * c11 * params.v.real", "- c01 * c11 * params.v.real",
        {
            (16, 0): {"diagonal-fidelity-identity"},
            (200, 0): {"diagonal-fidelity-identity", "general-attack-bound"},
        },
        id="fidelity-v-sign",
    ),
    pytest.param(
        "forward_fidelities", "+ c01 * c10 * params.q.real", "- c01 * c10 * params.q.real",
        {
            (16, 0): {"diagonal-fidelity-identity", "general-attack-bound"},
            (200, 0): {"diagonal-fidelity-identity", "general-attack-bound"},
        },
        id="fidelity-q-sign",
    ),
    # the last LDL pivot with its d3 term halved admits Grams that are not
    # PSD; only the channel row reads positivity, as the spectral rows and
    # the closed form read the same overlaps, and it sees them only on the
    # edge neighbours: every draw is interior
    pytest.param(
        "gram_pivots", "- (rr * rr + ri * ri) / d3", "- 0.5 * (rr * rr + ri * ri) / d3",
        {(16, 0): {"choi-channel"}, (200, 0): {"choi-channel"}},
        id="gram-pivot-halved",
    ),
    # a first-order branch fault: 1e-7 times branch 0 added to branch 1,
    # renormalized; of verify's lines only the backward one realizes branches
    pytest.param(
        "branch_stack", "return scaled[:, [0, 1, 3, 2]].reshape(len(amps), 2, 8)",
        "phi = scaled[:, [0, 1, 3, 2]].reshape(len(amps), 2, 8); phi[:, 1] += 1e-7 * phi[:, 0]; "
        "phi[:, 1] /= np.linalg.norm(phi[:, 1], axis=1, keepdims=True); return phi",
        {(16, 0): {"backward-indistinguishability"}, (200, 0): {"backward-indistinguishability"}},
        id="branch-first-order",
    ),
    # Choi-route faults that omega's validation rejects raise its typed
    # error: unconjugated overlaps make omega not Hermitian, and a scaled
    # Choi state gives omega a trace off 1
    pytest.param(
        "_overlap_values", "overlaps.conj()", "overlaps",
        {(16, 0): NotHermitianError, (200, 0): NotHermitianError},
        id="overlap-unconjugated",
    ),
    pytest.param(
        "choi_states", "return 0.5 * (c[:, :, None]", "return (1 + 1e-9) * 0.5 * (c[:, :, None]",
        {(16, 0): NotDensityMatrixError, (200, 0): NotDensityMatrixError},
        id="choi-trace-scaled",
    ),
    # faults in the closed form's block B: the bound line's chain still
    # closes (its terms telescope, and d_a >= |m| holds), so only the
    # comparison with omega's diagonalized spectrum kills them
    pytest.param(
        "_block", "r.imag", "r.real",
        {(16, 0): {"closed-form-spectrum"}, (200, 0): {"closed-form-spectrum"}},
        id="block-r-real",
    ),
    pytest.param(
        "_block", "abs(a - b)", "abs(a + b)",
        {(16, 0): {"closed-form-spectrum"}, (200, 0): {"closed-form-spectrum"}},
        id="block-delta-b-sum",
    ),
    pytest.param(
        "_block", "(a + b) ** 2", "(a - b) ** 2",
        {(16, 0): {"closed-form-spectrum"}, (200, 0): {"closed-form-spectrum"}},
        id="block-delta-a-difference",
    ),
]


@pytest.mark.parametrize("function, old, new, failed", MUTANTS)
def test_verify_catches_each_mutant(monkeypatch, function, old, new, failed):
    home = next(module for module in (attack, keyrate, rates) if hasattr(module, function))
    source = inspect.getsource(getattr(home, function))
    assert source.count(old) == 1
    namespace = dict(vars(home))
    exec(compile(source.replace(old, new), home.__file__, "exec"), namespace)
    # patched in its module and wherever verify reads it by name
    for module in (home, verify):
        if hasattr(module, function):
            monkeypatch.setattr(module, function, namespace[function])
    # a fault that the validators let through is reported as failed lines,
    # never raised; one that omega's validation rejects raises its error
    for (trials, seed), lines in failed.items():
        if isinstance(lines, type):
            with pytest.raises(lines):
                run_verification(trials=trials, seed=seed)
            continue
        report = run_verification(trials=trials, seed=seed)
        assert {c.name for c in report.checks if not c.passed} == lines, (trials, seed)


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
    # per chunk, one stack holds the draws and their neighbours: one 4x4
    # eigvalsh validates their omega states and one reads their Choi
    # states' smallest eigenvalues, and no ancilla is realized; the 4x4
    # Gram matrices are never diagonalized to validate, but checked by
    # pivots, attack by attack, in AttackParams
    calls = []

    def counted(name, solver):
        def wrapper(m, *args, **kwargs):
            calls.append((name, m.shape[-1], m.shape[:-2]))
            return solver(m, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    run_verification(trials=trials, seed=0)
    # each chunk's stack is its draws and the edge neighbour of each; the
    # backward check then realizes the identity attack once more and takes
    # the trace distance of its two 8x8 key blocks
    chunk = verify._SEED_CHUNK
    sizes = [(2 * min(chunk, trials - i),) for i in range(0, trials, chunk)]
    per_chunk = [call for size in sizes for call in (("eigvalsh", 4, size),) * 2]
    assert calls == per_chunk + [("eigh", 4, (1,)), ("eigvalsh", 8, ())]


def test_every_stacked_attack_is_validated(monkeypatch):
    # every attack of the one Choi stack, 40 draws and the edge neighbour of
    # each, is an object that validate accepted
    accepted = {}
    validate = attack.validate

    def recorded(params):
        validate(params)
        # holding the object keeps its id from being reused
        accepted[id(params)] = params
        return params

    stacks = []

    def captured(attacks):
        stacks.append(list(attacks))
        return choi_states(attacks)

    monkeypatch.setattr(attack, "validate", recorded)
    monkeypatch.setattr(verify, "choi_states", captured)
    run_verification(trials=40, seed=3)
    assert [len(stack) for stack in stacks] == [2 * 40]
    assert [i for i, a in enumerate(stacks[0]) if accepted.get(id(a)) is not a] == []


def test_every_draw_has_an_edge_neighbour():
    # an attack that accepts no step is its own neighbour, whose deviation
    # is exactly its draw's; every other neighbour is a new attack that
    # validate accepts, with only Re s moved
    identity = named_attack("identity")  # every Re s step leaves the disc
    assert verify._edge(identity) is identity
    measure_z = named_attack("measure_z")  # c01 = 0
    near = verify._edge(measure_z)
    assert near.s == 0.05 and near._replace(s=measure_z.s) == measure_z
    for seed in _draws(64, 0):
        draw = verify.sample_valid(seed, bool(seed % 2))
        near = verify._edge(draw)
        assert near is not draw and attack.validate(near) is near
        assert near.s.imag == draw.s.imag and near._replace(s=draw.s) == draw


def _hexes(params) -> str:
    """An attack's floats as exact hexes, in to_dict order."""
    doc = params.to_dict()
    floats = [doc[k] for k in ("c00", "c01", "c11", "c10")]
    floats += [x for o in doc["overlaps"] for x in (o["re"], o["im"])]
    return ",".join(x.hex() for x in floats)


# seed 6 rejects its first three tries, each for |u| > 1, before it keeps one
PINNED_SAMPLES_SHA256 = "35f72fe47fe2422b5f717e0522aeeff879ac180d96e97285b5cd1b28cf52848b"


def _draws_digest(seeds: list[int]) -> str:
    """sha256 of the hexes of each seed's draw and its edge neighbour."""
    lines = []
    for seed in seeds:
        draw = verify.sample_valid(seed, bool(seed % 2))
        lines += [_hexes(draw), _hexes(verify._edge(draw))]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pinned_draws_and_neighbours():
    # every draw and edge neighbour, to the last bit: the first 256 child
    # seeds of seed 0, then a seed whose first try is rejected
    assert _draws_digest(verify._child_seeds(0, 256) + [6]) == PINNED_SAMPLES_SHA256


def _openblas_kernels() -> list[str | None]:
    """The OpenBLAS kernels this host can run: its default (None), the
    Prescott baseline, and Haswell where the CPU has AVX2."""
    cpuinfo = Path("/proc/cpuinfo")
    avx2 = cpuinfo.is_file() and " avx2" in cpuinfo.read_text(encoding="utf-8")
    return [None, "Prescott"] + (["Haswell"] if avx2 else [])


def _numpy_blas() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernels")
@pytest.mark.skipif("openblas" not in _numpy_blas(), reason="numpy's BLAS is not OpenBLAS")
def test_draws_do_not_depend_on_the_blas_kernel():
    # the draws, their neighbours, the first chunk's Choi and omega stacks
    # (the eigensolver's inputs) and the three rows whose deviations no
    # eigenvalue sets (the smallest Choi eigenvalue is above 1e-8 on every
    # attack here, so the channel row's marginal sets it) read the same bits
    # under every kernel OpenBLAS can select; the variable that forces one
    # is set in the children's environment alone
    script = (
        "import hashlib\n"
        "from dqkd import keyrate, verify\n"
        "from test_verify import _draws_digest\n"
        "seeds = verify._child_seeds(0, 256)\n"
        "devs = verify._deviations(seeds)\n"
        "rows = ('choi-channel', 'diagonal-fidelity-identity', 'general-attack-bound')\n"
        "choi = verify._Stack(seeds[:verify._SEED_CHUNK]).choi\n"
        "omega = keyrate.omega_states(choi)[0]\n"
        "blobs = [devs[name].tobytes() for name in rows] + [choi.tobytes(), omega.tobytes()]\n"
        "print(_draws_digest(seeds + [6]), *(hashlib.sha256(b).hexdigest() for b in blobs))\n"
    )
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    outputs = {}
    for kernel in _openblas_kernels():
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs[kernel] = done.stdout.split()
    assert len({tuple(out) for out in outputs.values()}) == 1, outputs
    assert outputs[None][0] == PINNED_SAMPLES_SHA256


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
    # at seed 6 the witnesses of the two rows that read no eigensolver, and
    # so do not move with the BLAS kernel, lie in the second and third chunks
    trials, seed = 5 * verify._SEED_CHUNK // 2, 6
    report = run_verification(trials=trials, seed=seed)
    draws = _draws(trials, seed)
    later = [
        check for check in report.checks
        if check.witness_seed is not None and draws.index(check.witness_seed) >= verify._SEED_CHUNK
    ]
    assert {"diagonal-fidelity-identity", "general-attack-bound"} <= {c.name for c in later}
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
