import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import bernstein_halfwidth

from dqkd import verify
from dqkd.attack import named_attack
from dqkd.cli import main
from dqkd.optimizer import FidelityConstraint, maximize_s_be
from dqkd.protosim import ProtocolConfig, error_rate, run_protocol
from dqkd.rates import binary_entropy, final_rate

ROOT = Path(__file__).resolve().parent.parent


def test_keyrate_table(capsys):
    assert main(["keyrate", "--xi", "0.9", "--e", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "r_final" in out and "aborted" in out
    # below xi = 0 the raw rate has no curve value
    assert main(["keyrate", "--xi", "-0.5", "--e", "0.1"]) == 0
    assert "\nr_final_raw  = nan\n" in capsys.readouterr().out


def test_keyrate_json(capsys):
    assert main(["keyrate", "--xi", "0.9", "--e", "0.05", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == [
        "aborted", "boundary_ok", "e", "r_bb84", "r_final", "r_final_raw", "r_pa", "xi",
    ]
    assert doc["r_final"] == pytest.approx(0.2446074492947626, abs=1e-12)


def test_keyrate_aborted_is_not_an_error(capsys):
    # an abort is a protocol outcome, not a tool failure
    assert main(["keyrate", "--xi", "0.3", "--e", "0.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["aborted"] is True and doc["r_final"] == 0.0


def test_keyrate_rejects_bad_domain(capsys):
    assert main(["keyrate", "--xi", "1.5", "--e", "0.0"]) == 1
    assert "xi" in capsys.readouterr().err


def test_sweep_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--var", "e", "--start", "0.0", "--stop", "0.12",
        "--steps", "25", "--symmetric", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "var", "value", "xi", "e", "r_pa", "r_final", "r_final_raw", "r_bb84", "aborted",
    ]
    assert len(rows) == 26
    for row in rows[1:]:
        assert row[0] == "e"
        e = float(row[3])
        report = final_rate(1.0 - 2.0 * e, e)  # symmetric sweep ties xi to e
        assert float(row[2]) == pytest.approx(report.xi, abs=1e-12)
        assert float(row[4]) == pytest.approx(report.r_pa, abs=1e-12)
        assert float(row[5]) == pytest.approx(report.r_final, abs=1e-12)
        assert float(row[6]) == pytest.approx(report.r_final_raw, abs=1e-12)
        assert float(row[7]) == pytest.approx(report.r_bb84, abs=1e-12)
        assert row[8] == ("true" if report.aborted else "false")


def test_sweep_xi_handles_undefined_raw_rate(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--var", "xi", "--start", "-0.2", "--stop", "1.0",
        "--steps", "7", "--e", "0.05", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert math.isnan(float(rows[0][6]))  # xi < 0: no curve value
    assert rows[0][8] == "true"
    assert rows[-1][8] == "false"


def test_sweep_backward_noise_defaults_to_clean_forward(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--var", "backward_noise", "--start", "0.0", "--stop", "0.1",
        "--steps", "3", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(float(row[2]) == 1.0 for row in rows)


@pytest.mark.parametrize("xi", [0.0, 0.5, 0.9, 1.0])
def test_sweep_backward_noise_adds_the_forward_errors(xi, tmp_path):
    # a key bit is announced wrong after a forward or a backward flip, not
    # both: each row reads what a run of the symmetric attack with margin xi
    # estimates at n = 2**63 - 1. e is held to a Bernstein interval at
    # L = 30 (at most 2 exp(-30) = 1.9e-13 by chance per row, 8.2e-12 over
    # the 44 rows of the four sweeps) plus the 12-digit print rounding, and
    # r_final to that distance times the slope |dr/de| = log2((1 - e)/e)
    out = tmp_path / "noise.csv"
    assert main([
        "sweep", "--var", "backward_noise", "--xi", repr(xi), "--start", "0", "--stop", "0.1",
        "--steps", "11", "--out", str(out),
    ]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 11
    attack = named_attack("symmetric", (1.0 - xi) / 2.0)
    for row in rows:
        assert row[0] == "backward_noise" and float(row[2]) == xi
        b, e, r = float(row[1]), float(row[3]), float(row[5])
        stats, report = run_protocol(ProtocolConfig(attack, n=2**63 - 1, backward_noise=b))
        rounding = 5e-12 * e  # half a unit in the 12th significant digit
        ann = stats.n_announced
        assert abs(stats.est_e - e) <= bernstein_halfwidth(ann, e, 30.0) / ann + rounding, row
        # the slope is steepest at the end of [e, report.e] nearest 0
        gap = abs(report.e - e) + rounding
        low = min(e, report.e) - rounding
        slope = math.log2((1.0 - low) / low) if gap else 0.0
        assert abs(final_rate(xi, report.e).r_final - r) <= slope * gap + 5e-12 * r, row


def test_sweep_argument_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # sweeping e needs a rule for xi
    assert main(["sweep", "--var", "e", "--start", "0", "--stop", "0.1",
                 "--steps", "5", "--out", out]) == 1
    # but not two rules at once
    assert main(["sweep", "--var", "e", "--start", "0", "--stop", "0.1",
                 "--steps", "5", "--xi", "0.9", "--symmetric", "--out", out]) == 1
    # grids need at least two points
    assert main(["sweep", "--var", "e", "--start", "0", "--stop", "0.1",
                 "--steps", "1", "--symmetric", "--out", out]) == 1
    # unwritable output path
    assert main(["sweep", "--var", "e", "--start", "0", "--stop", "0.1",
                 "--steps", "5", "--symmetric",
                 "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    capsys.readouterr()
    # below xi = 0 the forward errors alone push e past 1/2
    assert main(["sweep", "--var", "backward_noise", "--xi", "-0.1", "--start", "0",
                 "--stop", "0.1", "--steps", "3", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: --xi -0.1 ")
    # an empty range is an input error, and nothing is written
    empty = tmp_path / "empty.csv"
    assert main(["sweep", "--var", "e", "--start", "0.1", "--stop", "0.1", "--steps", "3",
                 "--symmetric", "--out", str(empty)]) == 1
    assert capsys.readouterr().err == "error: start=0.1 must be below stop=0.1\n"
    assert not empty.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--var", "xi", "--symmetric"],
        ["--var", "xi", "--xi", "0.7"],
        ["--var", "e", "--symmetric", "--e", "0.3"],
        ["--var", "e", "--xi", "0.9", "--e", "0.3"],
        ["--var", "backward_noise", "--e", "0.3"],
        ["--var", "backward_noise", "--symmetric"],
    ],
    ids=["xi-symmetric", "xi-xi", "e-symmetric-e", "e-xi-e", "backward_noise-e",
         "backward_noise-symmetric"],
)
def test_sweep_rejects_an_ignored_flag(flags, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", *flags, "--start", "0", "--stop", "0.1", "--steps", "3", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --var ")
    assert not out.exists()


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    # the error names the field, from a flag or from a config file
    assert main(["simulate", "--attack", "identity", "--n", "1000", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed=-1 must be non-negative\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"attack": "identity", "n": 1000, "seed": -1}), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: seed=-1 must be non-negative\n"


def test_optimize_writes_result(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--f01", "1.0", "--fpm", "0.75", "--out", str(out)])
    assert code == 0
    assert "gap" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["closed_form_entropy"] == pytest.approx(1.8112781244591329, abs=1e-12)
    assert abs(doc["gap"]) <= 1e-5
    assert doc["best_params"]["c00"] == pytest.approx(1.0)


def test_optimize_infeasible_constraint(capsys):
    assert main(["optimize", "--f01", "0.75", "--fpm", "0.70"]) == 1
    assert "boundary" in capsys.readouterr().err


def test_optimize_takes_no_budget(capsys):
    # the maximizer is built in closed form, so there is no evaluation cap to set
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--f01", "0.9", "--fpm", "0.9", "--budget", "20000"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_optimize_takes_no_seed(capsys):
    # the maximizer is deterministic, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--f01", "0.9", "--fpm", "0.9", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


COLD_COMMANDS = {
    "keyrate": ["keyrate", "--xi", "0.9", "--e", "0.01"],
    "sweep": ["sweep", "--var", "xi", "--start", "0.5", "--stop", "1", "--steps", "3",
              "--out", "rates.csv"],
    "sweep_noise": ["sweep", "--var", "backward_noise", "--xi", "0.9", "--start", "0",
                    "--stop", "0.1", "--steps", "3", "--out", "noise.csv"],
    "optimize": ["optimize", "--f01", "0.9", "--fpm", "0.9"],
    "simulate": ["simulate", "--attack", "identity", "--n", "1000"],
    "verify": ["verify", "--trials", "2"],
}
# the dqkd modules each cold subcommand loads: dqkd, dqkd.rates and these
LOADS = {
    "keyrate": set(),
    "sweep": set(),
    "sweep_noise": {"attack", "protosim"},
    "optimize": {"attack", "optimizer"},
    "simulate": {"attack", "protosim"},
    "verify": {"attack", "keyrate", "qstate", "verify"},
}


@pytest.mark.parametrize("command", list(COLD_COMMANDS))
def test_cold_command_loads_only_what_it_runs(command, tmp_path):
    # `python -m dqkd.cli` in a fresh interpreter. scipy serves only the
    # tests' search oracle, so no subcommand loads it; keyrate, sweep and
    # optimize evaluate a few scalars, so they do not load numpy either, and
    # simulate loads protosim, which imports numpy only for its draw. The
    # numpy-free modules' records are NamedTuples, so only verify's numpy
    # modules load dataclasses (and with it inspect, ast and tokenize);
    # csv is loaded only to write a sweep
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['dqkd', *{COLD_COMMANDS[command]!r}]\n"
        "try:\n"
        "    runpy.run_module('dqkd.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stderr.split())
    assert "scipy" not in loaded
    assert ("numpy" in loaded) == (command in ("simulate", "verify"))
    assert ("dataclasses" in loaded) == (command == "verify")
    assert ("csv" in loaded) == command.startswith("sweep")
    ours = {name for name in loaded if name.split(".")[0] == "dqkd"}
    assert ours == {"dqkd", "dqkd.rates"} | {f"dqkd.{m}" for m in LOADS[command]}


def _child(script: str, env: dict) -> subprocess.CompletedProcess:
    """A fresh interpreter running script on this checkout's sources."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**env, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_scalar_layer_runs_without_numpy():
    # with numpy unimportable, the maximizer, one attack, its fidelities
    # and its closed-form entropy still run, and so does the run model up to
    # the draw: a numpy import slipped into the scalar modules or into
    # protosim's module level fails here
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from dqkd import (AttackParams, FidelityConstraint, be_spectrum_closed_form,\n"
        "                  forward_fidelities, maximize_s_be, named_attack)\n"
        "from dqkd.protosim import ProtocolConfig, error_rate\n"
        "result = maximize_s_be(FidelityConstraint(c0sq=0.9, cppsq=0.9))\n"
        "attack = AttackParams.from_dict(named_attack('symmetric', 0.1).to_dict())\n"
        "config = ProtocolConfig(attack, n=10, backward_noise=0.05)\n"
        "print(result.best_entropy, forward_fidelities(attack).xi,\n"
        "      be_spectrum_closed_form(attack).entropy(), error_rate(0.9, config.backward_noise))\n"
    )
    done = _child(script, dict(os.environ))
    best, xi, entropy, e = map(float, done.stdout.split())
    assert best == maximize_s_be(FidelityConstraint(c0sq=0.9, cppsq=0.9)).best_entropy
    assert xi == pytest.approx(0.8, abs=1e-12)
    assert entropy == pytest.approx(1.0 + binary_entropy(0.8), abs=1e-12)
    assert e == error_rate(0.9, 0.05)


@pytest.mark.parametrize("preset", [None, "3"])
def test_cold_cli_pins_one_blas_thread_unless_set(preset):
    # importing the CLI sets nothing; a command sets one BLAS thread before
    # any numpy import, and a thread count set in the environment is left
    # as it is
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    script = (
        "import os, sys\n"
        "from dqkd.cli import main\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), file=sys.stderr)\n"
        "assert main(['keyrate', '--xi', '0.9', '--e', '0.01']) == 0\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'],\n"
        "      file=sys.stderr)\n"
    )
    done = _child(script, env)
    assert done.stderr.split() == [preset or "unset"] + [preset or "1"] * 2


def test_simulate_with_flags(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main([
        "simulate", "--attack", "identity", "--n", "20000",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "quantity" in table and "aborted = false" in table
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"config", "stats", "report"}
    assert doc["stats"]["est_xi"] == 1.0
    assert doc["report"]["r_final"] == 1.0


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    args = ["simulate", "--attack", "symmetric", "--attack-e", "0.1",
            "--n", "50000", "--seed", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_simulate_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "attack": {"name": "symmetric", "e": 0.05},
        "n": 20000,
        "check_fraction": 0.4,
        "announce_fraction": 0.6,
        "backward_noise": 0.0,
        "seed": 1,
    }), encoding="utf-8")
    out = tmp_path / "run.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["n"] == 20000
    assert doc["config"]["check_fraction"] == 0.4
    # command-line flags override file values
    out2 = tmp_path / "run2.json"
    assert main(["simulate", "--config", str(config), "--n", "10000",
                 "--out", str(out2)]) == 0
    assert json.loads(out2.read_text(encoding="utf-8"))["config"]["n"] == 10000
    capsys.readouterr()


def test_simulate_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # wrong type for n: the message names the offending field
    bad.write_text(json.dumps({"attack": "identity", "n": "ten"}), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "config field 'n'" in capsys.readouterr().err
    # unknown key
    bad.write_text(json.dumps({"attack": "identity", "n": 100, "shots": 5}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "config field 'shots'" in capsys.readouterr().err
    # no attack anywhere
    bad.write_text(json.dumps({"n": 100}), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "attack" in capsys.readouterr().err
    # an attack that is neither a name nor a document
    bad.write_text(json.dumps({"attack": 5, "n": 100}), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: config field 'attack': expected name or object, got 5\n"
    )
    # a file that is not JSON, and JSON that is not an object
    bad.write_text("not json", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {bad}: Expecting value")
    bad.write_text(json.dumps([1, 2]), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: config file {bad}: top level must be an object\n"
    # no n anywhere
    assert main(["simulate", "--attack", "identity"]) == 1
    assert capsys.readouterr().err == "error: config field 'n': missing (no --n either)\n"
    # a name that is not a string is unknown, even one a dict cannot hold as a key
    for name in (["identity"], {}):
        bad.write_text(json.dumps({"attack": {"name": name}, "n": 100}), encoding="utf-8")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: unknown attack name")
    # symmetric as a bare name lacks its disturbance
    bad.write_text(json.dumps({"attack": "symmetric", "n": 100}), encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()
    # a disturbance given to an attack that takes none is an error, not dropped
    bad.write_text(json.dumps({"attack": {"name": "identity", "e": 0.3}, "n": 5000}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    args = ["simulate", "--attack", "identity", "--attack-e", "0.3", "--n", "5000", "--seed", "1"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")
    # --attack-e sets the disturbance of --attack only; a config's attack keeps its own
    bad.write_text(json.dumps({"attack": {"name": "symmetric", "e": 0.1}, "n": 5000}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--attack-e", "0.3", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: --attack-e needs --attack\n"
    # integer fields take integers only: no truncation, no bools
    # and real fields take numbers only: no bools, no strings
    for field, value in (
        ("n", 5000.9), ("seed", 2.7), ("n", True), ("seed", False),
        ("abort_slack_z", True), ("backward_noise", False), ("check_fraction", "0.5"),
        ("backward_noise", 10**400),  # too large for a float
    ):
        doc = {"attack": "identity", "n": 5000, field: value}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert f"config field '{field}'" in capsys.readouterr().err
    # a malformed attack document is an input error naming its key, not a
    # traceback; its numbers follow the real fields' rule: no bools, no strings
    attack = {"c00": 1.0, "c01": 0.0, "c11": 1.0, "c10": 0}
    for doc, key in (
        ({**attack, "c00": 10**400}, "c00"),  # too large for a float
        ({**attack, "overlaps": [{"name": "s", "im": 0.0}]}, "re"),
        ({**attack, "overlaps": [3]}, "overlaps"),
        ({**attack, "c00": "1.0"}, "c00"),
        ({**attack, "c01": False}, "c01"),
        ({**attack, "c11": True}, "c11"),
        ({**attack, "overlaps": [{"name": "s", "re": True, "im": 0.0}]}, "re"),
        ({**attack, "overlaps": [{"name": "p", "re": 1.0, "im": "0"}]}, "im"),
        ({"name": "symmetric", "e": False}, "e"),
        ({"name": "symmetric", "e": "0.1"}, "e"),
        ({"name": "symmetric", "e": 0.1, "c00": 1}, "c00"),
        ({**attack, "extra": 5}, "extra"),
        ({**attack, "overlaps": [{"name": "s", "re": 0.0, "im": 0.0, "imag": 1.0}]}, "imag"),
        ({**attack, "overlaps": [{"name": "p", "re": 0.2, "im": 0.0},
                                 {"name": "p", "re": 0.9, "im": 0.0}]}, "p"),
    ):
        bad.write_text(json.dumps({"attack": doc, "n": 5000}), encoding="utf-8")
        assert main(["simulate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err
    # an integer is a number
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"attack": attack, "n": 5000}), encoding="utf-8")
    assert main(["simulate", "--config", str(good)]) == 0


def test_simulate_config_rejects_nan_overlap(tmp_path, capsys):
    from dqkd.attack import named_attack

    doc = named_attack("symmetric", e=0.1).to_dict()
    doc["overlaps"][0]["re"] = float("nan")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"attack": doc, "n": 20000}), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "|s| = nan exceeds 1" in err


def test_simulate_config_rejects_an_overflowing_overlap(tmp_path, capsys):
    # abs() of this overlap overflows a float; its modulus is inf, not a crash
    doc = {"c00": 1.0, "c01": 0.0, "c11": 1.0, "c10": 0.0,
           "overlaps": [{"name": "s", "re": 1.5e308, "im": 1.5e308}]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"attack": doc, "n": 20000}), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: |s| = inf exceeds 1\n"


def test_simulate_rejects_nan_abort_slack(capsys):
    args = ["simulate", "--attack", "symmetric", "--attack-e", "0.3", "--n", "100000"]
    assert main(args + ["--abort-slack-z", "nan"]) == 1
    assert "abort_slack_z" in capsys.readouterr().err


def test_integral_float_config_fields_are_accepted(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"attack": "identity", "n": 1e4, "seed": 2.0, "abort_slack_z": 3}),
        encoding="utf-8",
    )
    out = tmp_path / "run.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))["config"]
    assert (doc["n"], doc["seed"], doc["abort_slack_z"]) == (10000, 2, 3.0)
    capsys.readouterr()


def test_simulate_accepts_full_attack_document(tmp_path, capsys):
    from dqkd.attack import named_attack

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "attack": named_attack("symmetric", e=0.1).to_dict(),
        "n": 20000,
    }), encoding="utf-8")
    out = tmp_path / "run.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert abs(doc["stats"]["est_xi"] - 0.8) < 0.05
    capsys.readouterr()


def test_verify_command(capsys, monkeypatch):
    assert main(["verify", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "all checks passed" in out
    # one failing check: its line says FAIL, the summary counts it, exit 1
    deviations = verify._deviations

    def nan_diagonal(seeds):
        return {**deviations(seeds), "diagonal-fidelity-identity": np.full(len(seeds), math.nan)}

    monkeypatch.setattr(verify, "_deviations", nan_diagonal)
    assert main(["verify", "--trials", "4"]) == 1
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "\n[FAIL] diagonal-fidelity-identity: max deviation nan " in out
    assert out.endswith("\nFAILED: 1 of 5 checks\n")
    assert "all checks passed" not in out


def test_verify_prints_each_tolerance_in_full(capsys, monkeypatch):
    # a derived tolerance keeps every digit: 2.02e-10 must not read 2e-10
    name, _, deviation = verify.CHECKS[0]
    monkeypatch.setattr(verify, "CHECKS", ((name, 2.02e-10, deviation), *verify.CHECKS[1:]))
    assert main(["verify", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"[PASS] {name}: max deviation ")
    assert lines[0].endswith(" (tolerance 2.02e-10) over 2 trials")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
