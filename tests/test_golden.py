"""The README's command-line examples, rerun and diffed against pinned bytes.

tests/golden/ holds the stdout and --out files of every command in the
README's "Command line" section, and the README's simulation config as
run_config.json. A change that alters any of these bytes rewrites the
files and names each one, and why it changed, in CHANGES.md. To rewrite
them from the current sources:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from dqkd.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name of the stdout file -> (argv, files the command writes)
CASES = {
    "keyrate": (["keyrate", "--xi", "0.9", "--e", "0.05"], ()),
    "keyrate_json": (["keyrate", "--xi", "0.9", "--e", "0.05", "--json"], ()),
    "sweep_e": (
        ["sweep", "--var", "e", "--start", "0", "--stop", "0.12", "--steps", "61",
         "--symmetric", "--out", "rates.csv"],
        ("rates.csv",),
    ),
    "sweep_xi": (
        ["sweep", "--var", "xi", "--start", "0.5", "--stop", "1.0", "--steps", "51",
         "--e", "0.03", "--out", "margin.csv"],
        ("margin.csv",),
    ),
    "sweep_noise": (
        ["sweep", "--var", "backward_noise", "--xi", "0.9", "--start", "0", "--stop", "0.1",
         "--steps", "11", "--out", "noise.csv"],
        ("noise.csv",),
    ),
    "optimize_undisturbed": (["optimize", "--f01", "1.0", "--fpm", "0.75"], ()),
    "optimize_balanced": (
        ["optimize", "--f01", "0.9", "--fpm", "0.9", "--out", "best_attack.json"],
        ("best_attack.json",),
    ),
    "simulate_identity": (
        ["simulate", "--attack", "identity", "--n", "1000000", "--backward-noise", "0.05"],
        (),
    ),
    "simulate_symmetric": (
        ["simulate", "--attack", "symmetric", "--attack-e", "0.1", "--n", "500000",
         "--seed", "3", "--out", "run.json"],
        ("run.json",),
    ),
    "simulate_config": (["simulate", "--config", "run_config.json"], ()),
    "verify": (["verify", "--trials", "200"], ()),
}


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command, run in the current directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_readme_command_output_is_pinned(name, tmp_path, monkeypatch):
    argv, written = CASES[name]
    shutil.copy(GOLDEN / "run_config.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    code, stdout = _run(argv)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    for path in written:
        assert (tmp_path / path).read_bytes() == (GOLDEN / path).read_bytes(), path


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, (argv, _) in CASES.items():
        code, stdout = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
