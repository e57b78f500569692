"""Callers of the public API outside the tests: the demos, the benchmark and star imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would parametrize no test below and pass silently
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_benchmark_workloads_import():
    # the benchmark imports public names from dqkd; renaming or deleting one
    # must fail here rather than only when the benchmark runs
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run(
        [sys.executable, "-c", "import workloads"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_package_all_resolves():
    # a stale entry in __all__ breaks `from dqkd import *` and nothing else
    import dqkd

    assert len(dqkd.__all__) == len(set(dqkd.__all__))
    for name in dqkd.__all__:
        assert hasattr(dqkd, name), name
