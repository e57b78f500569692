"""Self-tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``. The
end-to-end test runs every workload for one second in both modes and takes
a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruler
import run
import spans

run.import_dqkd()
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _reading(scale: dict[str, float]) -> dict[str, float]:
    return {k: scale.get(k, 1.0) * ruler.R_REF_S[k] for k in ruler.COMPONENTS}


def test_metric_tables_match_benchmark_json():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)


def test_speed_weighs_components_against_the_reference():
    assert ruler.speed(_reading({}), {"py": 0.5, "la": 0.5}) == pytest.approx(1.0)
    assert ruler.speed(_reading({"py": 2.0}), {"py": 0.5, "la": 0.5}) == pytest.approx(1.5)
    assert ruler.speed(_reading({"np": 3.0}), {"py": 0.2, "np": 0.8}) == pytest.approx(2.6)


def test_ruler_reads_only_the_weighted_components():
    assert set(ruler.Ruler({"py": 0.4, "la": 0.6, "np": 0.0}).read()) == {"py", "la"}
    assert set(ruler.Ruler(dict.fromkeys(ruler.COMPONENTS, 1.0)).read()) == set(ruler.COMPONENTS)


def test_factors_take_the_median_of_the_readings_around_each_interval():
    readings = [_reading({"py": s}) for s in (1.0, 2.0, 1.0, 1.0, 4.0, 4.0, 4.0, 1.0)]
    got = ruler.factors(readings, {"py": 1.0})
    # interval i uses readings i-2 .. i+3, clipped at the ends
    assert got == pytest.approx([1.0, 1.0, 1.5, 3.0, 2.5, 4.0, 4.0])
    # two readings: their mean
    pair = [_reading({"la": 1.0}), _reading({"la": 3.0})]
    assert ruler.factors(pair, {"la": 1.0}) == pytest.approx([2.0])


def test_timed_loop_divides_raw_time_by_the_factor():
    slow = _reading({"py": 2.0, "la": 2.0, "np": 2.0})
    res = run.timed_loop(lambda x: x, lambda i, o: None, [1, 2, 3], lambda: slow, {"py": 1.0})
    assert len(res.readings) == 4
    for raw, norm in zip(res.raw_s, res.norm_s):
        assert norm == pytest.approx(raw / 2.0)


def test_injected_failing_op_is_counted_as_failed():
    def op(x):
        if x == 2:
            raise RuntimeError("injected")
        return x

    def check(x, out):
        return "wrong output" if x == 4 else None

    res = run.timed_loop(op, check, list(range(6)), lambda: _reading({}), {"py": 1.0})
    assert [i for i, _ in res.failures] == [2, 4]
    assert "injected" in res.failures[0][1]
    assert len(res.norm_s) == 6


def test_replayed_layer_errors_are_timed_and_kept():
    def layer(x):
        if x == 1:
            raise ValueError("rejected")

    probe = run.Probe(ruler.Ruler({"py": 1.0}), {"py": 1.0}, spans.Tracer(), [])
    assert probe.per_call_us("layer", layer, [0, 1, 2]) > 0
    assert probe.errors == [("layer", 1, "ValueError: rejected")]


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([float(v) for v in range(11)]) == (0.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_summary_takes_each_figure_per_pass_and_the_median_over_passes():
    base = [float(v) for v in range(1, 22)]  # one pass of 21 ops, 1 .. 21 s
    noisy = [10.0 * v for v in base]  # a pass hit by host noise throughout
    got = run.summarize([base, [2.0 * v for v in base], noisy])
    assert got["wall_s"] == pytest.approx(2.0 * sum(base))
    assert got["op_p50_ms"] == pytest.approx(2e3 * 11.0)
    assert got["op_tail_ms"] == pytest.approx(2e3 * 11.0)  # 10 beyond the 11th
    assert got["tail_pct"] == pytest.approx(100 * 11 / 21)
    single = run.summarize([base])
    assert (single["wall_s"], single["op_p50_ms"]) == (sum(base), 11e3)


def test_bernstein_bound_accepts_the_mean_and_rejects_far_counts():
    assert workloads._bernstein_ok(5000, 10000, 0.5)
    assert not workloads._bernstein_ok(5400, 10000, 0.5)
    assert workloads._bernstein_ok(0, 50, 0.001)
    # with p = 0 the bound is 2L/3 ~ 13 counts
    assert workloads._bernstein_ok(13, 50, 0.0)
    assert not workloads._bernstein_ok(14, 50, 0.0)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 11
    doc = _benchmark_json()
    expected = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
