"""The performance gate's verdict (``benchmarks/perf_gate.py``), on
synthetic perfbench result lines."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_gate.py"
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

SPEC = {
    "workloads": [{"name": "rows"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "sim_kips", "unit": "kinst/s", "better": "higher", "bound": 0.25},
    ],
}


def run(wall_s=10.0, sim_kips=100.0, failed=0, attempted=32):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "sim_kips": {"value": sim_kips, "unit": "kinst/s"}}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def verdict(base_runs, change_runs):
    return perf_gate.judge(SPEC, {"rows": base_runs}, {"rows": change_runs})


def test_equal_runs_pass_with_one_row_per_metric():
    rows, failures = verdict([run()] * 3, [run()] * 3)
    assert failures == []
    assert len(rows) == 2 and all(row.endswith("ok") for row in rows)


def test_lower_is_better_metric_worse_than_its_bound_fails():
    rows, failures = verdict([run(wall_s=10.0)] * 3, [run(wall_s=12.6)] * 3)
    assert len(failures) == 1 and failures[0].startswith("rows wall_s:")
    assert "REGRESSION" in rows[0]


def test_higher_is_better_metric_falling_beyond_its_bound_fails():
    _, failures = verdict([run(sim_kips=100.0)] * 3, [run(sim_kips=74.0)] * 3)
    assert len(failures) == 1 and failures[0].startswith("rows sim_kips:")
    # a rise in a higher-is-better metric is never a regression
    _, failures = verdict([run(sim_kips=100.0)] * 3, [run(sim_kips=200.0)] * 3)
    assert failures == []


def test_change_within_the_bound_passes_and_medians_ignore_one_outlier():
    base = [run(wall_s=10.0), run(wall_s=10.2), run(wall_s=9.8)]
    change = [run(wall_s=12.4), run(wall_s=11.0), run(wall_s=30.0)]
    rows, failures = verdict(base, change)
    assert failures == []
    assert "base     10.000  change     12.400" in rows[0]


def test_larger_failed_share_fails():
    change = [run(), run(), {**run(failed=1), "correct": True}]
    _, failures = verdict([run()] * 3, change)
    assert failures == ["rows: failed share 0.010 > base 0.000"]


def test_incorrect_run_on_either_side_fails():
    _, failures = verdict([run(failed=2)] + [run()] * 2, [run(failed=2)] + [run()] * 2)
    assert "rows: a base run is not correct (2 cells failed)" in failures
    assert "rows: a change run is not correct (2 cells failed)" in failures


@pytest.mark.parametrize("side", ["base", "change"])
def test_metric_missing_from_one_side_fails_loudly(side):
    lacking = run()
    del lacking["metrics"]["sim_kips"]
    runs = {"base": [run()] * 3, "change": [run()] * 3}
    runs[side] = [run(), lacking, run()]
    rows, failures = verdict(runs["base"], runs["change"])
    assert failures == [f"rows sim_kips: missing from {side} runs"]
    assert len(rows) == 1  # wall_s is still judged


def test_workload_without_runs_fails():
    _, failures = verdict([run()] * 3, [])
    assert failures == ["rows: no change runs"]


def test_crashed_run_reads_as_incorrect(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys; sys.exit(2)\n")
    crashed = perf_gate.run_perfbench(tmp_path, "rows")
    assert crashed["correct"] is False and crashed["metrics"] == {}
    _, failures = verdict([run()] * 3, [run(), crashed, run()])
    assert "rows: a change run is not correct (exit code 2, no result line)" in failures
