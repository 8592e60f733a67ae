"""Self-test of the benchmark at a tiny program scale.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``
(about three minutes on two cores).  Each workload runs untraced and
traced; every metric ``BENCHMARK.json`` names must be reported and
every output check must pass.  A copy of the benchmark with one golden
digest altered must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import benchgrid  # noqa: E402
from update_goldens import SELFTEST_SCALE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_benchmark(dest: Path) -> None:
    """``BENCHMARK.json`` and the benchmark's own files, as a bare checkout has them."""
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace),
               "--scale", str(SELFTEST_SCALE)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        assert result["metrics"]["obs.count_mismatches"]["value"] == 0


def test_altered_golden_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = tmp_path / "perfbench" / "golden.json"
    digests = json.loads(golden.read_text())
    key = f"181.mcf|no_l15|{SELFTEST_SCALE}"
    digests[key] = "0" * 64
    golden.write_text(json.dumps(digests))
    proc = run_bench(tmp_path, "compact_rows", 0)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_missing_program_sources_fail(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench(tmp_path, "compact_rows", 0)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("scale", [SELFTEST_SCALE] + sorted(
    {w.scale for w in benchgrid.WORKLOADS.values()}))
def test_seed_zero_programs_are_the_suites(scale):
    from repro.workloads.suite import build_source

    programs = sorted({p for w in benchgrid.WORKLOADS.values() for p in w.programs})
    for program in programs:
        assert benchgrid.program_source(program, scale, 0) == build_source(program, scale)
