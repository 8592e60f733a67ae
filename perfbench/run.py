"""Benchmark of the simulator's host time, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload large_code_rows [--seed 0] [--seconds 20] [--trace 0]

Workloads: ``large_code_rows``, ``compact_rows``, ``pooled_sweep`` (see
``benchgrid.py`` and README.md).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Diagnostics go to standard error.  The exit code is 0
only when every cell's output checked out.

Every pass runs in a fresh interpreter (``child.py``) with the
``REPRO_*`` environment variables removed and its own empty disk-cache
directory under ``.perfbench/``, which is deleted afterwards.  A pass
is one cold run of the workload's fixed grid of cells, sized to take
about ``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` is accepted
for the common command line and does not change the work.  With
``--trace 0`` a run makes one pass and times set-up ``SETUP_SAMPLES``
times.  With ``--trace 1`` it makes one untraced pass and one traced
pass, and reports the traced pass's split.  Times are in reference
seconds: host time rescaled by the pass's own host-speed probes (see
``hostprobe.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchgrid

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"

#: A run never outlives this many seconds of wall time.
RUN_LIMIT_S = 170.0
#: Set-up is timed in this many fresh interpreters per untraced run.
SETUP_SAMPLES = 3

class ChildFailed(RuntimeError):
    pass


def child_env(traced: bool) -> dict:
    """The environment of a pass: no stray ``REPRO_*`` knob changes the
    program under test, and string hashing is fixed across passes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if traced:
        env["REPRO_PROF"] = "1"
    return env


def run_child(args, rundir: Path, deadline: float, index: int, traced=False, setup_only=False):
    """Run ``child.py`` once; returns its report with ``setup_s`` added."""
    workdir = rundir / f"pass-{index}"
    report_path = rundir / f"report-{index}.json"
    command = [sys.executable, str(BENCH_DIR / "child.py"), args.workload,
               "--seed", str(args.seed), "--scale", repr(args.scale),
               "--workdir", str(workdir), "--report", str(report_path)]
    if traced:
        command += ["--traced", str(trace_path(args))]
    command += ["--setup-only"] * setup_only
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(traced), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    # the pass and any pool workers it forked share one process group
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    killer.start()
    setup_s = None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "setup-done":
                setup_s = time.perf_counter() - started
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        killer.cancel()
        _kill_group(proc.pid)
        proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise ChildFailed(f"{' '.join(command[1:3])} exited with code {proc.returncode}")
    report = json.loads(report_path.read_text())
    setup = report["setup"]
    report["raw_setup_s"] = setup_s
    report["setup_s"] = (setup_s - setup["probe_ns"] / 1e9) * setup["speed"]
    return report


def trace_path(args) -> Path:
    return WORK / "traces" / f"{args.workload}-seed{args.seed}.json"


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def steal_ratio(reports) -> float:
    """Stolen share of the machine's busy CPU time over the timed parts."""
    stolen = busy = 0
    for report in reports:
        before, after = report["stat_before"], report["stat_after"]
        if len(before) < 8 or len(after) < 8:
            continue
        delta = [a - b for a, b in zip(after, before)]
        # user nice system idle iowait irq softirq steal
        stolen += delta[7]
        busy += delta[0] + delta[1] + delta[2] + delta[5] + delta[6] + delta[7]
    return stolen / busy if busy else 0.0


def count_mismatches(args, code_stamp: str, untraced: dict, traced: dict) -> list:
    """Deterministic counts that did not repeat: between the untraced and
    the traced pass, and against the previous traced run of this seed on
    the same simulator code (``code_stamp``)."""
    problems = [f"{name}: untraced {untraced[name]} != traced {traced[name]}"
                for name in sorted(untraced) if name in traced and untraced[name] != traced[name]]
    record = (WORK / "counts"
              / f"{args.workload}-seed{args.seed}-scale{args.scale}-{code_stamp}.json")
    if record.exists():
        previous = json.loads(record.read_text())
        problems += [f"{name}: previous traced run {previous[name]} != {traced[name]}"
                     for name in sorted(traced)
                     if name in previous and previous[name] != traced[name]]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(traced, sort_keys=True))
    return problems


def measure(args, rundir: Path, deadline: float):
    """Untraced: one cold pass, then set-up alone until it has
    ``SETUP_SAMPLES`` samples, of which the median is reported."""
    report = run_child(args, rundir, deadline, 0)
    setups = [report["setup_s"]]
    setups += [run_child(args, rundir, deadline, index, setup_only=True)["setup_s"]
               for index in range(1, SETUP_SAMPLES)]
    metrics = {
        "wall_s": report["wall_s"],
        "cpu_s": report["cpu_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "sim_kips": report["guest_instructions"] / report["wall_s"] / 1e3,
        "first_cell_s": report["first_cell_s"],
        # pool workers time no single cell: the pooled sweep reports its
        # mean time per cell
        "warm_cell_p50_ms": (statistics.median(report["warm_ms"]) if "warm_ms" in report
                             else report["wall_s"] * 1e3 / report["cells"]),
    }
    diag = {"setup_samples": setups, "warm_samples": len(report.get("warm_ms", [])),
            "raw": {key: report[f"raw_{key}"] for key in ("wall_s", "cpu_s", "setup_s")},
            "workers_peak_rss_mb": report["workers_peak_rss_mb"],
            "probes": report["probes"], "host.steal_ratio": steal_ratio([report])}
    return [report], metrics, diag


def measure_traced(args, rundir: Path, deadline: float):
    """Traced: one untraced pass (the overhead base), then one traced pass."""
    plain = run_child(args, rundir, deadline, 0)
    traced = run_child(args, rundir, deadline, 1, traced=True)
    mismatches = count_mismatches(args, traced["code_stamp"], plain["counts"], traced["counts"])
    metrics = dict(traced["layers"])
    metrics["obs.trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["obs.count_mismatches"] = len(mismatches)
    metrics["host.steal_ratio"] = steal_ratio([plain, traced])
    diag = {"counts": traced["counts"], "count_mismatches": mismatches,
            "trace": str(trace_path(args))}
    return [plain, traced], metrics, diag


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchgrid.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = the suite's programs (golden digests apply); "
                             "other seeds regenerate each program's function farm")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the common command line; a pass is a fixed grid")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's program scale (self-test)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = benchgrid.WORKLOADS[args.workload].scale
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    # a terminated run still stops its passes (see run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    rundir.mkdir()
    try:
        if args.trace:
            passes, metrics, diag = measure_traced(args, rundir, deadline)
        else:
            passes, metrics, diag = measure(args, rundir, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    # metric names and units as BENCHMARK.json declares them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    diag.update({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                 "nproc": passes[0]["nproc"], "loadavg": passes[0]["loadavg"],
                 "failures": failures[:20]})
    print("perfbench: " + json.dumps(diag), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["cells"] for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
