"""One measured pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and every ``REPRO_*`` variable removed (``REPRO_PROF=1``
is set for the traced pass only).  The script

1. imports the simulator and assembles every program the workload uses,
   then prints ``setup-done`` so the parent can time set-up;
2. runs the workload's grid of cells once, timing it (the *timed part*);
3. checks every cell's output and writes a JSON report.

A ``hostprobe.HostProbe`` samples the host's speed from set-up to the
end of the timed part.  Every time in the report is in reference
seconds (see ``hostprobe.py``); the raw host times are kept beside them
as ``raw_*`` for diagnostics.

Usage: ``child.py WORKLOAD --seed N --scale S --workdir DIR --report FILE
[--traced TRACE_FILE] [--setup-only]``; ``--workdir`` must be a new
directory (the pooled sweep's disk cache starts empty there).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

import benchgrid
import hostprobe
import layers
from repro.dbt.transcache import TranslationCache
from repro.guest.blockjit import unpack_space
from repro.guest.interpreter import GuestInterpreter
from repro.harness import runner
from repro.harness.diskcache import code_version_stamp
from repro.harness.figures import ALL_FIGURES
from repro.morph.config import PRESETS
from repro.obs import prof
from repro.vm.timing import TimingVM


def digest(result) -> str:
    """sha256 over every field of a ``TimingRunResult`` (stats, metrics too)."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cell_key(program: str, config: str, scale: float) -> str:
    return f"{program}|{config}|{scale}"


def proc_stat_cpu() -> list:
    """Aggregate CPU jiffies from ``/proc/stat`` (empty where unavailable)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return []


def rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Spans:
    """Host-time spans kept in memory, written once as a trace at the end."""

    def __init__(self) -> None:
        self.spans = []

    def record(self, name: str, cat: str, start_ns: int, end_ns: int, **args) -> None:
        self.spans.append({"name": name, "cat": cat, "start_ns": start_ns,
                           "end_ns": end_ns, "args": args})

    def seconds(self, cat: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["cat"] == cat) / 1e9


def sum_counters(dicts) -> dict:
    total = {}
    for counters in dicts:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    return total


# -- row workloads -----------------------------------------------------------


def run_rows(workload, programs, spans, profiler):
    """Every figure config over each program, one shared cache per program
    (as one ``run_many`` group shares it).  Returns the cells and each
    program's ``TranslationCache.stats()``."""
    cells, caches = [], []
    for program in workload.programs:
        cache = TranslationCache()
        for config in benchgrid.FIGURE_CONFIGS:
            cell = {"program": program, "config": config}
            misses = cache.misses
            before = profiler.snapshot() if profiler.enabled else None
            started = time.perf_counter_ns()
            try:
                with profiler.phase("cell"):
                    vm = TimingVM(programs[program], PRESETS[config], translation_cache=cache,
                                  program_key=(program, workload.scale))
                    cell["result"] = vm.run()
                cell["jit"] = vm.jit_metrics.as_dict()
            except Exception as exc:  # a failed cell is counted; the run goes on
                cell["error"] = repr(exc)
            ended = time.perf_counter_ns()
            cell["window"] = (started, ended)
            cell["translated"] = cache.misses - misses
            args = {"translated": cell["translated"]}
            if before is not None:
                split = layers.layer_self_ns(layers.profile_delta(profiler.snapshot(), before))
                args.update({f"{layer}_ms": ns / 1e6 for layer, ns in sorted(split.items())})
            spans.record(f"{program} {config}", "cell", started, ended, **args)
            cells.append(cell)
        caches.append(cache.stats())
    return cells, caches


def rows_report(cells, caches, scale, check, probe) -> dict:
    for cell in cells:
        key = cell_key(cell["program"], cell["config"], scale)
        if "error" in cell:
            check.fail(key, f"raised {cell['error']}")
        else:
            check.result(key, cell["program"], cell["result"])
    jit = sum_counters(c["jit"] for c in cells if "jit" in c)
    return {
        "cells": len(cells),
        "guest_instructions": sum(c["result"].guest_instructions for c in cells
                                  if "result" in c),
        "first_cell_s": sum(probe.ref_seconds(*c["window"]) for c in cells
                            if c["config"] == benchgrid.FIGURE_CONFIGS[0]),
        "warm_ms": [probe.ref_seconds(*c["window"]) * 1e3 for c in cells
                    if c["translated"] == 0],
        "jit": jit,
        "counts": {
            "dbt.translations": sum(c["misses"] for c in caches),
            "jit.compiles": jit.get("compiles", 0) + jit.get("ineligible", 0),
            "trace.compiles": jit.get("trace.compiles", 0) + jit.get("trace.ineligible", 0),
            "harness.disk_stores": 0,
        },
    }


def rows_layers(report, profile, spans, caches, to_ref) -> dict:
    busy = spans.seconds("cell") * to_ref
    jit = report["jit"]
    hits = sum(c["hits"] for c in caches)
    distinct = sum(c["jit_blocks"] for c in caches)
    out = layers.layer_metrics(profile, report["raw_wall_s"], to_ref)
    out.update(report["counts"])
    out.update({
        "dbt.transcache_hit_ratio": hits / (hits + report["counts"]["dbt.translations"]),
        "jit.chains_linked": jit.get("chains_linked", 0),
        "trace.installs": jit.get("trace.installs", 0),
        "harness.parallel_eff": busy / report["wall_s"],
        "harness.worker_busy_max_s": busy,
        "harness.worker_busy_min_s": busy,
        "harness.compile_dup_ratio": report["counts"]["jit.compiles"] / distinct if distinct else 0,
        "harness.pack_adopted_blocks": 0,
        "harness.render_s": 0.0,
    })
    return out


# -- pooled sweep ------------------------------------------------------------


def call_figure(fn, workload, jobs):
    kwargs = {"scale": workload.scale, "jobs": jobs}
    if "workloads" in inspect.signature(fn).parameters:
        kwargs["workloads"] = list(workload.programs)
    return fn(**kwargs)


def run_pooled(workload, spans, jobs, check, profiler, profiles):
    """Every figure of the paper: materialize its cells, then render it.

    Pool workers fork from this process and inherit its profiler's
    totals, so those are moved to ``profiles`` before each ``run_many``
    (which may fork) to keep them from being counted twice."""
    figure_cells = benchgrid.pooled_figure_cells(workload.programs, workload.scale)
    results, renders = {}, {}
    for name, fn in ALL_FIGURES.items():
        if profiler.enabled:
            profiles.append(profiler.snapshot())
            profiler.clear()
        started = time.perf_counter_ns()
        try:
            results.update(runner.run_many(figure_cells[name], jobs=jobs))
        except Exception as exc:  # its cells will lack results and be counted
            check.fail(f"materialize|{name}", f"raised {exc!r}")
        rendered = time.perf_counter_ns()
        spans.record(name, "materialize", started, rendered, cells=len(figure_cells[name]))
        misses = runner.cache_stats().get("run_cache.misses", 0)
        try:
            renders[name] = call_figure(fn, workload, jobs).render()
        except Exception as exc:
            check.fail(f"render|{name}", f"raised {exc!r}")
        spans.record(name, "render", rendered, time.perf_counter_ns())
        if runner.cache_stats().get("run_cache.misses", 0) != misses:
            check.fail(f"render|{name}", "rendering simulated cells that were not "
                       "materialized first (perfbench/benchgrid.py is out of date)")
    return results, renders


def pooled_report(workload, results, renders, spans, started_ns, check, probe) -> dict:
    figure_cells = benchgrid.pooled_figure_cells(workload.programs, workload.scale)
    all_cells = sorted({cell for cells in figure_cells.values() for cell in cells})
    for program, config, scale in all_cells:
        key = cell_key(program, config, scale)
        if (program, config, scale) in results:
            check.result(key, program, results[(program, config, scale)])
        else:
            check.fail(key, "no result")
    for name, text in renders.items():
        check.text(f"render|{name}|{workload.scale}", text)
    # the first figure with every program in it: until it renders, a user
    # of the sweep has no complete table, and it holds each program's
    # first, cold cell
    first_full = next(name for name, cells in figure_cells.items()
                      if {cell[0] for cell in cells} == set(workload.programs))
    rendered = next(s["end_ns"] for s in spans.spans
                    if s["cat"] == "render" and s["name"] == first_full)
    disk = runner.disk_cache()
    return {
        "cells": len(all_cells),
        "guest_instructions": sum(r.guest_instructions for r in results.values()),
        "first_cell_s": probe.ref_seconds(started_ns, rendered),
        # Translations depend on which worker runs each group (workers do
        # not share them); compiles and interpreted blocks depend on when
        # a worker adopts a sibling's JIT pack.  Only the disk stores are
        # free of scheduling, so only they must repeat from run to run.
        "counts": {"harness.disk_stores": disk.stores},
    }


def pooled_layers(workload, report, profile, spans, telemetry, pool_pids, jobs, to_ref) -> dict:
    workers = telemetry["workers"]
    merged = prof.merge_profiles([profile] + [w["profile"] for w in workers.values()])
    # a worker is busy inside its root phases (run, jit.pack, cache.io)
    busy = {int(pid): sum(e["ns"] for path, e in w["profile"]["paths"].items()
                          if ";" not in path) / 1e9 * to_ref
            for pid, w in workers.items()}
    final_pool = [busy.get(pid, 0.0) for pid in pool_pids] or [0.0]
    hits = sum(w["translations"]["hits"] for w in workers.values())
    translations = sum(w["translations"]["misses"] for w in workers.values())
    disk = runner.disk_cache()
    distinct = 0
    for program in workload.programs:
        blob = disk.load_blob(f"jitpack_{program}_{workload.scale}".replace("/", "_"))
        distinct += len(unpack_space(blob)) if blob is not None else 0
    totals = prof.phase_totals(merged)
    compiles = totals.get("jit.compile", {}).get("calls", 0)
    out = layers.layer_metrics(merged, report["raw_wall_s"] * jobs, to_ref)
    out.update({
        "dbt.translations": translations,
        "jit.compiles": compiles,
        "trace.compiles": totals.get("jit.trace.compile", {}).get("calls", 0),
        "dbt.transcache_hit_ratio": hits / (hits + translations) if translations else 0.0,
        # chaining and trace installs are counted per VM, which pool
        # workers do not ship back
        "jit.chains_linked": 0,
        "trace.installs": 0,
        "harness.parallel_eff": sum(busy.values()) / (jobs * report["wall_s"]),
        "harness.worker_busy_max_s": max(final_pool),
        "harness.worker_busy_min_s": min(final_pool),
        "harness.compile_dup_ratio": compiles / distinct if distinct else 0.0,
        "harness.pack_adopted_blocks": sum(
            w["metrics"]["counters"].get("jitpack.blocks_adopted", 0) for w in workers.values()),
        "harness.render_s": spans.seconds("render") * to_ref,
        "harness.disk_stores": report["counts"]["harness.disk_stores"],
    })
    return out


# -- output checks -----------------------------------------------------------


class Check:
    """Output checks; failures are keyed so each cell counts once."""

    def __init__(self, goldens: dict, use_goldens: bool) -> None:
        self.reference = {}  # program -> (exit code, guest instructions)
        self.goldens = goldens
        self.use_goldens = use_goldens
        self.digests = {}
        self.failures = {}

    def fail(self, key: str, why: str) -> None:
        self.failures.setdefault(key, f"{key}: {why}")

    def result(self, key: str, program: str, result) -> None:
        """Exit code and instruction count against the reference
        interpreter; at seed 0 the full digest against ``golden.json``."""
        self.digests[key] = digest(result)
        exit_code, instructions = self.reference[program]
        if (result.exit_code, result.guest_instructions) != (exit_code, instructions):
            self.fail(key, f"exit {result.exit_code} after {result.guest_instructions} guest "
                           f"instructions; reference interpreter: exit {exit_code} after "
                           f"{instructions}")
        elif self.use_goldens and self.goldens.get(key) != self.digests[key]:
            self.fail(key, "TimingRunResult digest differs from golden.json")

    def text(self, key: str, text: str) -> None:
        self.digests[key] = hashlib.sha256(text.encode()).hexdigest()
        if self.use_goldens and self.goldens.get(key) != self.digests[key]:
            self.fail(key, "rendered figure differs from golden.json")


def reference_runs(programs) -> dict:
    """(exit code, guest instructions) of each program on the plain interpreter."""
    out = {}
    for name, program in programs.items():
        interp = GuestInterpreter.for_program(program)
        out[name] = (interp.run(), interp.stats["instructions"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(benchgrid.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--traced", type=Path, metavar="TRACE_FILE",
                        help="profile the pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = dataclasses.replace(benchgrid.WORKLOADS[args.workload], scale=args.scale)
    args.workdir.mkdir(parents=True)
    profiler = prof.active()
    spans = Spans()
    init_started = time.perf_counter_ns()
    probe = hostprobe.HostProbe()
    probe.start()

    # -- set-up: assemble every program the workload uses ---------------------
    setup_started = time.perf_counter_ns()
    programs = {}
    for name in workload.programs:
        started = time.perf_counter_ns()
        with profiler.phase("build"):
            programs[name] = benchgrid.build_program(name, workload.scale, args.seed)
        spans.record(name, "build", started, time.perf_counter_ns())
    jobs = min(2, os.cpu_count() or 1)
    if workload.pooled:
        runner.configure_disk_cache(True, args.workdir / "runcache")

        def build_seeded(name, scale=1.0):
            with prof.active().phase("build"):
                return benchgrid.build_program(name, scale, args.seed)

        # The harness assembles its programs itself, in pool workers that
        # fork from this process and so inherit this binding.
        runner.build_workload = build_seeded
    setup_ended = time.perf_counter_ns()
    # what the parent's set-up time must drop (the probe's own time) and
    # the speed to rescale the rest with
    setup = {"probe_ns": setup_started - init_started
             + probe.probing_ns(setup_started, setup_ended),
             "speed": probe.speed(setup_started, setup_ended)}
    print("setup-done", flush=True)
    if args.setup_only:
        probe.stop()
        args.report.write_text(json.dumps({"setup": setup}))
        return 0

    # -- the timed part --------------------------------------------------------
    goldens = json.loads(benchgrid.GOLDEN_PATH.read_text())
    check = Check(goldens, use_goldens=args.seed == 0)
    profiles = []  # profile totals moved out of the profiler (see run_pooled)
    stat_before = proc_stat_cpu()
    cpu_before = rusage_cpu(resource.RUSAGE_SELF) + rusage_cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter_ns()
    if workload.pooled:
        results, renders = run_pooled(workload, spans, jobs, check, profiler, profiles)
        pool_pids = [child.pid for child in multiprocessing.active_children()]
    else:
        cells, caches = run_rows(workload, programs, spans, profiler)
    ended = time.perf_counter_ns()
    probe.stop()
    stat_after = proc_stat_cpu()
    profile = prof.merge_profiles(profiles + [profiler.snapshot()]) if profiler.enabled else None
    if workload.pooled:
        telemetry = runner.worker_telemetry()
        runner._shutdown_pool()  # reap the workers so RUSAGE_CHILDREN counts them
        for child in multiprocessing.active_children():
            child.join(60)
    raw_cpu_s = rusage_cpu(resource.RUSAGE_SELF) + rusage_cpu(resource.RUSAGE_CHILDREN) - cpu_before
    # The pooled sweep's largest worker peaks at 100-135 MB depending on
    # which groups it happened to run, so only this process is measured.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    raw_wall_s = (ended - started) / 1e9
    wall_s = probe.ref_seconds(started, ended)
    cpu_s = (raw_cpu_s - probe.probing_ns(started, ended) / 1e9) * probe.speed(started, ended)

    # -- output checks and the report --------------------------------------------
    check.reference = reference_runs(programs)
    report = {"workload": workload.name, "seed": args.seed, "scale": workload.scale,
              "code_stamp": code_version_stamp(), "setup": setup,
              "wall_s": wall_s, "raw_wall_s": raw_wall_s, "cpu_s": cpu_s,
              "raw_cpu_s": raw_cpu_s, "peak_rss_mb": peak_kb / 1024.0,
              "workers_peak_rss_mb": workers_peak_kb / 1024.0,
              "probes": len(probe.times), "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
              "stat_before": stat_before, "stat_after": stat_after}
    if workload.pooled:
        report.update(pooled_report(workload, results, renders, spans, started, check, probe))
    else:
        report.update(rows_report(cells, caches, workload.scale, check, probe))
    if args.traced:
        to_ref = wall_s / raw_wall_s
        if workload.pooled:
            report["layers"] = pooled_layers(workload, report, profile, spans, telemetry,
                                             pool_pids, jobs, to_ref)
        else:
            report["layers"] = rows_layers(report, profile, spans, caches, to_ref)
            report["counts"]["interp.blocks"] = report["layers"]["interp.blocks"]
        layers.write_trace(args.traced, spans.spans, os.getpid(), workload.name)
    report.pop("jit", None)
    report["failures"] = [check.failures[key] for key in sorted(check.failures)]
    report["failed"] = len(report["failures"])
    report["digests"] = check.digests
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
