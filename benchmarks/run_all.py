#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: every table and figure, paper vs measured.

Runs the full experiment grid (by default at full workload scale) and
writes the results, with per-figure commentary comparing the measured
shapes against the paper's published ones.  Alongside the markdown it
writes ``BENCH_results.json`` — a machine-readable record of per-figure
status, cold/warm wall time, key metric values and the pool workers'
telemetry (cache activity, and each group's queue wait and wall time).

The run grid is a work-list executed through the harness's two-level
cache (in-process memo + persistent ``.runcache/`` disk cache) with
optional process-level parallelism; results are bit-identical at any
job count because every simulation is deterministic.

    python benchmarks/run_all.py [output_path] [json_path]
                                 [--jobs N] [--no-cache] [--scale S]
                                 [--profile]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.harness import (
    figure1_timeline,
    figure4_l15_cache,
    figure5_translators,
    figure6_l2_accesses,
    figure7_l2_miss_rate,
    figure8_optimization,
    figure9_reconfiguration,
    figure10_relative,
    table11_intrinsics,
)
from repro.harness.runner import (
    cache_stats,
    configure_disk_cache,
    disk_cache,
    run_one,
    worker_telemetry,
)
from repro.obs import prof

SCALE = 1.0

#: Default machine-readable results path (repo root, next to EXPERIMENTS.md).
RESULTS_JSON = "BENCH_results.json"

_PAPER_NOTES = {
    "Figure 1": (
        "Paper: conceptual timeline — speculative parallel translation overlaps "
        "translation with execution, finishing earlier by deltaT.  Measured: the "
        "4-slave configuration completes the same program substantially earlier "
        "than the sequential-style conservative translator."
    ),
    "Figure 4": (
        "Paper: vpr, gcc, crafty, perlbmk, gap, vortex and twolf have instruction "
        "working sets larger than the L1 code cache and benefit from the banked "
        "L1.5; compact benchmarks are insensitive.  Measured: same split — the "
        "large-code benchmarks improve with L1.5 capacity (vpr most strongly), "
        "gzip/mcf/parser/bzip2 are flat."
    ),
    "Figure 5": (
        "Paper: slowdowns span ~7x-110x; adding translation tiles accelerates "
        "execution; for vpr/gcc/crafty the parallel configurations lose to the "
        "conservative translator (manager congestion + no preemption); the "
        "9-translator point trades three L2 data banks and regresses memory-"
        "intensive apps.  Measured: slowdowns span ~7x-100x with the same "
        "ordering (gcc/vortex/crafty worst; gzip/mcf/parser/bzip2 near the "
        "floor); the conservative-beats-speculative anomaly reproduces at the "
        "single-slave point (our toy working sets saturate speculation by ~4 "
        "slaves, so wider configs recover); mcf regresses from 6 to 9 "
        "translators exactly as published."
    ),
    "Figure 6": (
        "Paper: L2 code-cache access rates span three decades, with gcc, crafty "
        "and vortex ~100x more likely to access the L2 per dynamic instruction.  "
        "Measured: same ordering (crafty/gcc/vortex top, bzip2/mcf bottom); the "
        "range is compressed to ~1 decade because toy-scale runs are ~10^6 "
        "cycles instead of ~10^10, which inflates every benchmark's cold-start "
        "component."
    ),
    "Figure 7": (
        "Paper: the L2 code-cache miss rate falls as speculative translators are "
        "added.  Measured: same trend on every large-code benchmark; the "
        "conservative translator misses on every first touch."
    ),
    "Figure 8": (
        "Paper: optimization wins on all benchmarks — its cost is off the "
        "critical path.  Measured: optimization wins everywhere, by 1.3x-1.9x."
    ),
    "Figure 9": (
        "Paper: the 4-bank static beats the 1-bank static on memory-demanding "
        "benchmarks and not others; morphing configurations reconfigure at "
        "runtime.  Measured: mcf prefers 4 banks by ~15%, gcc is indifferent; "
        "thresholds 15/5 reconfigure sparsely while the eager threshold 0 "
        "reconfigures an order of magnitude more."
    ),
    "Figure 10": (
        "Paper: dynamic reconfiguration beats the best static configuration on "
        "gzip, mcf, parser and bzip2 (up to ~3%); performance is largely "
        "decoupled from the threshold.  Measured: morphing (thresholds 15/5) "
        "edges out the best static on the phase-structured benchmarks "
        "(gzip/parser/bzip2) and matches it on mcf; thresholds 15 and 5 are "
        "indistinguishable while the eager threshold 0 pays for its "
        "reconfiguration churn — the same decoupling the paper reports."
    ),
    "Figure 11 (table)": (
        "Paper: emulator intrinsics L1 6/4, L2 87/87, miss 151/87 vs PIII 3/1, "
        "7/1, 79/1; accounting 3.9 x 1.3 x 1.1 = 5.5x expected floor, leaving "
        "~1.3x residual at the low end.  Measured: the simulated memory path is "
        "calibrated to land on these intrinsics (validated by test_table11) and "
        "the measured low-end residual is ~1.3-1.6x."
    ),
}


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output_path", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("json_path", nargs="?", default=RESULTS_JSON)
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes for the run grid (default: CPU count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent .runcache/ disk cache",
    )
    parser.add_argument(
        "--scale", type=float, default=SCALE,
        help=f"workload scale factor (default {SCALE}; CI smoke uses less)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable the phase profiler (REPRO_PROF=1) in this process "
             "and every worker; per-phase host time lands in the JSON "
             "record",
    )
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = _parse_args(argv)
    scale = args.scale
    if args.profile:
        # before any worker pool exists: workers resolve REPRO_PROF at import
        os.environ[prof.ENABLE_ENV] = "1"
        prof.enable()
    if args.no_cache:
        configure_disk_cache(enabled=False)
    disk = disk_cache()
    if disk is not None:
        # each code edit leaves a cache directory behind; this sweep
        # owns the cache root, so clear out the old versions first
        pruned = disk.prune_stale_versions()
        if pruned:
            print(f"pruned {pruned} stale cache version(s) under {disk.root.parent}")
    figures = [
        figure1_timeline,
        figure4_l15_cache,
        figure5_translators,
        figure6_l2_accesses,
        figure7_l2_miss_rate,
        figure8_optimization,
        figure9_reconfiguration,
        figure10_relative,
        table11_intrinsics,
    ]

    started = time.time()
    sections = []
    failures = []
    figure_records = []
    for figure_fn in figures:
        fig_started = time.time()
        try:
            result = figure_fn(scale=scale, jobs=args.jobs)
        except Exception as exc:  # keep going; report the failure at exit
            failures.append(f"{figure_fn.__name__}: {exc!r}")
            print(f"{figure_fn.__name__}: FAILED ({exc!r})", file=sys.stderr)
            figure_records.append(
                {
                    "figure": figure_fn.__name__,
                    "status": "failed",
                    "error": repr(exc),
                    "seconds": round(time.time() - fig_started, 2),
                }
            )
            continue
        cold = time.time() - fig_started
        # warm pass: every cell is now memoized, so this measures pure
        # harness/render overhead — the cost of a cached re-run
        warm_started = time.time()
        figure_fn(scale=scale, jobs=args.jobs)
        warm = time.time() - warm_started
        print(f"{result.figure}: done in {cold:.0f}s (warm re-run {warm:.2f}s)")
        figure_records.append(
            {
                "figure": result.figure,
                "title": result.title,
                "status": "ok",
                "seconds": round(cold, 2),
                "cold_seconds": round(cold, 2),
                "warm_seconds": round(warm, 2),
                "columns": result.columns,
                "rows": result.rows,
                "notes": result.notes,
            }
        )
        note = _PAPER_NOTES.get(result.figure, "")
        block = [f"## {result.figure} — {result.title}", ""]
        if note:
            block += [f"*Paper vs measured:* {note}", ""]
        block += ["```", result.render(), "```", ""]
        sections.append("\n".join(block))

    if failures:
        _write_results_json(args, figure_records, started, low=None, high=None)
        print(f"\n{len(failures)} figure(s) failed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        sys.exit(1)

    low = min(
        run_one(n, "speculative_6", scale).slowdown
        for n in ["164.gzip", "181.mcf", "197.parser", "256.bzip2"]
    )
    high = max(
        run_one(n, "speculative_6", scale).slowdown
        for n in ["176.gcc", "255.vortex", "186.crafty"]
    )
    _write_results_json(args, figure_records, started, low=low, high=high)

    header = f"""# EXPERIMENTS — paper vs measured

Reproduction of every table and figure in the evaluation section of
*Constructing Virtual Architectures on a Tiled Processor* (Wentzlaff &
Agarwal, CGO 2006), regenerated by `python benchmarks/run_all.py`
(workload scale {scale}, total {time.time() - started:.0f}s).

**Headline result.** The paper reports a 7x-110x slowdown running x86
SpecInt binaries on the 16-tile Raw prototype versus a Pentium III,
clock for clock.  Measured here (speculative 6-translator
configuration): **{low:.1f}x at the low end** (gzip/mcf/parser/bzip2
band) and **{high:.1f}x at the high end** (gcc/vortex/crafty band),
with the same per-benchmark ordering.

Absolute numbers are not expected to match — the substrate is a
calibrated timing model over synthetic MinneSPEC-scale workloads, not
the authors' hardware — but every figure's *shape* (who wins, by what
factor, where the crossovers fall) is asserted by the benchmark suite
in `benchmarks/`.

"""
    with open(args.output_path, "w") as handle:
        handle.write(header + "\n".join(sections))
    print(f"\nwrote {args.output_path} in {time.time() - started:.0f}s total")


def _write_results_json(args, figure_records, started, low, high) -> None:
    """Persist the machine-readable benchmark record."""
    passed = sum(1 for record in figure_records if record["status"] == "ok")
    disk = disk_cache()
    # pooled worker telemetry: per-worker cache hit/miss/latency, group
    # records and phase profiles, plus the deterministic aggregate
    telemetry = worker_telemetry()
    doc = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": args.scale,
        "jobs": args.jobs,
        "total_seconds": round(time.time() - started, 2),
        "figures_passed": passed,
        "figures_failed": len(figure_records) - passed,
        "headline": {
            "slowdown_low_band": round(low, 3) if low is not None else None,
            "slowdown_high_band": round(high, 3) if high is not None else None,
        },
        "run_cache": cache_stats(),
        "disk_cache": disk.stats() if disk is not None else {"enabled": False},
        "workers": telemetry,
        "figures": figure_records,
    }
    merged_profile = None
    if prof.active().enabled:
        parent_profile = prof.active().snapshot()
        aggregate = telemetry.get("aggregate") or {}
        merged_profile = prof.merge_profiles(
            [parent_profile, aggregate.get("profile") or {}]
        )
        doc["profile"] = {"parent": parent_profile, "merged": merged_profile}
    with open(args.json_path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json_path}")
    if merged_profile is not None and merged_profile.get("paths"):
        print(prof.render_profile(merged_profile, limit=15))


if __name__ == "__main__":
    main()
