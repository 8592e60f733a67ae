#!/usr/bin/env python
"""Micro-benchmark of the simulator's hot loops.

Measures blocks-executed-per-second and guest-instructions-per-second
for the timing VM — with the block JIT off (pure interpreter dispatch)
and with it on and warm, compiled closures adopted from the shared
space (the steady state every sweep cell after the first sees) — plus
raw interpreter instructions-per-second.  It also measures the
translator layer: cold translation blocks-per-second over every block a
large-code workload reaches, optimized and unoptimized, and how many
distinct host-instruction objects the translation cache holds.
``run_all.py`` embeds the numbers in ``BENCH_results.json`` so the
performance trajectory of the inner loop and the translator is
trackable across PRs.  Only the JIT speedup is gated.

``--check`` compares the measured JIT speedup against the committed
``perf_baseline.json`` and exits non-zero when it regresses more than
20% — the CI perf gate.  Regenerate the baseline on a quiet machine
with ``--write-baseline`` when the speedup legitimately moves.

    python benchmarks/perf_smoke.py [--scale S] [--workload NAME]
                                    [--json] [--check] [--write-baseline]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.dbt.transcache import TranslationCache
from repro.dbt.translator import TranslationConfig, Translator
from repro.guest.interpreter import GuestInterpreter
from repro.guest.memory import GuestMemory
from repro.morph.config import PRESETS
from repro.obs import prof
from repro.vm.timing import TimingVM
from repro.workloads import build_workload

DEFAULT_WORKLOAD = "164.gzip"
DEFAULT_SCALE = 0.3

#: The translator series: a large-code workload, at a scale small
#: enough to run quickly (its block count does not shrink with scale).
TRANSLATOR_WORKLOAD = "176.gcc"
TRANSLATOR_SCALE = 0.05

#: Committed reference numbers for --check (next to this script).
BASELINE_PATH = Path(__file__).resolve().parent / "perf_baseline.json"

#: --check fails when the measured JIT speedup drops below this
#: fraction of the committed baseline (80% = a >20% regression).
REGRESSION_FLOOR = 0.8


def _timed_run(program, config, **vm_kwargs):
    started = time.perf_counter()
    result = TimingVM(program, config, **vm_kwargs).run()
    return result, time.perf_counter() - started


#: Warm-cache runs finish in tens of milliseconds at the default scale;
#: a single sample is dominated by scheduler noise.  Best-of-N is the
#: standard antidote: the minimum is the least-perturbed observation.
WARM_REPEATS = 3


def _best_of(build, config, repeats=WARM_REPEATS, **vm_kwargs):
    best = None
    result = None
    for _ in range(repeats):
        run_result, seconds = _timed_run(build(), config, **vm_kwargs)
        if result is None:
            result = run_result
        else:
            assert run_result == result, "repeated warm run diverged"
        if best is None or seconds < best:
            best = seconds
    return result, best


def measure_translator(
    workload: str = TRANSLATOR_WORKLOAD, scale: float = TRANSLATOR_SCALE
) -> dict:
    """Cold translation throughput and host-instruction sharing.

    One timing run through a :class:`TranslationCache` finds the blocks
    the workload reaches (speculation included) and leaves them cached;
    each of them is then translated cold by a fresh translator, once
    optimized and once unoptimized.
    """
    program = build_workload(workload, scale=scale)
    cache = TranslationCache()
    TimingVM(program, PRESETS["speculative_4"], jit=False,
             translation_cache=cache, program_key=workload).run()
    cached = list(cache.blocks())
    pcs = sorted({block.guest_address for block in cached})
    memory = GuestMemory()
    program.load(memory)
    doc = {
        "workload": workload,
        "scale": scale,
        "blocks": len(pcs),
        "cached_host_instructions": sum(len(block.instrs) for block in cached),
        "distinct_host_instrs": len({id(instr) for block in cached for instr in block.instrs}),
    }
    for label, optimize in (("optimized", True), ("unoptimized", False)):
        translator = Translator(memory.read_bytes, TranslationConfig(optimize=optimize))
        started = time.perf_counter()
        for pc in pcs:
            translator.translate(pc)
        seconds = time.perf_counter() - started
        doc[f"{label}_blocks_per_second"] = round(len(pcs) / seconds, 1)
    return doc


def measure(workload: str = DEFAULT_WORKLOAD, scale: float = DEFAULT_SCALE) -> dict:
    """Timing-VM runs (JIT off / JIT warm), a raw interpreter run and
    the translator series (:func:`measure_translator`)."""
    program = build_workload(workload, scale=scale)
    config = PRESETS["speculative_4"]

    result, nojit_seconds = _timed_run(program, config, jit=False)

    # warm the shared spaces (translations + compiled closures), then
    # measure the steady state a sweep's 2nd..Nth cells run in
    cache = TranslationCache()
    program = build_workload(workload, scale=scale)
    _timed_run(program, config, jit=True,
               translation_cache=cache, program_key=workload)
    build = lambda: build_workload(workload, scale=scale)
    jit_result, jit_seconds = _best_of(
        build, config, jit=True,
        translation_cache=cache, program_key=workload,
    )
    assert jit_result == result, "JIT-on run diverged from JIT-off run"

    # the same warm cell under an active phase profiler: measures the
    # profiling overhead (documented bound: a few percent) and asserts
    # the determinism invariant — profiled results are bit-identical
    profiler = prof.PhaseProfiler()
    previous = prof.set_profiler(profiler)
    try:
        prof_result, prof_seconds = _best_of(
            build, config, jit=True,
            translation_cache=cache, program_key=workload,
        )
    finally:
        # restore, don't disable: run_all may be profiling around us
        prof.set_profiler(previous)
    assert prof_result == result, "profiled run diverged from unprofiled run"
    profile_paths = len(profiler.snapshot().get("paths", {}))

    program = build_workload(workload, scale=scale)
    started = time.perf_counter()
    interp = GuestInterpreter.for_program(program)
    interp.run()
    interp_seconds = time.perf_counter() - started

    return {
        "workload": workload,
        "scale": scale,
        "timing_vm": {
            "seconds": round(nojit_seconds, 4),
            "blocks_executed": result.blocks_executed,
            "guest_instructions": result.guest_instructions,
            "blocks_per_second": round(result.blocks_executed / nojit_seconds, 1),
            "instructions_per_second": round(
                result.guest_instructions / nojit_seconds, 1
            ),
        },
        "timing_vm_jit": {
            "seconds": round(jit_seconds, 4),
            "blocks_per_second": round(result.blocks_executed / jit_seconds, 1),
            "instructions_per_second": round(
                result.guest_instructions / jit_seconds, 1
            ),
        },
        "jit_speedup": round(nojit_seconds / jit_seconds, 3),
        "profiling": {
            "seconds": round(prof_seconds, 4),
            "paths": profile_paths,
            "overhead_vs_jit_warm": round(prof_seconds / jit_seconds - 1.0, 4),
        },
        "interpreter": {
            "seconds": round(interp_seconds, 4),
            "instructions": interp.stats["instructions"],
            "instructions_per_second": round(
                interp.stats["instructions"] / interp_seconds, 1
            ),
        },
        "translator": measure_translator(),
    }


def append_history(doc: dict) -> None:
    """Append this measurement to the cross-run benchmark history."""
    from repro.obs.history import BenchHistory, make_record

    record = make_record(
        f"perf_smoke:{doc['workload']}",
        scale=doc["scale"], jobs=1, jit=True,
        metrics={
            "jit_speedup": doc["jit_speedup"],
            "timing_blocks_per_second": doc["timing_vm"]["blocks_per_second"],
            "jit_blocks_per_second": doc["timing_vm_jit"]["blocks_per_second"],
            "interp_instructions_per_second": (
                doc["interpreter"]["instructions_per_second"]
            ),
            "profiling_overhead": doc["profiling"]["overhead_vs_jit_warm"],
            "translate_blocks_per_second": (
                doc["translator"]["optimized_blocks_per_second"]
            ),
            "translate_noopt_blocks_per_second": (
                doc["translator"]["unoptimized_blocks_per_second"]
            ),
            "distinct_host_instrs": doc["translator"]["distinct_host_instrs"],
        },
    )
    path = BenchHistory().append(record)
    print(f"perf-smoke: appended history record to {path}", file=sys.stderr)


def check_against_baseline(doc: dict) -> int:
    """Compare ``doc`` to the committed baseline; returns an exit code."""
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError) as err:
        print(f"perf-smoke: cannot read baseline {BASELINE_PATH}: {err}")
        return 2
    reference = baseline.get("jit_speedup")
    if not isinstance(reference, (int, float)) or reference <= 0:
        print(f"perf-smoke: baseline has no usable jit_speedup: {reference!r}")
        return 2
    measured = doc["jit_speedup"]
    floor = REGRESSION_FLOOR * reference
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(
        f"perf-smoke: jit_speedup {measured:.3f}x "
        f"(baseline {reference:.3f}x, floor {floor:.3f}x): {verdict}"
    )
    return 0 if measured >= floor else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--json", action="store_true", help="print JSON only")
    parser.add_argument(
        "--check", action="store_true",
        help="fail if jit_speedup regressed >20%% vs perf_baseline.json",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record the measured numbers as the new committed baseline",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending this measurement to .benchhistory/",
    )
    args = parser.parse_args()
    doc = measure(args.workload, args.scale)
    if not args.no_history:
        try:
            append_history(doc)
        except OSError as err:  # history is best-effort, never fail the run
            print(f"perf-smoke: history append failed: {err}", file=sys.stderr)
    if args.write_baseline:
        payload = {
            "workload": doc["workload"],
            "scale": doc["scale"],
            "jit_speedup": doc["jit_speedup"],
            "timing_vm_blocks_per_second": doc["timing_vm"]["blocks_per_second"],
            "timing_vm_jit_blocks_per_second": doc["timing_vm_jit"]["blocks_per_second"],
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif not args.check:
        vm = doc["timing_vm"]
        jit = doc["timing_vm_jit"]
        print(
            f"{doc['workload']} @ scale {doc['scale']}: "
            f"{vm['blocks_per_second']:.0f} blocks/s (interpreter), "
            f"{jit['blocks_per_second']:.0f} blocks/s (block JIT warm, "
            f"{doc['jit_speedup']:.2f}x); "
            f"{doc['interpreter']['instructions_per_second']:.0f} instr/s "
            f"(raw interpreter)"
        )
        xlate = doc["translator"]
        print(
            f"{xlate['workload']} @ scale {xlate['scale']}: {xlate['blocks']} blocks "
            f"translated at {xlate['optimized_blocks_per_second']:.0f} blocks/s "
            f"(optimized), {xlate['unoptimized_blocks_per_second']:.0f} blocks/s "
            f"(unoptimized); {xlate['distinct_host_instrs']} distinct host "
            f"instructions cached"
        )
    if args.check:
        sys.exit(check_against_baseline(doc))


if __name__ == "__main__":
    main()
