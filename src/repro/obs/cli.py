"""Command line front door: ``python -m repro.obs <command> ...``.

Commands:

``trace``
    Run one workload on the timing VM with event tracing enabled and
    write a Perfetto/chrome://tracing-loadable ``trace_event`` JSON
    (one thread per tile).

``report``
    Run one workload and print (or save as JSON) its run report —
    headline timing, counters, histogram summaries, sampled series.

``diff``
    Compare two saved run reports field by field.

``validate``
    Check a trace JSON against the ``trace_event`` schema (used by the
    CI trace job; exit 1 on any problem).

``flame``
    Run one workload with phase profiling enabled and write the
    profile as collapsed stacks (speedscope / flamegraph.pl format),
    printing the hottest-paths table.

Workloads are either built-in suite names (``164.gzip`` ...) or paths
to VX86 assembly files, mirroring ``python -m repro.verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.guest.assembler import AssemblyError, assemble
from repro.guest.program import GuestProgram
from repro.morph.config import PRESETS
from repro.obs import prof
from repro.obs.events import DEFAULT_TRACE_CAPACITY, Tracer
from repro.obs.perfetto import (
    add_profile_lanes,
    to_perfetto,
    validate_trace_events,
    write_trace,
)
from repro.obs.report import (
    build_report,
    load_report,
    render_diff,
    render_report,
    save_report,
)
from repro.workloads.suite import SPECINT_NAMES, build_workload

#: The default traced configuration morphs at runtime, so a trace shows
#: all four headline categories (translate/codecache/specq/morph).
DEFAULT_TRACE_CONFIG = "morph_threshold_5"


def _load_program(name: str, scale: float) -> GuestProgram:
    if name in SPECINT_NAMES:
        return build_workload(name, scale=scale)
    path = Path(name)
    if not path.exists():
        raise SystemExit(
            f"error: {name!r} is neither a workload ({', '.join(SPECINT_NAMES)}) "
            "nor an assembly file"
        )
    try:
        return assemble(path.read_text(), name=path.name)
    except AssemblyError as err:
        raise SystemExit(f"error: {name}: {err}") from err


def _run_traced(args: argparse.Namespace, capacity: Optional[int] = None):
    from repro.vm.timing import TimingVM  # late import keeps the CLI light

    if args.config not in PRESETS:
        raise SystemExit(
            f"error: unknown config {args.config!r} (choose from {', '.join(sorted(PRESETS))})"
        )
    program = _load_program(args.workload, args.scale)
    tracer = Tracer(capacity) if capacity else None
    vm = TimingVM(program, PRESETS[args.config], tracer=tracer)
    result = vm.run()
    return vm, result


def _cmd_trace(args: argparse.Namespace) -> int:
    vm, result = _run_traced(args, capacity=args.capacity)
    if args.raw:
        raw_doc = {
            "schema": "repro.obs.rawtrace/1",
            "meta": {
                "workload": result.workload,
                "config": result.config_name,
                "scale": args.scale,
                "cycles": result.cycles,
            },
            "dropped": vm.tracer.dropped,
            "events": [event.as_dict() for event in vm.tracer.events()],
        }
        with open(args.raw, "w") as handle:
            json.dump(raw_doc, handle)
        print(f"wrote {args.raw} (raw events, for `python -m repro.verify conform`)")
    doc = to_perfetto(
        vm.tracer.events(),
        metadata={
            "workload": result.workload,
            "config": result.config_name,
            "cycles": result.cycles,
            "scale": args.scale,
        },
    )
    problems = validate_trace_events(doc)
    if problems:
        for problem in problems[:20]:
            print(f"schema problem: {problem}", file=sys.stderr)
        return 1
    write_trace(args.out, doc)
    counts = vm.tracer.counts_by_category()
    summary = ", ".join(f"{cat}={count}" for cat, count in counts.items())
    print(
        f"{result.workload} / {result.config_name}: {result.cycles:,} cycles, "
        f"{len(vm.tracer)} events retained ({vm.tracer.dropped} dropped)"
    )
    print(f"  categories: {summary}")
    print(f"  tiles: {', '.join(vm.tracer.tiles())}")
    print(f"wrote {args.out} — load it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _, result = _run_traced(args)
    report = build_report(result)
    if args.json:
        save_report(args.json, report)
        print(f"wrote {args.json}")
    print(render_report(report))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        before = load_report(args.before)
        after = load_report(args.after)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(render_diff(before, after, all_counters=args.all_counters))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.trace) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {args.trace}: {err}", file=sys.stderr)
        return 1
    problems = validate_trace_events(doc)
    if problems:
        for problem in problems[:50]:
            print(f"{args.trace}: {problem}", file=sys.stderr)
        print(f"{args.trace}: INVALID ({len(problems)} problems)", file=sys.stderr)
        return 1
    events = doc.get("traceEvents", [])
    print(f"{args.trace}: valid trace_event JSON ({len(events)} events)")
    return 0


def _cmd_flame(args: argparse.Namespace) -> int:
    # install the profiler before anything binds prof.active()
    profiler = prof.PhaseProfiler()
    previous = prof.set_profiler(profiler)
    try:
        _, result = _run_traced(args)
    finally:
        prof.set_profiler(previous)
    snapshot = profiler.snapshot()
    print(
        f"{result.workload} / {result.config_name}: {result.cycles:,} cycles"
    )
    print(prof.render_profile(snapshot, limit=args.limit))
    problems = prof.conservation_violations(snapshot)
    for problem in problems:
        print(f"conservation problem: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(prof.collapsed_stacks(snapshot))
        print(f"wrote {args.out} — load it at https://speedscope.app")
    if args.trace:
        doc = to_perfetto(
            [], metadata={"workload": result.workload, "config": result.config_name}
        )
        add_profile_lanes(doc, {"main": snapshot})
        trace_problems = validate_trace_events(doc)
        for problem in trace_problems[:20]:
            print(f"schema problem: {problem}", file=sys.stderr)
        if trace_problems:
            return 1
        write_trace(args.trace, doc)
        print(f"wrote {args.trace} — load it at https://ui.perfetto.dev")
    return 1 if problems else 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", required=True,
        help="suite workload name or path to a VX86 assembly file",
    )
    parser.add_argument(
        "--config", default=DEFAULT_TRACE_CONFIG,
        help=f"virtual architecture preset (default: {DEFAULT_TRACE_CONFIG})",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default: 1.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tools: cycle-stamped traces and run reports.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="run a workload and export a Perfetto trace")
    _add_run_arguments(trace)
    trace.add_argument("--out", default="trace.json", help="output path (default: trace.json)")
    trace.add_argument(
        "--capacity", type=int, default=DEFAULT_TRACE_CAPACITY,
        help=f"trace ring-buffer capacity (default: {DEFAULT_TRACE_CAPACITY})",
    )
    trace.add_argument(
        "--raw", default=None, metavar="PATH",
        help="also write the raw event stream as JSON "
             "(replayable by `python -m repro.verify conform`)",
    )
    trace.set_defaults(func=_cmd_trace)

    report = commands.add_parser("report", help="run a workload and print its run report")
    _add_run_arguments(report)
    report.add_argument("--json", help="also save the report as JSON to this path")
    report.set_defaults(func=_cmd_report)

    diff = commands.add_parser("diff", help="compare two saved run reports")
    diff.add_argument("before", help="baseline report JSON")
    diff.add_argument("after", help="new report JSON")
    diff.add_argument(
        "--all-counters", action="store_true",
        help="show every changed counter, not just the first dozen",
    )
    diff.set_defaults(func=_cmd_diff)

    validate = commands.add_parser("validate", help="validate a trace_event JSON file")
    validate.add_argument("trace", help="trace JSON path")
    validate.set_defaults(func=_cmd_validate)

    flame = commands.add_parser(
        "flame", help="run a workload under the phase profiler, export collapsed stacks"
    )
    _add_run_arguments(flame)
    flame.add_argument(
        "--out", default="flame.txt",
        help="collapsed-stacks output path (default: flame.txt; '' to skip)",
    )
    flame.add_argument(
        "--limit", type=int, default=30,
        help="profile table rows to print (default: 30)",
    )
    flame.add_argument(
        "--trace", default=None,
        help="also write the profile as Perfetto counter lanes to this path",
    )
    flame.set_defaults(func=_cmd_flame)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
