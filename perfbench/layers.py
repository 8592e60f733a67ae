"""Per-layer split of a traced run, and its Perfetto export.

The simulator's phase profiler (``repro.obs.prof``) attributes host
time to path-keyed phases.  The benchmark opens its own phases around
the calls it makes into the program: ``build`` around each program
build and ``cell`` around each cell's ``TimingVM`` (the harness opens
``run`` around the same call in pool workers).  Every profiled path is
charged by its *self* time to exactly one layer below, so the layer
self-times add up to the time spent inside those spans.

The self time of a ``cell`` or ``run`` span is what no phase of the
program covers: ``TimingVM``'s own dispatch, code-cache fetch and
speculative model, and any callee without a phase.  It is reported as
``vm.unattributed_s`` and left out of ``obs.layer_coverage``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping

from repro.obs import prof

#: Phase leaf -> layer charged with the path's self time.  Any path
#: under ``translate`` belongs to the translator whatever its leaf.
_LEAF_LAYER = {
    "build": "workloads",
    "interpreter": "interp",
    "jit.compile": "jit.compile",
    "jit.run": "jit.run",
    "jit.trace.compile": "trace.compile",
    "memsys": "memsys",
    "morph": "morph",
    "cell": "unattributed",
    "run": "unattributed",
    "jit.pack": "harness.pack",
    "cache.io": "harness.cache_io",
}

#: Translator stages reported one by one (leaf totals under ``translate``).
DBT_STAGES = ("decode", "frontend", "optimizer", "codegen", "schedule")


def layer_self_ns(snapshot: Mapping) -> Dict[str, int]:
    """Self nanoseconds per layer; unknown phases land in ``other``."""
    out: Dict[str, int] = {}
    for path, ns in prof.self_times(snapshot).items():
        parts = path.split(";")
        layer = "dbt" if "translate" in parts else _LEAF_LAYER.get(parts[-1], "other")
        out[layer] = out.get(layer, 0) + ns
    return out


def profile_delta(after: Mapping, before: Mapping) -> Dict[str, object]:
    """The profile accumulated between two snapshots of one profiler."""
    old = before.get("paths") or {}
    paths = {}
    for path, entry in (after.get("paths") or {}).items():
        prev = old.get(path, {"ns": 0, "calls": 0})
        if entry["calls"] != prev["calls"]:
            paths[path] = {"ns": entry["ns"] - prev["ns"], "calls": entry["calls"] - prev["calls"]}
    return {"paths": paths}


def layer_metrics(profile: Mapping, capacity_s: float, to_ref: float) -> Dict[str, float]:
    """The time and count metrics every workload reports from a profile.

    ``profile`` is the merged profile of every process that simulated;
    ``capacity_s`` is the traced wall time times the number of those
    processes, so ``obs.layer_coverage`` says how much of it the named
    layers' self-times account for.  Set-up's program builds are the
    root ``build`` phase and lie outside the traced wall time; builds
    inside pool workers (``run;build``) lie inside it and count.  Times
    are multiplied by ``to_ref`` into the pass's reference seconds.
    """
    selfs = layer_self_ns(profile)
    named_ns = sum(ns for path, ns in prof.self_times(profile).items()
                   if path.split(";")[0] != "build"
                   and path.split(";")[-1] not in ("cell", "run"))
    totals = prof.phase_totals(profile)

    def total(leaf: str, key: str = "ns") -> int:
        return totals.get(leaf, {}).get(key, 0)

    def seconds(ns: int) -> float:
        return ns / 1e9 * to_ref

    compile_s = seconds(total("jit.compile"))
    compiles = total("jit.compile", "calls")
    return {
        "workloads.build_s": seconds(total("build")),
        **{f"dbt.{stage}_s": seconds(total(stage)) for stage in DBT_STAGES},
        "interp.self_s": seconds(selfs.get("interp", 0)),
        "interp.blocks": total("interpreter", "calls"),
        "jit.compile_s": compile_s,
        "jit.compile_us_per_block": compile_s * 1e6 / compiles if compiles else 0.0,
        "jit.run_self_s": seconds(selfs.get("jit.run", 0)),
        "trace.compile_s": seconds(total("jit.trace.compile")),
        "memsys.s": seconds(total("memsys")),
        "memsys.accesses": total("memsys", "calls"),
        "morph.s": seconds(total("morph")),
        "vm.unattributed_s": seconds(selfs.get("unattributed", 0)),
        "harness.pack_io_s": seconds(total("jit.pack")),
        "harness.cache_io_s": seconds(total("cache.io")),
        "obs.layer_coverage": named_ns / 1e9 / capacity_s,
    }


def write_trace(path: Path, spans: List[dict], pid: int, label: str) -> None:
    """Write ``spans`` as trace-event JSON (opens in Perfetto/chrome://tracing).

    Each span is ``{"name", "cat", "start_ns", "end_ns", "args"}`` on
    the host's ``perf_counter_ns`` clock; timestamps become microseconds
    relative to the first span.
    """
    origin = min((s["start_ns"] for s in spans), default=0)
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for span in spans:
        events.append({
            "name": span["name"], "cat": span["cat"], "ph": "X", "pid": pid, "tid": 0,
            "ts": (span["start_ns"] - origin) / 1e3,
            "dur": (span["end_ns"] - span["start_ns"]) / 1e3,
            "args": span.get("args", {}),
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
