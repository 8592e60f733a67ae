"""Chrome / Perfetto ``trace_event`` JSON export.

Converts a :class:`~repro.obs.events.Tracer`'s event stream into the
Trace Event Format that ``chrome://tracing`` and https://ui.perfetto.dev
load directly: one process for the virtual architecture, one *thread
per tile*, so the translation slaves' speculative run-ahead renders as
the overlapping bars of the paper's Figure 1.

Mapping:

* ``translate.start`` / ``translate.end`` pairs become complete ("X")
  duration events on the slave's thread;
* ``specq.enqueue`` / ``specq.dequeue`` additionally drive a counter
  ("C") track of the translation-queue depth (Figure 9's signal);
* everything else becomes a thread-scoped instant ("i") event.

Timestamps are simulated cycles written through ``ts`` (the format
calls them microseconds; the unit label is cosmetic).  Within each tile
thread the exported ``ts`` sequence is sorted, so it is monotonically
non-decreasing — a property :func:`validate_trace_events` (used by the
CI trace job and the test suite) checks along with the rest of the
schema.

:func:`add_profile_lanes` appends a second "host profiler" process to
a document: one thread lane per worker, carrying ``prof.<phase>``
counter ("C") tracks built from :mod:`repro.obs.prof` snapshots — so a
pooled sweep's per-worker host-time breakdown loads into the same
Perfetto view as the simulated timeline.  The validator enforces the
counter-track contract (numeric args, a named lane) for these events.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional

from repro.obs.events import TraceEvent, events_by_tile
from repro.obs.prof import phase_totals

#: The trace_event phases this exporter produces.
_EXPORTED_PHASES = {"X", "i", "C", "M"}

#: Phases the validator accepts (superset: hand-written traces may use
#: begin/end pairs).
_VALID_PHASES = _EXPORTED_PHASES | {"B", "E"}

#: pid used for the single simulated process.
_PID = 1

#: pid used for the host-profiler counter lanes (one tid per worker).
_PROFILER_PID = 2


def _thread_order(tile: str) -> tuple:
    """Stable, human-sensible thread ordering: execution first, then the
    translation side, then memory, then everything else alphabetically."""
    preferred = ["execution", "manager", "slave", "l15_bank", "mmu", "l2_bank"]
    for rank, prefix in enumerate(preferred):
        if tile.startswith(prefix):
            return (rank, tile)
    return (len(preferred), tile)


def to_perfetto(
    events: Iterable[TraceEvent],
    *,
    process_name: str = "repro virtual architecture",
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build a trace_event JSON object from ``events``."""
    event_list = list(events)
    by_tile = events_by_tile(event_list)
    tiles = sorted(by_tile, key=_thread_order)
    tids = {tile: index + 1 for index, tile in enumerate(tiles)}

    trace_events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tile in tiles:
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tids[tile],
                "args": {"name": tile},
            }
        )

    for tile in tiles:
        tid = tids[tile]
        open_translations: Dict[object, TraceEvent] = {}
        for event in by_tile[tile]:
            args = dict(event.args or {})
            if event.category == "translate" and event.name == "start":
                open_translations[args.get("pc")] = event
                continue
            if event.category == "translate" and event.name == "end":
                start = open_translations.pop(args.get("pc"), None)
                begin = start.cycle if start is not None else event.cycle
                trace_events.append(
                    {
                        "ph": "X",
                        "name": f"translate 0x{args.get('pc', 0):x}",
                        "cat": event.category,
                        "pid": _PID,
                        "tid": tid,
                        "ts": begin,
                        "dur": max(0, event.cycle - begin),
                        "args": args,
                    }
                )
                continue
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": f"{event.category}.{event.name}",
                    "cat": event.category,
                    "pid": _PID,
                    "tid": tid,
                    "ts": event.cycle,
                    "args": args,
                }
            )
            if event.category == "specq" and "qlen" in args:
                trace_events.append(
                    {
                        "ph": "C",
                        "name": "specq.depth",
                        "cat": "specq",
                        "pid": _PID,
                        "tid": tid,
                        "ts": event.cycle,
                        "args": {"depth": args["qlen"]},
                    }
                )
        # a translate.start with no matching end (run cut short / ring
        # overflow) still deserves a mark on the timeline
        for leftover in open_translations.values():
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": "translate.start",
                    "cat": "translate",
                    "pid": _PID,
                    "tid": tid,
                    "ts": leftover.cycle,
                    "args": dict(leftover.args or {}),
                }
            )

    # global sort keeps each thread's ts monotone and interleaves tiles
    # by time, matching how trace viewers ingest the stream
    trace_events.sort(key=lambda e: (e.get("ts", -1), e["tid"]))
    doc: Dict[str, object] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "timestamp_unit": "cycles"},
    }
    if metadata:
        doc["otherData"].update(metadata)  # type: ignore[union-attr]
    return doc


def add_profile_lanes(
    doc: Dict[str, object],
    profiles: Mapping[str, Mapping],
    *,
    process_name: str = "host profiler",
) -> Dict[str, object]:
    """Append per-worker phase-profile counter lanes to ``doc``.

    ``profiles`` maps a lane label (worker pid, ``"parent"``,
    ``"aggregate"``) to a :meth:`~repro.obs.prof.PhaseProfiler.snapshot`
    dict.  Each lane becomes one thread of a second ``host profiler``
    process; each leaf phase total becomes one ``prof.<phase>`` counter
    sample with the value in milliseconds.  Profiles are cumulative
    totals, not a time series, so the ``ts`` values are synthetic
    indices — monotone per lane, as the validator requires.
    """
    events: List[Dict[str, object]] = doc.setdefault("traceEvents", [])  # type: ignore[assignment]
    events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PROFILER_PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    )
    for lane, label in enumerate(sorted(profiles, key=str), start=1):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PROFILER_PID,
                "tid": lane,
                "args": {"name": f"worker {label}"},
            }
        )
        totals = phase_totals(profiles[label])
        for ts, (leaf, entry) in enumerate(sorted(totals.items())):
            events.append(
                {
                    "ph": "C",
                    "name": f"prof.{leaf}",
                    "cat": "prof",
                    "pid": _PROFILER_PID,
                    "tid": lane,
                    "ts": ts,
                    "args": {"ms": round(int(entry["ns"]) / 1e6, 3)},
                }
            )
    return doc


def validate_trace_events(doc: object) -> List[str]:
    """Check ``doc`` against the trace_event schema; returns problems.

    An empty list means the document is loadable by Perfetto /
    ``chrome://tracing``.  Checked: top-level shape, required fields and
    types per phase, JSON-serializability, per-(pid, tid) monotone
    non-decreasing timestamps, numeric counter-track values, and — for
    ``prof.*`` counter lanes — that each lane carries ``thread_name``
    metadata (otherwise Perfetto renders an anonymous worker lane).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    try:
        json.dumps(doc)
    except (TypeError, ValueError) as err:
        problems.append(f"document is not JSON-serializable: {err}")

    named_lanes = {
        (event.get("pid"), event.get("tid"))
        for event in events
        if isinstance(event, dict)
        and event.get("ph") == "M"
        and event.get("name") == "thread_name"
    }
    last_ts: Dict[tuple, float] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: 'name' must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key!r} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs non-negative 'dur'")
        if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: instant scope must be t/p/g")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: 'C' event needs a non-empty args object")
            elif not all(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                for value in args.values()
            ):
                problems.append(f"{where}: counter args must be numeric")
            name = event.get("name")
            if (
                isinstance(name, str)
                and name.startswith("prof.")
                and (event.get("pid"), event.get("tid")) not in named_lanes
            ):
                problems.append(
                    f"{where}: prof counter lane {(event.get('pid'), event.get('tid'))} "
                    "has no thread_name metadata"
                )
        thread = (event.get("pid"), event.get("tid"))
        if ts < last_ts.get(thread, float("-inf")):
            problems.append(
                f"{where}: ts {ts} goes backwards on pid/tid {thread}"
            )
        last_ts[thread] = ts
    return problems


def write_trace(path: str, doc: Dict[str, object]) -> None:
    """Write the trace JSON to ``path`` (compact rows, stable order)."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
