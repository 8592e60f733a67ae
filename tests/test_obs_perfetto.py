"""Perfetto trace_event export: pairing, schema validation, golden file.

Regenerate the golden with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_perfetto.py
"""

import json
import os
from pathlib import Path

from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs.events import Tracer
from repro.obs.perfetto import (
    add_profile_lanes,
    to_perfetto,
    validate_trace_events,
    write_trace,
)
from repro.vm.timing import TimingVM

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "perfetto_golden.json"


def _synthetic_tracer():
    tracer = Tracer()
    tracer.emit(100, "specq", "enqueue", "manager", pc=0x100, qlen=1)
    tracer.emit(110, "translate", "start", "slave0", pc=0x100)
    tracer.emit(150, "specq", "dequeue", "manager", pc=0x200, qlen=0)
    tracer.emit(400, "translate", "end", "slave0", pc=0x100, cycles=290)
    tracer.emit(500, "codecache", "hit", "execution", level="l1", pc=0x100)
    tracer.emit(600, "translate", "start", "slave1", pc=0x300)  # never ends
    return tracer


class TestToPerfetto:
    def test_thread_metadata_one_per_tile(self):
        doc = to_perfetto(_synthetic_tracer().events(), process_name="test")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names["process_name"] == "test"
        thread_names = sorted(
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        )
        assert thread_names == ["execution", "manager", "slave0", "slave1"]
        # execution gets the lowest tid: it is the headline timeline
        tids = {
            e["args"]["name"]: e["tid"] for e in meta if e["name"] == "thread_name"
        }
        assert tids["execution"] < tids["manager"] < tids["slave0"]

    def test_translate_pairs_become_complete_events(self):
        doc = to_perfetto(_synthetic_tracer().events())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 1
        (event,) = complete
        assert event["name"] == "translate 0x100"
        assert event["ts"] == 110
        assert event["dur"] == 290

    def test_unpaired_start_becomes_instant(self):
        doc = to_perfetto(_synthetic_tracer().events())
        leftovers = [
            e for e in doc["traceEvents"]
            if e["ph"] == "i" and e["name"] == "translate.start"
        ]
        assert len(leftovers) == 1
        assert leftovers[0]["ts"] == 600

    def test_specq_events_drive_counter_track(self):
        doc = to_perfetto(_synthetic_tracer().events())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [c["args"]["depth"] for c in counters] == [1, 0]
        assert all(c["name"] == "specq.depth" for c in counters)

    def test_synthetic_doc_validates_clean(self):
        doc = to_perfetto(_synthetic_tracer().events())
        assert validate_trace_events(doc) == []

    def test_empty_trace_still_validates(self):
        doc = to_perfetto([])
        assert validate_trace_events(doc) == []
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": "nope"}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
        problems = validate_trace_events(doc)
        assert any("unknown phase" in p for p in problems)

    def test_rejects_missing_ts(self):
        doc = {"traceEvents": [{"ph": "i", "name": "x", "pid": 1, "tid": 1}]}
        problems = validate_trace_events(doc)
        assert any("'ts'" in p for p in problems)

    def test_rejects_backwards_timestamps_per_thread(self):
        doc = {
            "traceEvents": [
                {"ph": "i", "s": "t", "name": "a", "pid": 1, "tid": 1, "ts": 100},
                {"ph": "i", "s": "t", "name": "b", "pid": 1, "tid": 2, "ts": 5},
                {"ph": "i", "s": "t", "name": "c", "pid": 1, "tid": 1, "ts": 50},
            ]
        }
        problems = validate_trace_events(doc)
        assert len(problems) == 1
        assert "goes backwards" in problems[0]

    def test_rejects_negative_duration(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 10, "dur": -1}
            ]
        }
        problems = validate_trace_events(doc)
        assert any("dur" in p for p in problems)

    def test_rejects_empty_counter_args(self):
        doc = {
            "traceEvents": [
                {"ph": "C", "name": "depth", "pid": 1, "tid": 1, "ts": 0, "args": {}}
            ]
        }
        problems = validate_trace_events(doc)
        assert any("non-empty args" in p for p in problems)

    def test_rejects_non_numeric_counter_args(self):
        for bad in ("fast", True, None):
            doc = {
                "traceEvents": [
                    {
                        "ph": "C", "name": "depth", "pid": 1, "tid": 1,
                        "ts": 0, "args": {"v": bad},
                    }
                ]
            }
            problems = validate_trace_events(doc)
            assert any("numeric" in p for p in problems), f"accepted {bad!r}"

    def test_rejects_prof_lane_without_thread_name(self):
        doc = {
            "traceEvents": [
                {
                    "ph": "C", "name": "prof.codegen", "pid": 2, "tid": 1,
                    "ts": 0, "args": {"ms": 1.5},
                }
            ]
        }
        problems = validate_trace_events(doc)
        assert any("thread_name" in p for p in problems)
        # the same lane with metadata is clean
        doc["traceEvents"].insert(
            0,
            {
                "ph": "M", "name": "thread_name", "pid": 2, "tid": 1,
                "args": {"name": "worker main"},
            },
        )
        assert validate_trace_events(doc) == []


def _profile_snapshot(pairs):
    return {
        "clock": "perf_counter_ns",
        "paths": {path: {"ns": ns, "calls": 1} for path, ns in pairs},
    }


class TestProfileLanes:
    def test_lanes_validate_and_carry_counters(self):
        doc = to_perfetto(_synthetic_tracer().events())
        add_profile_lanes(
            doc,
            {
                "12345": _profile_snapshot(
                    [("run", 9_000_000), ("run;interpreter", 5_000_000)]
                ),
                "aggregate": _profile_snapshot([("run", 20_000_000)]),
            },
        )
        assert validate_trace_events(doc) == []
        counters = [
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"].startswith("prof.")
        ]
        assert counters, "no prof.* counter events emitted"
        assert all(e["pid"] == 2 for e in counters)
        assert all(isinstance(e["args"]["ms"], float) for e in counters)

    def test_one_lane_per_worker_with_names(self):
        doc = to_perfetto([])
        add_profile_lanes(
            doc,
            {
                "100": _profile_snapshot([("run", 1_000_000)]),
                "200": _profile_snapshot([("run", 2_000_000)]),
                "parent": _profile_snapshot([("run", 3_000_000)]),
            },
        )
        meta = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 2
        ]
        assert sorted(e["args"]["name"] for e in meta) == [
            "worker 100", "worker 200", "worker parent",
        ]
        # lanes are disjoint tids under the profiler pid
        assert len({e["tid"] for e in meta}) == 3

    def test_leaf_totals_fold_across_parents(self):
        # the same leaf under two parents becomes one counter sample
        doc = to_perfetto([])
        add_profile_lanes(
            doc,
            {
                "w": _profile_snapshot(
                    [("run;interpreter;memsys", 1_000_000),
                     ("run;jit.run;memsys", 2_000_000)]
                )
            },
        )
        memsys = [
            e for e in doc["traceEvents"] if e.get("name") == "prof.memsys"
        ]
        assert len(memsys) == 1
        assert memsys[0]["args"]["ms"] == 3.0

    def test_profiler_process_does_not_disturb_tile_threads(self):
        # adding lanes to a real traced doc keeps it schema-clean and
        # leaves the simulated process untouched
        doc = to_perfetto(_synthetic_tracer().events())
        before = [e for e in doc["traceEvents"] if e.get("pid") == 1]
        add_profile_lanes(doc, {"w": _profile_snapshot([("run", 1_000)])})
        after = [e for e in doc["traceEvents"] if e.get("pid") == 1]
        assert before == after
        assert validate_trace_events(doc) == []

    def test_empty_profiles_add_only_process_metadata(self):
        doc = to_perfetto([])
        add_profile_lanes(doc, {})
        assert validate_trace_events(doc) == []
        added = [e for e in doc["traceEvents"] if e.get("pid") == 2]
        assert [e["ph"] for e in added] == ["M"]


def _traced_workload_doc():
    source = (DATA_DIR / "trace_workload.asm").read_text()
    program = assemble(source, name="trace_workload")
    tracer = Tracer()
    # jit pinned off: the golden is the reference interpreter's trace
    vm = TimingVM(program, PRESETS["speculative_4"], tracer=tracer, jit=False)
    result = vm.run()
    assert result.exit_code == 36  # the workload's checksum: run went as scripted
    return to_perfetto(
        tracer.events(),
        metadata={"workload": "trace_workload", "config": "speculative_4"},
    )


class TestGoldenExport:
    def test_small_workload_matches_golden(self, tmp_path):
        doc = _traced_workload_doc()
        assert validate_trace_events(doc) == []
        if os.environ.get("REGEN_GOLDEN"):
            write_trace(str(GOLDEN_PATH), doc)
        golden = json.loads(GOLDEN_PATH.read_text())
        # compare via a round-trip so both sides have pure-JSON types
        assert json.loads(json.dumps(doc, sort_keys=True)) == golden, (
            "Perfetto export changed; if intentional, regenerate with "
            "REGEN_GOLDEN=1 and review the golden diff"
        )
        # the golden on disk is exactly what write_trace produces
        out = tmp_path / "roundtrip.json"
        write_trace(str(out), doc)
        assert out.read_text() == GOLDEN_PATH.read_text()

    def test_golden_run_covers_headline_categories(self):
        doc = _traced_workload_doc()
        categories = {e.get("cat") for e in doc["traceEvents"]}
        for category in ("translate", "codecache", "specq", "net", "mem"):
            assert category in categories, f"golden run has no {category} events"

    def test_timestamps_monotone_per_tile_thread(self):
        doc = _traced_workload_doc()
        last = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, 0)
            last[key] = event["ts"]
