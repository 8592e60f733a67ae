"""Event tracing: ordering, ring-buffer overflow, and the null sink."""

import dataclasses
import functools
from pathlib import Path

import pytest

from repro.dbt.transcache import TranslationCache
from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs.events import NULL_TRACER, NullTracer, TraceEvent, Tracer, events_by_tile
from repro.vm.timing import TimingVM
from repro.workloads import build_workload

DATA_DIR = Path(__file__).parent / "data"

#: Every distinct preset Figs. 4, 5, 8 and 9 use.
FIGURE_CONFIGS = [
    "no_l15", "l15_64k", "l15_128k",
    "conservative_1", "speculative_1", "speculative_2", "speculative_4",
    "speculative_6", "speculative_9",
    "morph_noopt", "morph_opt",
    "static_1mem_9trans", "static_4mem_6trans", "morph_threshold_15",
    "morph_threshold_0", "morph_threshold_5",
]


def _trace_program():
    source = (DATA_DIR / "trace_workload.asm").read_text()
    return assemble(source, name="trace_workload")


@functools.lru_cache(maxsize=None)
def _gzip_program():
    return build_workload("164.gzip", scale=0.05)


#: Shared by the traced/untraced comparisons only to save translation
#: time; cached translations are bit-identical to fresh ones.
_TRANSLATIONS = TranslationCache()


class TestTracer:
    def test_events_keep_emission_order(self):
        tracer = Tracer(capacity=16)
        tracer.emit(5, "specq", "enqueue", "manager", pc=0x100)
        tracer.emit(3, "translate", "start", "slave0", pc=0x100)
        tracer.emit(9, "translate", "end", "slave0", pc=0x100)
        assert [e.cycle for e in tracer.events()] == [5, 3, 9]
        assert [e.name for e in tracer.events()] == ["enqueue", "start", "end"]

    def test_ring_buffer_overflow_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for cycle in range(7):
            tracer.emit(cycle, "vm", "tick", "execution", n=cycle)
        assert len(tracer) == 3
        assert tracer.emitted == 7
        assert tracer.dropped == 4
        assert [e.cycle for e in tracer.events()] == [4, 5, 6]

    def test_event_payload_and_dict(self):
        tracer = Tracer()
        tracer.emit(42, "codecache", "miss", "execution", level="l1", pc=0x8048000)
        (event,) = tracer.events()
        assert isinstance(event, TraceEvent)
        assert event.args == {"level": "l1", "pc": 0x8048000}
        as_dict = event.as_dict()
        assert as_dict["cycle"] == 42
        assert as_dict["category"] == "codecache"
        assert as_dict["args"]["level"] == "l1"

    def test_counts_and_tiles(self):
        tracer = Tracer()
        tracer.emit(1, "net", "msg", "execution")
        tracer.emit(2, "net", "msg", "mmu")
        tracer.emit(3, "mem", "tlb_miss", "mmu")
        assert tracer.counts_by_category() == {"mem": 1, "net": 2}
        assert tracer.tiles() == ["execution", "mmu"]

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=2)
        for cycle in range(5):
            tracer.emit(cycle, "vm", "tick", "execution")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_events_by_tile_sorts_within_tile(self):
        tracer = Tracer()
        tracer.emit(9, "vm", "b", "execution")
        tracer.emit(4, "vm", "a", "execution")
        tracer.emit(7, "vm", "c", "manager")
        groups = events_by_tile(tracer.events())
        assert [e.cycle for e in groups["execution"]] == [4, 9]
        assert [e.cycle for e in groups["manager"]] == [7]

    def test_rejects_nonpositive_capacity(self):
        try:
            Tracer(capacity=0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestNullSink:
    def test_null_tracer_is_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(1, "vm", "tick", "execution", anything=True)
        assert NULL_TRACER.events() == []
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.dropped == 0
        assert isinstance(NULL_TRACER, NullTracer)

    def test_untraced_run_adds_no_events(self):
        """With tracing off (the default) the whole run emits nothing."""
        vm = TimingVM(_trace_program(), PRESETS["speculative_4"])
        assert vm.tracer is NULL_TRACER
        result = vm.run()
        assert result.exit_code == 36
        assert vm.tracer.events() == []
        assert NULL_TRACER.emitted == 0
        # every subsystem shares the same null sink
        assert vm.subsystem.tracer is NULL_TRACER
        assert vm.hierarchy.tracer is NULL_TRACER
        assert vm.memsys.tracer is NULL_TRACER
        assert vm.network.tracer is NULL_TRACER

    def test_traced_and_untraced_runs_agree_on_timing(self):
        """Tracing is observational: it must not change simulated time."""
        untraced = TimingVM(_trace_program(), PRESETS["speculative_4"]).run()
        vm = TimingVM(_trace_program(), PRESETS["speculative_4"], tracer=Tracer())
        traced = vm.run()
        assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)
        assert len(vm.tracer) > 0

    @pytest.mark.parametrize("config", FIGURE_CONFIGS)
    def test_tracing_keeps_every_figure_result(self, config):
        """Tracing only adds events: the code-cache hierarchy prices its
        messages the same way with and without a tracer.  gzip overflows
        L1 into the L1.5 banks, so L1, L1.5 and L2 fetches are compared
        on every figure preset, with the whole result (stats and metrics
        included)."""
        program = _gzip_program()
        shared = dict(translation_cache=_TRANSLATIONS, program_key="gzip")
        untraced = TimingVM(program, PRESETS[config], **shared).run()
        vm = TimingVM(program, PRESETS[config], tracer=Tracer(), **shared)
        traced = vm.run()
        assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)
        assert len(vm.tracer) > 0


class TestTracedRun:
    def test_expected_categories_present(self):
        vm = TimingVM(_trace_program(), PRESETS["speculative_4"], tracer=Tracer())
        vm.run()
        counts = vm.tracer.counts_by_category()
        for category in ("translate", "codecache", "specq", "net", "mem"):
            assert counts.get(category, 0) > 0, f"no {category} events"

    def test_translate_events_carry_slave_tile(self):
        vm = TimingVM(_trace_program(), PRESETS["speculative_4"], tracer=Tracer())
        vm.run()
        translate_tiles = {
            e.tile for e in vm.tracer.events() if e.category == "translate"
        }
        assert translate_tiles
        assert all(tile.startswith("slave") for tile in translate_tiles)

    def test_specq_events_carry_queue_depth(self):
        vm = TimingVM(_trace_program(), PRESETS["speculative_4"], tracer=Tracer())
        vm.run()
        specq = [e for e in vm.tracer.events() if e.category == "specq"]
        assert specq
        assert all("qlen" in (e.args or {}) for e in specq)
        assert all((e.args or {}).get("qlen", -1) >= 0 for e in specq)

    def test_morphing_run_emits_reconfig(self):
        vm = TimingVM(_trace_program(), PRESETS["morph_threshold_5"], tracer=Tracer())
        vm.run()
        morph = [e for e in vm.tracer.events() if e.category == "morph"]
        assert morph, "morphing run should emit at least the initial reconfig"
        first = morph[0]
        assert first.name == "reconfig"
        assert first.args["old"] == "(initial)"
        assert first.args["new_translators"] == 9
