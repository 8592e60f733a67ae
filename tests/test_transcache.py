"""Cross-run translation reuse: exactness, namespacing and SMC safety.

A :class:`~repro.dbt.transcache.CachingTranslator` hit must be
observationally identical to a fresh translation — same block fields,
same translator stats — and cached blocks must never survive writes to
the executable section (the generation key) or leak between translator
configurations (the knobs namespace).
"""

import pickle

import pytest

from repro.dbt.predictor import Prediction
from repro.dbt.transcache import (
    LIVE_ONLY,
    CachingTranslator,
    TranslationCache,
    translator_knobs,
)
from repro.dbt.translator import TranslationConfig, Translator
from repro.guest.assembler import assemble
from repro.guest.memory import GuestMemory
from repro.host.isa import HostInstr, HostOp, HostReg
from repro.harness import runner
from repro.morph.config import PRESETS
from repro.vm.timing import ExecutionRecord, TimingVM, run_timing
from repro.workloads import build_workload

from tests.test_self_modifying_code import SMC_PROGRAM, _expected_exit

PROGRAM_SOURCE = """
_start:
    mov ecx, 5
    mov eax, 0
loop:
    add eax, ecx
    sub ecx, 1
    cmp ecx, 0
    jne loop
    mov ebx, eax
    mov eax, 1
    int 0x80
"""


def _reader(program):
    """A code reader with the same semantics as ``TimingVM._read_code``."""
    memory = GuestMemory()
    program.load(memory)
    return memory.read_bytes


def _fields(block):
    return (
        block.guest_address, block.guest_length, block.guest_instr_count,
        block.instrs, block.exit_stubs, block.call_return_address,
        block.exit_kind, block.cost_cycles, block.translation_cycles,
        block.optimized, block.host_address,
    )


class TestCachingTranslator:
    def test_hit_is_field_identical_and_distinct_object(self):
        program = assemble(PROGRAM_SOURCE)
        cache = TranslationCache()
        caching = CachingTranslator(
            _reader(program), TranslationConfig(), cache, "prog", lambda: 0
        )
        first = caching.translate(program.entry)
        again = caching.translate(program.entry)
        assert again is not first
        assert _fields(again) == _fields(first)
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_hit_replays_exact_stats(self):
        program = assemble(PROGRAM_SOURCE)
        plain = Translator(_reader(program), TranslationConfig())
        plain.translate(program.entry)

        cache = TranslationCache()
        caching = CachingTranslator(
            _reader(program), TranslationConfig(), cache, "prog", lambda: 0
        )
        caching.translate(program.entry)  # miss
        miss_stats = dict(caching.stats.as_dict())
        assert miss_stats == plain.stats.as_dict()
        caching.translate(program.entry)  # hit
        assert caching.stats.as_dict() == {
            key: 2 * value for key, value in miss_stats.items()
        }

    def test_generation_bump_forces_retranslation(self):
        program = assemble(PROGRAM_SOURCE)
        cache = TranslationCache()
        generation = [0]
        caching = CachingTranslator(
            _reader(program), TranslationConfig(), cache, "prog",
            lambda: generation[0],
        )
        caching.translate(program.entry)
        generation[0] += 1
        caching.translate(program.entry)
        assert cache.stats() == {
            "hits": 0, "misses": 2, "namespaces": 1, "blocks": 2,
            "jit_blocks": 0, "records": 0,
        }

    def test_knobs_separate_namespaces(self):
        assert translator_knobs(TranslationConfig()) != translator_knobs(
            TranslationConfig(optimize=False)
        )
        program = assemble(PROGRAM_SOURCE)
        cache = TranslationCache()
        opt = CachingTranslator(
            _reader(program), TranslationConfig(), cache, "prog", lambda: 0
        )
        noopt = CachingTranslator(
            _reader(program), TranslationConfig(optimize=False), cache,
            "prog", lambda: 0,
        )
        optimized = opt.translate(program.entry)
        unoptimized = noopt.translate(program.entry)
        assert cache.stats()["hits"] == 0 and cache.stats()["namespaces"] == 2
        assert optimized.optimized and not unoptimized.optimized


class TestTimingVmIntegration:
    @pytest.mark.parametrize("config_name", ["conservative_1", "speculative_4"])
    def test_cached_run_bit_identical_to_fresh(self, config_name):
        """Second run of a (workload, config) pair is served from the
        translation cache and must match a cache-free run exactly."""
        cache = TranslationCache()
        program = build_workload("181.mcf", scale=0.05)
        cached_runs = [
            run_timing(program, PRESETS[config_name],
                       translation_cache=cache, program_key="181.mcf@0.05")
            for _ in range(2)
        ]
        assert cache.stats()["hits"] > 0
        fresh = run_timing(program, PRESETS[config_name])
        for cached in cached_runs:
            assert cached.cycles == fresh.cycles
            assert cached.piii_cycles == fresh.piii_cycles
            assert cached.guest_instructions == fresh.guest_instructions
            assert cached.blocks_translated == fresh.blocks_translated
            assert cached.stats == fresh.stats

    def test_reuse_across_configs_bit_identical(self):
        """Config columns share translations; every cell still matches
        its cache-free twin."""
        cache = TranslationCache()
        program = build_workload("164.gzip", scale=0.05)
        for name in ["conservative_1", "speculative_4", "no_l15"]:
            cached = run_timing(program, PRESETS[name],
                                translation_cache=cache, program_key="gz")
            fresh = run_timing(program, PRESETS[name])
            assert (cached.cycles, cached.piii_cycles, cached.stats) == (
                fresh.cycles, fresh.piii_cycles, fresh.stats
            )
        assert cache.stats()["hits"] > 0

    def test_self_modifying_code_never_served_stale(self):
        """The generation key retires translations the moment the guest
        writes its own text section — across repeated cached runs."""
        program = assemble(SMC_PROGRAM)
        cache = TranslationCache()
        for _ in range(3):
            result = run_timing(program, PRESETS["speculative_4"],
                                translation_cache=cache, program_key="smc")
            assert result.exit_code == _expected_exit()
        fresh = run_timing(program, PRESETS["speculative_4"])
        assert result.stats == fresh.stats and result.cycles == fresh.cycles


class TestHarnessReuse:
    @pytest.fixture(autouse=True)
    def _isolated(self):
        runner.clear_cache()
        runner.configure_disk_cache(enabled=False)
        yield
        runner.clear_cache()
        runner.configure_disk_cache(enabled=False)

    def test_program_memo_and_translation_reuse(self):
        before = runner.cache_stats()["translations"]["hits"]
        first = runner.run_one("181.mcf", "conservative_1", 0.05)
        second = runner.run_one("181.mcf", "speculative_4", 0.05)
        stats = runner.cache_stats()
        assert stats["programs"] == 1
        assert stats["translations"]["hits"] > before
        fresh_program = build_workload("181.mcf", scale=0.05)
        for config, cell in (("conservative_1", first), ("speculative_4", second)):
            fresh = run_timing(fresh_program, PRESETS[config])
            assert (cell.cycles, cell.stats) == (fresh.cycles, fresh.stats)


def _round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestRowState:
    """A program's translated namespaces and execution records leave a
    cache through :meth:`TranslationCache.row_state` and re-enter
    another through :meth:`TranslationCache.adopt_row`, pickled in
    between (the harness's row packs)."""

    def test_value_types_pickle(self):
        instr = HostInstr(HostOp.ADDIU, rt=HostReg.V0, rs=HostReg.SP, imm=-4)
        assert _round_trip(instr) == instr
        prediction = Prediction(0x1000, 1)
        assert _round_trip(prediction) == prediction
        record = ExecutionRecord(exit_code=3, instructions=7, piii_stall_cycles=11)
        record.block_pcs.append(0x8048000)
        record.access_sizes.append(-4)
        record.access_misses.append(0)
        copy = _round_trip(record)
        assert copy == record
        assert copy.access_misses.tolist() == [0]

    def test_translated_namespace_and_record_round_trip(self):
        cache = TranslationCache()
        program = build_workload("181.mcf", scale=0.05)
        vm = TimingVM(program, PRESETS["speculative_4"],
                      translation_cache=cache, program_key="mcf")
        first = vm.run()
        assert vm.execution_mode == "recorded"
        state = cache.row_state("mcf")
        (blocks,) = state["spaces"].values()
        (record,) = state["records"].values()
        assert blocks and isinstance(record, ExecutionRecord)
        copy = _round_trip(state)
        assert copy["records"] == state["records"]
        (copied,) = copy["spaces"].values()
        assert copied.keys() == blocks.keys()
        for key, block in blocks.items():
            twin = copied[key]
            assert twin is not block and twin == block  # every field
            # the sealed facts, and what a fetch derives from them
            assert (twin.host_words, twin.transfer_cycles, twin.chain_targets,
                    twin.predictions) == (block.host_words, block.transfer_cycles,
                                          block.chain_targets, block.predictions)
            assert all(isinstance(p, Prediction) for p in twin.predictions)
        assert any(block.predictions for block in copied.values())

        # a fresh cache that adopts the copy replays without translating
        adopter = TranslationCache()
        adopter.adopt_row("mcf", copy)
        vm = TimingVM(program, PRESETS["no_l15"],
                      translation_cache=adopter, program_key="mcf")
        replayed = vm.run()
        assert vm.execution_mode == "replayed" and adopter.misses == 0
        fresh = run_timing(program, PRESETS["no_l15"])
        assert (replayed.cycles, replayed.stats) == (fresh.cycles, fresh.stats)
        assert first.guest_instructions == replayed.guest_instructions

    def test_row_state_is_per_program(self):
        cache = TranslationCache()
        cache.space(("a", (True,)))[(0, 16)] = "block a"
        cache.space(("b", (True,)))[(0, 16)] = "block b"
        cache.store_execution_record(("a", b""), "record a")
        assert cache.row_state("a") == {
            "spaces": {(True,): {(0, 16): "block a"}},
            "records": {b"": "record a"},
        }
        assert cache.row_state("c") == {"spaces": {}, "records": {}}

    def test_adopt_row_keeps_present_entries_and_live_only_identity(self):
        cache = TranslationCache()
        cache.space(("a", (True,)))[(0, 16)] = "mine"
        cache.adopt_row("a", _round_trip({
            "spaces": {(True,): {(0, 16): "theirs", (0, 32): "new"}},
            "records": {b"": LIVE_ONLY},
        }))
        assert cache.space(("a", (True,))) == {(0, 16): "mine", (0, 32): "new"}
        # timing tests the live-only marker by identity
        assert cache.execution_record(("a", b"")) is LIVE_ONLY
