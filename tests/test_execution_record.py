"""Record once, replay per config (``repro.vm.timing``).

Replay rests on one claim: a program's guest execution — the blocks it
runs, the instructions each retires, its data-access stream and which
of those accesses miss the L1 data cache — does not depend on the
:class:`VirtualArchConfig`.  The first tests check that claim on every
program under every preset, with a fresh VM and no shared cache per
config; if a future preset breaks it, the record key
(``(program_key, stdin)``) must gain the knob that did.  The rest check
that a replayed run is bit-identical to a live one whichever preset
recorded it, that the runs replay cannot reproduce stay live, and that
a record which disagrees with the VM raises instead of returning a
result.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.dbt.transcache import LIVE_ONLY, TranslationCache
from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs.events import Tracer
from repro.vm.timing import ReplayError, TimingVM, _RecordingObserver
from repro.workloads import SPECINT_NAMES, build_workload
from tests.test_morph_smc_stress import SEED, _stress_source
from tests.test_self_modifying_code import SMC_PROGRAM

SCALE = 0.05

#: Calls code placed in ``.data`` and patches it three times.  The
#: stores miss the text section but write translated code, so they
#: count as code writes: the program stays live and its cached
#: re-translations are fresh.  The patch keeps the instruction's
#: length and cost.
DATA_SMC_PROGRAM = """
_start:
    mov ecx, 3
    mov edi, 0
again:
    call dtarget
    add edi, eax
    movb [dtarget + 2], 77
    sub ecx, 1
    jnz again
    mov ebx, edi          ; 11 + 77 + 77
    mov eax, 1
    int 0x80
    hlt
.data
dtarget:
    mov eax, 11
    ret
"""

#: :data:`DATA_SMC_PROGRAM` patching the opcode instead: the patched
#: block is a ``ret``, so a stale cached translation shows in the cycles.
DATA_SMC_OPCODE_PROGRAM = DATA_SMC_PROGRAM.replace(
    "movb [dtarget + 2], 77", "movb [dtarget], 0xC3")

#: The exit code of each program that writes translated code outside
#: its text section.
DATA_SMC_EXITS = {"data-smc": 165, "data-smc-opcode": 33}

#: Programs that write translated code: never replayed.
SMC_PROGRAMS = ["smc", "morph-smc-stress"] + list(DATA_SMC_EXITS)

PROGRAMS = SPECINT_NAMES + SMC_PROGRAMS


@functools.lru_cache(maxsize=None)
def _program(name):
    if name == "smc":
        return assemble(SMC_PROGRAM)
    if name == "morph-smc-stress":
        return assemble(_stress_source(SEED))
    if name == "data-smc":
        return assemble(DATA_SMC_PROGRAM)
    if name == "data-smc-opcode":
        return assemble(DATA_SMC_OPCODE_PROGRAM)
    return build_workload(name, scale=SCALE)


def _digest(result) -> str:
    # unsorted: a replay must also report its stats in the order live does
    text = json.dumps(dataclasses.asdict(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _stream_digest(record) -> str:
    """The ``(pc, count, executed)`` + access stream, its L1 data misses
    and outcome of a record."""
    sha = hashlib.sha256()
    for column in (record.block_pcs, record.block_counts, record.block_executed,
                   record.block_access_ends, record.access_addresses,
                   record.access_sizes, record.access_misses):
        sha.update(column.tobytes())
        sha.update(b"|")
    sha.update(repr((record.exit_code, record.instructions,
                     record.piii_stall_cycles)).encode())
    return sha.hexdigest()


def _recorded_live(program, config):
    """A live run with no translation cache, and the guest's record of it."""
    vm = TimingVM(program, config)
    recorder = _RecordingObserver(vm)
    vm.interp.observer = recorder
    vm._dispatch(10_000_000, fetch=recorder.fetch)
    return vm.result(), recorder.finish(vm.interp.exit_code)


@functools.lru_cache(maxsize=None)
def _live(name):
    """``{preset: (result digest, stream digest)}``, one fresh VM each."""
    out = {}
    for preset, config in PRESETS.items():
        result, record = _recorded_live(_program(name), config)
        out[preset] = (_digest(result), _stream_digest(record))
    return out


def _shared_vm(name, cache, preset="speculative_4", **kwargs):
    return TimingVM(_program(name), PRESETS[preset], translation_cache=cache,
                    program_key=name, **kwargs)


@pytest.mark.parametrize("name", PROGRAMS)
def test_guest_execution_is_config_independent(name):
    live = _live(name)
    streams = {preset: stream for preset, (_, stream) in live.items()}
    assert len(set(streams.values())) == 1, streams


@pytest.mark.parametrize("name", PROGRAMS)
def test_replay_matches_live(name):
    live = _live(name)
    cache = TranslationCache()
    modes = []
    for preset in PRESETS:
        vm = _shared_vm(name, cache, preset)
        assert _digest(vm.run()) == live[preset][0], preset
        modes.append(vm.execution_mode)
        if name in DATA_SMC_EXITS:
            assert vm.interp.exit_code == DATA_SMC_EXITS[name]
            assert vm.stats["smc_invalidations"] == 3
    if name in SMC_PROGRAMS:
        assert modes == ["live_only"] * len(modes)
        assert cache.execution_record((name, b"")) is LIVE_ONLY
        assert cache.stats()["records"] == 0
    else:
        assert modes == ["recorded"] + ["replayed"] * (len(modes) - 1)
        assert cache.stats()["records"] == 1


@pytest.mark.parametrize("name", ["181.mcf", "176.gcc"])
@pytest.mark.parametrize("recording", ["morph_noopt", "hw_full"])
def test_replay_matches_live_whichever_preset_recorded(name, recording):
    # the recording preset has other translator knobs and another L1
    # code capacity than most replays: each replay reads its L1 code
    # outcomes from its own L1, not from the recording run
    live = _live(name)
    cache = TranslationCache()
    vm = _shared_vm(name, cache, recording)
    assert _digest(vm.run()) == live[recording][0]
    assert vm.execution_mode == "recorded"
    flushes = patches = 0
    for preset in PRESETS:
        if preset == recording:
            continue
        vm = _shared_vm(name, cache, preset)
        result = vm.run()
        assert vm.execution_mode == "replayed", preset
        assert _digest(result) == live[preset][0], preset
        flushes = max(flushes, result.stats.get("code.l1_flushes", 0))
        patches = max(patches, result.stats.get("code.chain_patches", 0))
    # the hit path ran across flushes and patched chains
    assert flushes and patches


def test_budget_overrun_raises_like_live():
    cache = TranslationCache()
    _shared_vm("181.mcf", cache).run()
    replayable = _shared_vm("181.mcf", cache)
    with pytest.raises(RuntimeError) as replayed:
        replayable.run(max_guest_instructions=500)
    with pytest.raises(RuntimeError) as live:
        TimingVM(_program("181.mcf"), PRESETS["speculative_4"]).run(
            max_guest_instructions=500)
    assert str(replayed.value) == str(live.value) == "workload exceeded 500 guest instructions"
    # it stopped where a live run stops, and can resume like one
    assert replayable.result().guest_instructions < 600
    assert _digest(replayable.run()) == _live("181.mcf")["speculative_4"][0]


def test_stepped_vm_stays_live():
    cache = TranslationCache()
    _shared_vm("181.mcf", cache).run()
    vm = _shared_vm("181.mcf", cache)
    for _ in range(5):
        vm.step()
    result = vm.run()
    assert vm.execution_mode == "live"
    assert _digest(result) == _live("181.mcf")["speculative_4"][0]


def test_traced_and_checked_runs_stay_live():
    cache = TranslationCache()
    _shared_vm("181.mcf", cache).run()
    traced = _shared_vm("181.mcf", cache, tracer=Tracer())
    checked = _shared_vm("181.mcf", cache, checked="protocol")
    for vm in (traced, checked):
        vm.run()
        assert vm.execution_mode == "live"
    assert len(traced.tracer) > 0


def test_stdin_is_part_of_the_key():
    cache = TranslationCache()
    _shared_vm("181.mcf", cache).run()
    other = _shared_vm("181.mcf", cache, stdin=b"x")
    other.run()
    assert other.execution_mode == "recorded"
    assert cache.stats()["records"] == 2
    cache.clear()
    assert cache.stats()["records"] == 0


@pytest.mark.parametrize("tamper", ["count", "executed", "truncated", "misses"])
def test_tampered_record_raises(tamper):
    cache = TranslationCache()
    _shared_vm("181.mcf", cache).run()
    record = cache.execution_record(("181.mcf", b""))
    if tamper == "count":
        record.block_counts[3] += 1
    elif tamper == "executed":
        record.block_executed[3] += 1
    elif tamper == "misses":
        record.access_misses[-1] = len(record.access_sizes) + 5
    else:
        for column in (record.block_pcs, record.block_counts, record.block_executed,
                       record.block_access_ends):
            column.pop()
    with pytest.raises(ReplayError):
        _shared_vm("181.mcf", cache).run()
