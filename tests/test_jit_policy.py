"""The block JIT's hotness policy: compile only the blocks that pay.

A block is compiled on its :data:`BREAK_EVEN`-th sighting, the
ski-rental point where the stepping it has already cost equals the
compile it would buy (derived in :mod:`repro.guest.blockjit`).  The
loop programs here are generated with a chosen trip count, so every
body block is sighted exactly that many times; they run with the
default threshold (no ``eager_jit``).
"""

import dataclasses

import pytest

from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs import prof
from repro.vm.timing import TimingVM, run_timing

#: The sighting on which a block compiles.
BREAK_EVEN = 22

#: Body blocks of :func:`_loop_program`, each its own dispatched block.
BODY = ("head", "mid", "tail")


def _loop_program(trips: int):
    """A three-block counted loop whose body blocks each run ``trips``
    times; the entry and exit blocks run once."""
    return assemble(f"""
_start:
    mov ecx, {trips}
    mov ebx, 7
    jmp head
head:
    add ebx, ecx
    jmp mid
mid:
    xor ebx, 0x5A
    shl ebx, 1
    jmp tail
tail:
    sub ecx, 1
    jnz head
    mov eax, 1
    and ebx, 255
    int 0x80
""")


def _run(program):
    """Run ``program`` with the JIT on and the phase profiler recording;
    returns the VM and its ``jit.run`` call count."""
    profiler = prof.PhaseProfiler()
    previous = prof.set_profiler(profiler)
    try:
        vm = TimingVM(program, PRESETS["speculative_4"], jit=True)
        result = vm.run()
    finally:
        prof.set_profiler(previous)
    off = run_timing(program, PRESETS["speculative_4"], jit=False)
    assert dataclasses.asdict(result) == dataclasses.asdict(off)
    calls = prof.phase_totals(profiler.snapshot()).get("jit.run", {}).get("calls", 0)
    return vm, calls


@pytest.mark.parametrize("trips", (1, 4, BREAK_EVEN - 1))
def test_blocks_seen_fewer_times_are_never_compiled(trips):
    vm, calls = _run(_loop_program(trips))
    assert vm.jit_metrics["compiles"] == vm.jit_metrics["ineligible"] == 0
    assert calls == 0
    assert not any(entry.block is not None for entry in vm.jit.table.values())
    symbols = vm.program.symbols
    assert [vm.jit.table[symbols[name]].seen for name in BODY] == [trips] * 3


@pytest.mark.parametrize("trips", (BREAK_EVEN, 3 * BREAK_EVEN))
def test_loop_body_compiles_once_on_its_threshold_sighting(trips):
    vm, calls = _run(_loop_program(trips))
    symbols = vm.program.symbols
    body = [vm.jit.table[symbols[name]] for name in BODY]
    # each body block compiled exactly once, counting no sighting past
    # the one that compiled it; the cold entry and exit blocks did not
    assert vm.jit_metrics["compiles"] == len(BODY)
    assert all(entry.block for entry in body)
    assert [entry.seen for entry in body] == [BREAK_EVEN] * 3
    # the compiling sighting already runs the closure: BREAK_EVEN - 1
    # stepped sightings per block, the rest compiled
    assert calls == len(BODY) * (trips - BREAK_EVEN + 1)
