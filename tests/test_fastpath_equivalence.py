"""The timing VM's stepping path vs plain interpretation: exact equivalence.

Blocks the block JIT does not run (cold, ineligible, or every block with
``jit=False``) execute as ``count`` calls of ``GuestInterpreter.step``
(:func:`repro.vm.timing._step_block`).  That path must be
indistinguishable from running the interpreter on its own — identical
architectural state, instruction counts and exit codes — on the full
workload suite and on hand-built edge cases (mid-block exits, a taken
branch mid-block, an exited guest).
"""

import pytest

from repro.guest.assembler import assemble
from repro.guest.interpreter import GuestInterpreter
from repro.guest.isa import Register
from repro.morph.config import PRESETS
from repro.vm.timing import TimingVM, _step_block
from repro.workloads import SPECINT_NAMES, build_workload

SCALE = 0.05


@pytest.mark.parametrize("name", SPECINT_NAMES)
def test_workload_suite_equivalence(name):
    program = build_workload(name, scale=SCALE)
    stepwise = GuestInterpreter.for_program(program)
    stepwise.run()
    vm = TimingVM(program, PRESETS["speculative_4"], jit=False)
    result = vm.run()
    assert result.exit_code == stepwise.exit_code
    assert result.guest_instructions == stepwise.stats["instructions"]
    assert vm.interp.state.snapshot() == stepwise.state.snapshot()
    assert vm.interp.stats.as_dict() == stepwise.stats.as_dict()
    assert vm.interp.syscalls.output == stepwise.syscalls.output


def test_jit_off_runs_every_instruction_through_step(monkeypatch):
    """With the JIT off, the golden interpreter's ``step`` executes
    every guest instruction: no other execution path is left."""
    calls = []
    step = GuestInterpreter.step

    def counting_step(interp):
        calls.append(None)
        return step(interp)

    monkeypatch.setattr(GuestInterpreter, "step", counting_step)
    program = build_workload("164.gzip", scale=SCALE)
    result = TimingVM(program, PRESETS["morph_threshold_5"], jit=False).run()
    assert result.reconfigurations > 0
    assert len(calls) == result.guest_instructions > 0


def test_taken_branch_mid_block_follows_eip():
    """A taken branch mid-block must not execute the straight-line
    tail: the stepping path follows EIP exactly like step() does."""
    source = """
        mov eax, 0
        cmp eax, 0
        je  done
        mov eax, 111
        mov eax, 222
    done:
        mov ebx, 7
        mov eax, 1
        int 0x80
    """
    program = assemble(source)
    blockwise = GuestInterpreter.for_program(program)
    # one oversized "block": its straight line is the not-taken path,
    # but execution branches away after 3 instructions
    assert _step_block(blockwise, 8) == 6
    stepwise = GuestInterpreter.for_program(program)
    while stepwise.exit_code is None:
        stepwise.step()
    assert blockwise.exit_code == stepwise.exit_code == 7
    assert blockwise.state.snapshot() == stepwise.state.snapshot()
    assert blockwise.stats.as_dict() == stepwise.stats.as_dict()


def test_mid_block_exit_counts_exiting_instruction():
    source = """
        mov ecx, 5
        mov ebx, 3
        mov eax, 1
        int 0x80
        mov ecx, 9
    """
    program = assemble(source)
    interp = GuestInterpreter.for_program(program)
    executed = _step_block(interp, 5)
    assert interp.exit_code == 3
    assert executed == 4  # the INT executes and counts; the tail doesn't
    assert interp.stats["instructions"] == 4
    assert interp.state.regs[Register.ECX] == 5  # the tail's mov never ran


def test_exited_interpreter_executes_nothing():
    program = assemble("mov ebx, 0\n mov eax, 1\n int 0x80")
    vm = TimingVM(program, PRESETS["speculative_4"], jit=False)
    finished = vm.run()
    assert vm.finished
    state = vm.interp.state.snapshot()
    assert vm.step() is False
    assert vm.run() == finished
    assert vm.interp.state.snapshot() == state
    assert vm.interp.stats["instructions"] == finished.guest_instructions == 3
