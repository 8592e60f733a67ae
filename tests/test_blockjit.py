"""Block JIT: compiled closures must be indistinguishable from the
interpreter.

The contract (see ``repro.guest.blockjit``): for any block the compiler
accepts, executing the closure leaves *identical* architectural state,
memory, observed data accesses, instruction count and fault behaviour
to interpreting the same instructions.  These tests drive that contract with the same seeded
random block generator the symbolic-equivalence layer uses, plus
targeted unit tests for the engine (thresholds, ineligibility,
self-modifying-code invalidation), most of which drive it through the
timing VM's dispatch loop, its one caller.
"""

import pytest

from tests import blockgen
from repro.dbt.frontend import scan_block
from repro.guest import blockjit
from repro.guest.assembler import assemble
from repro.guest.blockjit import (
    BlockEntry,
    BlockJit,
    Ineligible,
    block_instructions,
    compile_block,
)
from repro.guest.flags import condition_expr, evaluate_condition
from repro.guest.interpreter import GuestInterpreter
from repro.guest.isa import ALL_FLAGS, ConditionCode, Op, Register
from repro.guest.memory import MemoryFault
from repro.morph.config import PRESETS
from repro.verify.symexec.concrete import make_vector
from repro.vm.timing import TimingVM

_FLAG_NAMES = tuple(flag.name.lower() for flag in ALL_FLAGS)

#: The engine tests count compiles and closure runs of short loops:
#: compile eagerly (see ``tests/conftest.py``); a test that sets its own
#: threshold overrides this.
pytestmark = pytest.mark.usefixtures("eager_jit")


def _seeded(program, env):
    interp = GuestInterpreter.for_program(program, observer=blockgen.AccessRecorder())
    for reg in Register:
        if reg is not Register.ESP:
            interp.state.regs[reg] = env[reg.name.lower()]
    interp.state.flags = 0
    for flag in ALL_FLAGS:
        interp.state.flags |= env[flag.name.lower()] << int(flag)
    return interp


def _vm(program):
    """A timing VM for ``program`` with the block JIT on."""
    return TimingVM(program, PRESETS["speculative_4"], jit=True)


def _run_vm(program):
    """Run ``program`` to completion on :func:`_vm`; returns the VM."""
    vm = _vm(program)
    vm.run()
    return vm


def _compiled(jit):
    """``(pc, count)`` of every table row holding a compiled block."""
    return [(pc, entry.count) for pc, entry in jit.table.items() if entry.block]


def _body_steps(program):
    from repro.guest.memory import GuestMemory

    memory = GuestMemory()
    program.load(memory)
    guest = scan_block(memory.read_bytes, program.entry)
    steps = len(guest.instructions)
    if guest.instructions[-1].op in (Op.INT, Op.HLT):
        steps -= 1
    return steps


class TestConditionExprs:
    def test_expr_agrees_with_evaluate_condition_exhaustively(self):
        # every condition code x every combination of the five flags
        for cc in ConditionCode:
            expr = condition_expr(cc)
            for bits in range(32):
                fl = 0
                for index, flag in enumerate(ALL_FLAGS):
                    if bits >> index & 1:
                        fl |= 1 << int(flag)
                got = bool(eval(expr, {"fl": fl}))
                want = evaluate_condition(cc, fl)
                assert got == want, f"{cc.name} flags={fl:#06x}"


class TestCompiledBlockDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_compiled_blocks_match_interpreter(self, seed):
        source = blockgen.random_program(seed + 900, length=10)
        program = assemble(source)
        steps = _body_steps(program)
        if steps == 0:
            pytest.skip("degenerate block")
        buf = program.symbols["buf"]
        names = [reg.name.lower() for reg in Register] + list(_FLAG_NAMES)
        ones = {name: 1 for name in _FLAG_NAMES}
        interp = GuestInterpreter.for_program(program)
        try:
            block = compile_block(
                block_instructions(interp, program.entry, steps), program.entry, steps
            )
        except Ineligible:
            pytest.skip("ineligible block")
        for k in range(3):
            env = make_vector(seed * 131 + k, names, ones)
            stepping = _seeded(program, env)
            jitted = _seeded(program, env)

            for _ in range(steps):
                stepping.step()
            assert block.fn(jitted) == steps

            where = f"seed {seed} vector {k}"
            assert jitted.state.snapshot() == stepping.state.snapshot(), (
                f"{where}: state diverged\n{source}"
            )
            assert jitted.memory.read_bytes(buf, blockgen.BUF_BYTES) == (
                stepping.memory.read_bytes(buf, blockgen.BUF_BYTES)
            ), f"{where}: buffer diverged\n{source}"
            assert jitted.observer.log == stepping.observer.log, (
                f"{where}: data accesses diverged\n{source}"
            )
            assert jitted.stats.as_dict() == stepping.stats.as_dict(), (
                f"{where}: instruction count diverged\n{source}"
            )

    def test_syscall_memory_fault_counts_like_step(self):
        # write(1, 16, 4): the syscall proxy reads an unmapped buffer
        # and its raw MemoryFault escapes step() after the INT counted
        program = assemble(
            "_start:\n    mov ebx, 1\n    mov ecx, 16\n    mov edx, 4\n"
            "    mov eax, 4\n    int 0x80\n    hlt\n"
        )
        stepping = GuestInterpreter.for_program(program)
        with pytest.raises(MemoryFault):
            for _ in range(5):
                stepping.step()
        jitted = GuestInterpreter.for_program(program)
        block = compile_block(block_instructions(jitted, program.entry, 5), program.entry, 5)
        with pytest.raises(MemoryFault):
            block.fn(jitted)
        assert jitted.state.snapshot() == stepping.state.snapshot()
        assert jitted.stats.as_dict() == stepping.stats.as_dict() == {"instructions": 5}


MIDBLOCK_JUMP = """
_start:
    jmp next
next:
    mov eax, 1
    mov ebx, 0
    int 0x80
"""


class TestEligibility:
    def test_setcc_compiles(self):
        program = assemble("_start:\n    cmp eax, 5\n    sete ebx\n    int 0x80\n")
        interp = GuestInterpreter.for_program(program)
        instrs = block_instructions(interp, program.entry, 2)
        block = compile_block(instrs, program.entry, 2)
        assert block.fn is not None

    def test_midblock_control_flow_is_rejected(self):
        # a straight line that spans past a jmp cannot compile: control
        # flow appears before the last instruction
        program = assemble(MIDBLOCK_JUMP)
        interp = GuestInterpreter.for_program(program)
        instrs = block_instructions(interp, program.entry, 2)
        with pytest.raises(Ineligible):
            compile_block(instrs, program.entry, 2)

    def test_fetch_fault_or_unhandled_op_is_ineligible(self):
        # interpreter steps reproduce both exactly; the JIT stays out
        program = assemble(MIDBLOCK_JUMP)
        interp = GuestInterpreter.for_program(program)
        with pytest.raises(Ineligible, match="fetch fault"):
            block_instructions(interp, 0x10, 1)
        del interp._dispatch[Op.MOV]
        with pytest.raises(Ineligible, match="no interpreter handler"):
            block_instructions(interp, program.symbols["next"], 2)


COUNTING_LOOP = """
_start:
    mov ecx, 50
loop:
    add ebx, ecx
    sub ecx, 1
    jnz loop
    mov eax, 1
    and ebx, 255
    int 0x80
"""


class TestEngine:
    def test_threshold_gates_fresh_compiles(self, monkeypatch):
        monkeypatch.setattr(blockjit, "DEFAULT_HOT_THRESHOLD", 3)
        vm = _run_vm(assemble(COUNTING_LOOP))
        reference = GuestInterpreter.for_program(assemble(COUNTING_LOOP))
        assert vm.interp.exit_code == reference.run()
        # only the loop body (3 instructions, 50 executions) got hot;
        # the entry and exit blocks ran once each and stayed cold
        assert vm.jit_metrics["compiles"] == 1
        assert [count for _, count in _compiled(vm.jit)] == [3]

    def test_invalidate_clears_in_place_and_keeps_sightings(self):
        vm = _vm(assemble(COUNTING_LOOP))
        jit = vm.jit
        # stop inside the hot loop, once its block has compiled
        while not _compiled(jit):
            assert vm.step(), "the hot loop never compiled"
        row = next(entry for entry in jit.table.values() if entry.block)
        seen = row.seen
        jit.invalidate()
        # reset IN PLACE: the row stays in the table with no closure
        # and keeps its sightings
        assert row in jit.table.values()
        assert row.block is None
        assert row.seen == seen
        assert not _compiled(jit)
        assert jit.metrics["invalidations"] == 1

    def test_counts_survive_invalidation(self):
        jit = _run_vm(assemble(COUNTING_LOOP)).jit
        compiled = _compiled(jit)
        jit.invalidate()
        # hot counts persisted: the very next sighting of a previously
        # hot block recompiles without re-warming from zero
        pc, _ = compiled[0]
        assert jit.note_execution(pc, jit.table[pc])
        assert jit.metrics["compiles"] == len(compiled) + 1

    def test_compile_calls_the_decoder_zero_times(self, monkeypatch):
        from repro.guest import interpreter

        reference = TimingVM(assemble(COUNTING_LOOP), PRESETS["speculative_4"], jit=True).run()
        decodes = []
        decode = interpreter.decode_instruction

        def counting_decode(window, offset, address):
            decodes.append(address)
            return decode(window, offset, address)

        compile_decodes = []
        note_execution = BlockJit.note_execution

        def counting_note_execution(jit, address, entry):
            before = len(decodes)
            block = note_execution(jit, address, entry)
            compile_decodes.append(len(decodes) - before)
            return block

        monkeypatch.setattr(interpreter, "decode_instruction", counting_decode)
        monkeypatch.setattr(BlockJit, "note_execution", counting_note_execution)
        vm = _vm(assemble(COUNTING_LOOP))
        result = vm.run()
        # every compiled block ran as interpreter steps first, which
        # filled the decode cache; the compile on the next sighting
        # reads its instructions from there
        assert vm.jit_metrics["compiles"] >= 1
        assert decodes and len(decodes) == len(set(decodes))
        assert compile_decodes and not any(compile_decodes)
        assert result == reference

    def test_first_compiled_execution_is_profiled_as_jit(self):
        from repro.obs import prof

        profiler = prof.PhaseProfiler()
        previous = prof.set_profiler(profiler)
        try:
            vm = _run_vm(assemble(COUNTING_LOOP))
        finally:
            prof.set_profiler(previous)
        paths = profiler.snapshot()["paths"]
        assert any(path.endswith("jit.compile") for path in paths)
        assert not any("interpreter;jit.compile" in path for path in paths)
        # the loop block runs 49 times (the entry block holds the first
        # iteration) and compiles on its 2nd sighting; that sighting
        # already runs the closure, so 48 executions ran compiled
        assert vm.jit_metrics["compiles"] == 1
        assert prof.phase_totals(profiler.snapshot())["jit.run"]["calls"] == 48

    def test_ineligible_marker_is_recorded(self, monkeypatch):
        monkeypatch.setattr(blockjit, "DEFAULT_HOT_THRESHOLD", 1)
        program = assemble(MIDBLOCK_JUMP)
        jit = BlockJit(GuestInterpreter.for_program(program))
        entry = BlockEntry(2)
        assert not jit.note_execution(program.entry, entry)
        # the dispatch loop calls note_execution only while the entry's
        # block is None, so the doomed compile is never retried
        assert entry.block is not None, "ineligibility not recorded in the entry"
        assert jit.metrics["ineligible"] == 1


CALLING_LOOP = """
_start:
    mov ecx, 20
loop:
    push ecx
    call accumulate
    pop ecx
    sub ecx, 1
    jnz loop
    mov eax, 1
    mov ebx, [total]
    and ebx, 255
    int 0x80
accumulate:
    mov eax, [total]
    add eax, ecx
    mov [total], eax
    ret
.data
total: dd 0
"""


class TestExecutionRecord:
    """The observer's access stream and ``stats["instructions"]`` are the
    guest's whole execution record: no other counter exists on any path."""

    def test_instructions_is_the_only_guest_counter(self):
        program = assemble(CALLING_LOOP)
        reference = GuestInterpreter.for_program(program)
        exit_code = reference.run()
        assert list(reference.stats.as_dict()) == ["instructions"]
        for jit in (False, True):
            vm = TimingVM(program, PRESETS["speculative_4"], jit=jit)
            result = vm.run()
            assert result.exit_code == exit_code
            assert vm.interp.stats.as_dict() == {
                "instructions": result.guest_instructions,
            } == reference.stats.as_dict()
        assert vm.jit_metrics["compiles"] >= 1  # closures ran, too


class TestSelfModifyingCode:
    def test_jit_matches_interpreter_on_smc(self, monkeypatch):
        from tests.test_self_modifying_code import SMC_PROGRAM, _expected_exit

        monkeypatch.setattr(blockjit, "DEFAULT_HOT_THRESHOLD", 1)
        vm = _run_vm(assemble(SMC_PROGRAM))
        assert vm.interp.exit_code == _expected_exit()
        assert vm.jit_metrics["invalidations"] >= 1

    def test_patched_block_recompiles(self, monkeypatch):
        # patch inside the executing loop: the compiled block must be
        # invalidated, recompiled against the new bytes, and the result
        # must match a plain stepping interpreter
        source = """
        _start:
            mov ecx, 6
        loop:
            mov eax, 11
            add ebx, eax
            movb [loop + 2], 12
            sub ecx, 1
            jnz loop
            mov eax, 1
            and ebx, 255
            int 0x80
        """
        monkeypatch.setattr(blockjit, "DEFAULT_HOT_THRESHOLD", 1)
        plain = GuestInterpreter.for_program(assemble(source))
        vm = _run_vm(assemble(source))
        assert vm.interp.exit_code == plain.run()
        assert vm.interp.stats.as_dict() == plain.stats.as_dict()
        assert vm.jit_metrics["invalidations"] >= 1
        assert vm.jit_metrics["compiles"] >= 2  # old and patched bodies
