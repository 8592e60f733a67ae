"""Differential fuzz bridge: symexec input vectors drive the fast path.

The equivalence checker's seeded random vectors (``make_vector``) are
reused here to seed full architectural states, which are then executed
both ways a block can run — instruction-by-instruction ``step()`` and,
when the block is eligible, its block-JIT closure — over random
straight-line blocks.  Registers, flags, EIP, the data buffer, the
observed data accesses and the instruction count must match exactly,
tying the symbolic validation layer and the JIT fast path to the same
input distribution.
"""

import pytest

from tests import blockgen
from repro.guest.assembler import assemble
from repro.guest.blockjit import Ineligible, block_instructions, compile_block
from repro.guest.interpreter import GuestInterpreter
from repro.guest.isa import ALL_FLAGS, Op, Register
from repro.verify.symexec.concrete import make_vector

_VECTORS = 4
_FLAG_NAMES = tuple(flag.name.lower() for flag in ALL_FLAGS)


def _seeded_interpreter(program, env):
    interp = GuestInterpreter.for_program(program, observer=blockgen.AccessRecorder())
    for reg in Register:
        if reg is not Register.ESP:  # keep the loader's mapped stack
            interp.state.regs[reg] = env[reg.name.lower()]
    interp.state.flags = 0
    for flag in ALL_FLAGS:
        interp.state.flags |= env[flag.name.lower()] << int(flag)
    return interp


def _body_steps(program):
    """Instructions to execute: the block body, minus the final syscall."""
    from repro.dbt.frontend import scan_block
    from repro.guest.memory import GuestMemory

    memory = GuestMemory()
    program.load(memory)
    guest = scan_block(lambda addr, n: memory.read_bytes(addr, n), program.entry)
    steps = len(guest.instructions)
    if guest.instructions[-1].op in (Op.INT, Op.HLT):
        steps -= 1
    return steps


@pytest.mark.parametrize("seed", range(10))
def test_step_and_fastpath_agree_on_symexec_vectors(seed):
    source = blockgen.random_program(seed + 500, length=10)
    program = assemble(source)
    steps = _body_steps(program)
    if steps == 0:
        pytest.skip("degenerate block")
    buf = program.symbols["buf"]

    names = [reg.name.lower() for reg in Register] + list(_FLAG_NAMES)
    ones = {name: 1 for name in _FLAG_NAMES}
    try:
        block = compile_block(
            block_instructions(GuestInterpreter.for_program(program), program.entry, steps),
            program.entry, steps,
        )
    except Ineligible:
        pytest.skip("ineligible block")
    for k in range(_VECTORS):
        env = make_vector(seed * 77 + k, names, ones)
        stepping = _seeded_interpreter(program, env)
        jitted = _seeded_interpreter(program, env)

        for _ in range(steps):
            stepping.step()
        assert block.fn(jitted) == steps

        where = f"seed {seed} vector {k}"
        assert jitted.state.snapshot() == stepping.state.snapshot(), (
            f"{where}: state diverged\n{source}"
        )
        assert (
            jitted.memory.read_bytes(buf, blockgen.BUF_BYTES)
            == stepping.memory.read_bytes(buf, blockgen.BUF_BYTES)
        ), f"{where}: data buffer diverged\n{source}"
        assert jitted.observer.log == stepping.observer.log, (
            f"{where}: data accesses diverged\n{source}"
        )
        assert jitted.stats.as_dict() == stepping.stats.as_dict(), (
            f"{where}: instruction count diverged\n{source}"
        )


SELF_PATCHING_LOOP = """
_start:
    mov ecx, 40
loop:
    mov eax, 5
    add ebx, eax
    sub ecx, 1
    cmp ecx, 20
    jne skip
    movb [loop + 2], 9   ; halfway through, grow the per-iteration add
skip:
    test ecx, ecx
    jnz loop
    mov eax, 1
    and ebx, 255
    int 0x80
"""

#: 20 iterations add 5, the patch lands, 20 iterations add 9.
_SELF_PATCHING_EXIT = (20 * 5 + 20 * 9) & 255


class TestVmSelfModifyingCode:
    """The VM must invalidate and recompile the JIT on code writes.

    A workload hot enough to compile overwrites its own loop body
    mid-run; with the JIT on, the patched bytes must take effect
    exactly as they do instruction-by-instruction, and the timing
    results must stay bit-identical to the interpreter's.
    """

    def test_jit_invalidates_and_matches_interpreter(self):
        import dataclasses

        from repro.morph.config import PRESETS
        from repro.vm.timing import TimingVM, run_timing

        program = assemble(SELF_PATCHING_LOOP)
        config = PRESETS["speculative_4"]
        off = run_timing(program, config, jit=False)
        assert off.exit_code == _SELF_PATCHING_EXIT

        vm = TimingVM(program, config, jit=True)
        on = vm.run()
        assert dataclasses.asdict(on) == dataclasses.asdict(off)
        # the JIT really engaged: the loop compiled, was invalidated by
        # the patch, and recompiled against the new bytes
        assert vm.jit_metrics["compiles"] >= 2
        assert vm.jit_metrics["invalidations"] >= 1

    def test_interpreter_smc_program_matches_with_jit(self):
        import dataclasses

        from repro.morph.config import PRESETS
        from repro.vm.timing import run_timing

        from tests.test_self_modifying_code import SMC_PROGRAM

        program = assemble(SMC_PROGRAM)
        config = PRESETS["speculative_4"]
        off = run_timing(program, config, jit=False)
        on = run_timing(program, config, jit=True)
        assert dataclasses.asdict(on) == dataclasses.asdict(off)


#: ``g`` starts a page after a pad page no block ever runs from; the
#: dword store at ``g - 1`` lands on the pad page but its last byte
#: rewrites the low byte of ``mov eax, 7``'s immediate to 42.
STRADDLING_STORE = """
_start:
    mov ecx, 40
warm:
    call g
    sub ecx, 1
    jnz warm
    mov eax, [g - 1]
    and eax, 0x00FFFFFF
    or eax, 0x2A000000
    mov [g - 1], eax
    call g
    mov ebx, eax
    mov eax, 1
    int 0x80
    hlt
.align 4096
pad:
    hlt
.align 4096
g:
    mov eax, 7
    ret
"""


@pytest.mark.parametrize("jit", [False, True], ids=["jit_off", "jit_on"])
def test_store_straddling_into_a_code_page_is_smc(jit):
    """A store whose first byte is on a data page and whose last byte
    is on a code page must invalidate that page's translations."""
    from repro.morph.config import PRESETS
    from repro.vm.timing import TimingVM

    program = assemble(STRADDLING_STORE)
    assert program.symbols["g"] % 4096 == 0
    expected = GuestInterpreter.for_program(assemble(STRADDLING_STORE)).run()
    assert expected == 42

    result = TimingVM(program, PRESETS["speculative_4"], jit=jit).run()
    assert result.exit_code == expected
    assert result.stats.get("vm.smc_invalidations", 0) >= 1
