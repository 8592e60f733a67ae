"""Full-suite differential: the block JIT must be invisible in results.

The JIT is a wall-clock optimization only — every ``TimingRunResult``
field (cycle counts, cache stats, guest stats, morph events, exit
codes) must be bit-identical with the JIT on and off, across every
workload of the suite.  These tests run the whole grid row at small
scale and compare full ``dataclasses.asdict`` dumps, which is the same
equality the figure renderers and the disk cache rely on.  Generated
multi-block loops (:func:`tests.blockgen.random_loop_program`) drive
the compiled dispatch path harder than the workloads do: computed
jumps, interior branches, mid-run self-modifying stores and faults.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import blockgen
from tests.test_self_modifying_code import SMC_PROGRAM
from repro.dbt.transcache import TranslationCache
from repro.guest.assembler import assemble
from repro.guest.interpreter import GuestFault
from repro.morph.config import PRESETS
from repro.vm.timing import TimingVM, run_timing
from repro.workloads import SPECINT_NAMES, build_workload

SCALE = 0.05

#: Every test here compares closures with ``step()``: compile eagerly so
#: the closures run (see ``tests/conftest.py``).
pytestmark = pytest.mark.usefixtures("eager_jit")

DATA_DIR = Path(__file__).parent / "data"
#: Written (shrunk) whenever the hypothesis loop differential fails;
#: rename to ``loop_regression_<what>.asm`` when committing one as a
#: permanent regression.
COUNTEREXAMPLE = DATA_DIR / "loop_counterexample_latest.asm"

_LOOP_CONFIG = PRESETS["speculative_4"]


def _doc(result):
    return dataclasses.asdict(result)


class TestSuiteBitIdentity:
    @pytest.mark.parametrize("workload", SPECINT_NAMES)
    def test_jit_matches_interpreter(self, workload):
        program = build_workload(workload, scale=SCALE)
        config = PRESETS["speculative_4"]
        off = run_timing(program, config, jit=False)
        vm = TimingVM(program, config, jit=True)
        on = vm.run()
        assert _doc(on) == _doc(off), f"{workload}: JIT changed the results"
        assert vm.jit_metrics["compiles"] > 0, f"{workload}: no closure ran"

    def test_jit_matches_interpreter_when_morphing(self):
        # reconfiguration interacts with the dispatch loop (stall
        # accounting, metrics sampling cadence): cover a morphing preset
        program = build_workload("164.gzip", scale=SCALE)
        config = PRESETS["morph_threshold_5"]
        off = run_timing(program, config, jit=False)
        on = run_timing(program, config, jit=True)
        assert _doc(on) == _doc(off)

    def test_shared_cache_and_cold_agree(self):
        # a live JIT run adopting a sibling's compiled blocks, and a run
        # replaying the sibling's execution record, must both be
        # bit-identical to a cold JIT run and to the interpreter
        program = build_workload("186.crafty", scale=SCALE)
        config = PRESETS["speculative_4"]
        cache = TranslationCache()
        first = run_timing(
            program, config, translation_cache=cache, program_key="k", jit=True
        )
        # a stepped VM never replays, so this one runs the adopted
        # closures live
        vm = TimingVM(
            program, config, translation_cache=cache, program_key="k", jit=True
        )
        assert vm.step()
        warm = vm.run()
        assert vm.execution_mode == "live"
        assert vm.jit_metrics["shared_hits"] > 0
        replay_vm = TimingVM(
            program, config, translation_cache=cache, program_key="k", jit=True
        )
        replayed = replay_vm.run()
        assert replay_vm.execution_mode == "replayed"
        cold = run_timing(program, config, jit=True)
        off = run_timing(program, config, jit=False)
        assert (
            _doc(first) == _doc(warm) == _doc(replayed) == _doc(cold) == _doc(off)
        )


def _step_then_run(program, config, steps):
    """``steps`` single blocks through the stepping API, then resume."""
    vm = TimingVM(program, config, jit=True)
    for _ in range(steps):
        assert vm.step(), "guest exited before the resume point"
    return vm.run()


class TestRunVersusStep:
    def test_run_fast_loop_matches_step_loop(self):
        # one block at a time through the stepping API vs one run()
        program = build_workload("197.parser", scale=SCALE)
        config = PRESETS["speculative_4"]
        fast = run_timing(program, config, jit=True)
        vm = TimingVM(program, config, jit=True)
        while vm.step():
            pass
        assert _doc(fast) == _doc(vm.result())

    @pytest.mark.parametrize("steps", (1, 3, 40, 500))
    def test_step_then_run_matches_run_when_morphing(self, steps):
        program = build_workload("164.gzip", scale=SCALE)
        config = PRESETS["morph_threshold_5"]
        plain = run_timing(program, config, jit=True)
        assert plain.reconfigurations > 0
        assert _doc(_step_then_run(program, config, steps)) == _doc(plain)

    def test_instruction_budget_raises_at_a_block_boundary(self):
        program = build_workload("197.parser", scale=SCALE)
        vm = TimingVM(program, PRESETS["speculative_4"], jit=True)
        with pytest.raises(RuntimeError, match="exceeded 500 guest instructions"):
            vm.run(max_guest_instructions=500)
        assert 500 < vm.result().guest_instructions < 1000
        assert not vm.finished

    @pytest.mark.parametrize("steps", (1, 2, 3, 4))
    def test_step_then_run_matches_run_on_smc(self, steps):
        # the resume points straddle the patching block and the
        # invalidation it triggers at the next block boundary
        program = assemble(SMC_PROGRAM)
        plain = run_timing(program, _LOOP_CONFIG, jit=True)
        assert plain.stats["vm.smc_invalidations"] >= 1
        assert _doc(_step_then_run(program, _LOOP_CONFIG, steps)) == _doc(plain)


def _loop_differential(source):
    program = assemble(source)
    off = _doc(run_timing(program, _LOOP_CONFIG, jit=False))
    vm = TimingVM(program, _LOOP_CONFIG, jit=True)
    on = _doc(vm.run())
    assert on == off, "JIT changed observable results\n%s" % source
    return vm


#: A loop whose computed jump (an indirect exit with a stable target)
#: lands on a compiled block, hot for 60 iterations.
COMPUTED_JUMP_LOOP = """
_start:
    mov ecx, 60
head:
    add eax, 3
    xor eax, ecx
    mov esi, b1
    jmp esi
b1:
    add ebx, eax
    sub ecx, 1
    jnz head
    mov eax, 1
    and ebx, 255
    int 0x80
"""

#: The load — second in its block — walks 512 bytes further each
#: iteration until it leaves the mapped page, after its block has
#: compiled.
FAULTING_LOOP = """
_start:
    mov ecx, 40
    mov edx, 0
head:
    add eax, 3
    mov esi, b1
    jmp esi
b1:
    add edi, 7
    mov ebx, [buf + edx]
    add edx, 512
    sub ecx, 1
    jnz head
    mov eax, 1
    int 0x80
buf:
    dz 64
"""


class TestLoopPrograms:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_loop_programs_bit_identical(self, seed):
        _loop_differential(blockgen.random_loop_program(seed))

    def test_computed_jump_loop_compiles_and_matches(self):
        vm = _loop_differential(COMPUTED_JUMP_LOOP)
        assert vm.jit_metrics["compiles"] >= 1
        symbols = vm.program.symbols
        # both the jump's source and its computed target ran compiled
        assert vm.jit.table[symbols["head"]].block
        assert vm.jit.table[symbols["b1"]].block

    def test_smc_patched_loop_bit_identical(self):
        # seeds whose generated program patches its own loop body: the
        # compiled blocks over the old bytes must be torn down and the run must still match the interpreter bit for bit
        patched = [
            seed for seed in range(12)
            if "movb [head + 2], 9" in blockgen.random_loop_program(seed)
        ]
        assert patched, "no SMC seed in range — regenerate the profile"
        for seed in patched[:2]:
            vm = _loop_differential(blockgen.random_loop_program(seed))
            assert vm.stats["smc_invalidations"] >= 1
            assert vm.jit_metrics["invalidations"] >= 1

    def test_fault_mid_block_matches_interpreter(self):
        # the fault is raised from inside a compiled closure's guest
        # body; the VM must be left in exactly the interpreter's state
        program = assemble(FAULTING_LOOP)

        def run(jit):
            vm = TimingVM(program, _LOOP_CONFIG, jit=jit)
            with pytest.raises(GuestFault) as excinfo:
                vm.run()
            return vm, excinfo.value

        vm_off, fault_off = run(False)
        vm_on, fault_on = run(True)
        assert vm_on.jit_metrics["compiles"] >= 1
        assert vm_on.jit.table[program.symbols["b1"]].block
        assert fault_on.args == fault_off.args
        assert vm_on.now == vm_off.now
        assert vm_on.interp.state.snapshot() == vm_off.interp.state.snapshot()
        assert vm_on.stats.as_dict() == vm_off.stats.as_dict()


#: ``target`` sits behind never-executed filler, past every block the
#: loop runs, and its ``mov eax, 5`` is patched to 9 after the 10th of
#: 20 calls: 10 * 5 + 10 * 9 = 140.
SHARED_SMC_LOOP = """
_start:
    mov ecx, 0
    mov ebx, 0
again:
    call target
    add ebx, eax
    add ecx, 1
    cmp ecx, 10
    jnz skip
    movb [target + 2], 9
skip:
    cmp ecx, 20
    jnz again
    mov eax, 1
    int 0x80
    hlt
filler:
    dz 32
target:
    mov eax, 5
    ret
"""


class TestSharedSpaceSmc:
    def test_adopted_closure_is_invalidated_by_a_code_write(self):
        # the second column adopts the first column's closures and never
        # decodes `target` itself; the patch must still retire the
        # adopted closure at the block boundary
        program = assemble(SHARED_SMC_LOOP)
        cache = TranslationCache()
        run_timing(
            program, PRESETS["speculative_4"], translation_cache=cache,
            program_key="shared-smc", jit=True,
        )
        config = PRESETS["morph_threshold_5"]
        vm = TimingVM(
            program, config, translation_cache=cache, program_key="shared-smc", jit=True,
        )
        on = vm.run()
        off = run_timing(program, config, jit=False)
        assert vm.jit_metrics["shared_hits"] >= 1
        assert _doc(on) == _doc(off)
        assert on.exit_code == 140


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_loop_profile_differential(seed):
    source = blockgen.random_loop_program(seed)
    try:
        _loop_differential(source)
    except AssertionError:
        COUNTEREXAMPLE.write_text(source)
        raise


def _regressions():
    return sorted(DATA_DIR.glob("loop_regression_*.asm"))


@pytest.mark.parametrize(
    "path", _regressions() or [None], ids=lambda p: p.name if p else "none"
)
def test_persisted_counterexamples_stay_fixed(path):
    if path is None:
        pytest.skip("no persisted loop regressions")
    _loop_differential(path.read_text())
