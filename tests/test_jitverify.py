"""jitverify: symbolic validation of JIT-compiled block closures.

Covers the fourth rung of the proof ladder (guest ≡ JIT-closure): the
verifier must discharge every closure the compiler emits, and — the
planted-bug contract — when a generated closure is corrupted, it must
not merely reject it but *attribute* the corruption to the right defect
class (``not-equivalent``, ``flag-mask-mismatch``,
``missing-entry-guard``, ``bad-return-count``, ``stats-mismatch``,
``missing-smc-guard``, ``unbound-name``).
"""

import pytest

from tests import blockgen
from repro.dbt.frontend import scan_block
from repro.dbt.translator import TranslationConfig
from repro.guest.assembler import assemble
from repro.guest.blockjit import block_instructions, compile_block
from repro.guest.interpreter import GuestInterpreter
from repro.guest.memory import GuestMemory
from repro.verify.findings import VerificationError
from repro.verify.jitverify import JitVerifier, lint_closure_source
from repro.verify.pipeline import checked_translate_program

SMOKE = (
    "_start:\n"
    "    mov eax, 5\n"
    "    add eax, ebx\n"
    "    cmp eax, 10\n"
    "    sete ecx\n"
    "    int 0x80\n"
)

STORE = (
    "_start:\n"
    "    mov [buf + 4], eax\n"
    "    add ebx, 1\n"
    "    int 0x80\n"
    ".data\n"
    "buf: dz 64\n"
)


def _block_of(source):
    program = assemble(source)
    memory = GuestMemory()
    program.load(memory)
    guest = scan_block(memory.read_bytes, program.entry)
    instrs = guest.instructions
    return instrs, program.entry, compile_block(instrs, program.entry, len(instrs))


def _refute(source_text, instrs, address, count):
    verifier = JitVerifier(context="planted")
    with pytest.raises(VerificationError) as excinfo:
        verifier.verify_closure(source_text, instrs, address, count)
    assert verifier.stats.refuted == 1
    return [finding.code for finding in excinfo.value.findings]


class TestAcceptsCompilerOutput:
    def test_smoke_block_fully_proved(self):
        instrs, address, block = _block_of(SMOKE)
        verifier = JitVerifier(context="smoke")
        assert verifier.check_block(instrs, address) is True
        assert verifier.stats.refuted == 0
        assert verifier.stats.skipped == 0
        assert verifier.stats.proved + verifier.stats.validated == 2

    def test_ineligible_block_is_silently_skipped(self):
        from tests.test_blockjit import MIDBLOCK_JUMP

        program = assemble(MIDBLOCK_JUMP)
        interp = GuestInterpreter.for_program(program)
        verifier = JitVerifier(context="mid")
        instrs = block_instructions(interp, program.entry, 2)
        assert verifier.check_block(instrs, program.entry) is False
        assert verifier.stats.blocks == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_random_default_profile_blocks_verify(self, seed):
        source = blockgen.random_program(seed + 3000, length=10)
        instrs, address, block = _block_of(source)
        verifier = JitVerifier(context=f"seed{seed}")
        assert verifier.check_block(instrs, address) is True
        assert verifier.stats.refuted == 0


class TestPlantedBugs:
    """Corrupt the generated source six distinct ways; the verifier
    must name each defect class."""

    def test_wrong_register_value_is_not_equivalent(self):
        instrs, address, block = _block_of(SMOKE)
        bad = block.source.replace("    r0 = 5\n", "    r0 = 6\n")
        assert bad != block.source
        assert "not-equivalent" in _refute(bad, instrs, address, len(instrs))

    def test_shrunk_flag_mask_is_flag_mask_mismatch(self):
        instrs, address, block = _block_of(SMOKE)
        assert "(fl & ~2245)" in block.source
        bad = block.source.replace("(fl & ~2245)", "(fl & ~197)")
        assert "flag-mask-mismatch" in _refute(bad, instrs, address, len(instrs))

    def test_deleted_entry_guard_is_missing_entry_guard(self):
        instrs, address, block = _block_of(SMOKE)
        guard = f"    if S.eip != {address}: return -1\n"
        assert guard in block.source
        bad = block.source.replace(guard, "")
        assert "missing-entry-guard" in _refute(bad, instrs, address, len(instrs))

    def test_wrong_return_count_is_bad_return_count(self):
        instrs, address, block = _block_of(SMOKE)
        count = len(instrs)
        bad = block.source.replace(f"    return {count}\n", f"    return {count - 1}\n")
        assert bad != block.source
        assert "bad-return-count" in _refute(bad, instrs, address, count)

    def test_wrong_instruction_bump_is_stats_mismatch(self):
        instrs, address, block = _block_of(SMOKE)
        count = len(instrs)
        bad = block.source.replace(
            f"    I.stats.bump('instructions', {count})\n",
            f"    I.stats.bump('instructions', {count + 1})\n",
        )
        assert bad != block.source
        assert "stats-mismatch" in _refute(bad, instrs, address, count)
        # the guest keeps no counter but ``instructions``
        bad = block.source.replace(
            f"    I.stats.bump('instructions', {count})\n",
            f"    I.stats.bump('instructions', {count})\n"
            "    I.stats.bump('branches', 1)\n",
        )
        assert "stats-mismatch" in _refute(bad, instrs, address, count)

    def test_deleted_smc_guard_is_missing_smc_guard(self):
        instrs, address, block = _block_of(STORE)
        lines = [
            line for line in block.source.splitlines(keepends=True)
            if "NC(" not in line
        ]
        bad = "".join(lines)
        assert bad != block.source
        assert "missing-smc-guard" in _refute(bad, instrs, address, len(instrs))

    def test_undefined_name_is_unbound_name(self):
        instrs, address, block = _block_of(SMOKE)
        bad = block.source.replace("    r0 = r0 + r3", "    r0 = r0 + r9")
        if bad == block.source:  # emitter wrote the sum via a temp
            bad = block.source.replace("r0 + r3", "r0 + r9")
        assert bad != block.source
        assert "unbound-name" in _refute(bad, instrs, address, len(instrs))


class TestClosureSourceLint:
    def test_clean_closure_lints_clean(self):
        _, _, block = _block_of(STORE)
        assert lint_closure_source(block.source) == []

    def test_syntax_error_is_reported(self):
        defects = lint_closure_source("def _jit_block(I:\n")
        assert [code for code, _ in defects] == ["closure-syntax"]


class TestTranslationConfigWiring:
    def test_checked_jit_populates_equiv_stats(self):
        program = assemble(SMOKE)
        result = checked_translate_program(program, TranslationConfig(checked="jit"))
        assert result.equiv is not None
        assert result.equiv.blocks >= 1
        assert result.equiv.refuted == 0


class TestDispatchTable:
    def test_live_vm_dispatch_table_is_clean(self):
        from repro.morph.config import PRESETS
        from repro.verify.protocol import audit_vm
        from repro.vm.timing import TimingVM

        from tests.test_fastpath_differential import SELF_PATCHING_LOOP

        vm = TimingVM(assemble(SELF_PATCHING_LOOP), PRESETS["speculative_4"], jit=True)
        vm.run()
        assert vm.jit_metrics["compiles"] >= 1
        assert audit_vm(vm) == []
        # every runnable row holds the closure of its own pc and count
        for pc, entry in vm.jit.table.items():
            if entry.block:
                assert (entry.block.address, entry.block.count) == (pc, entry.count)
