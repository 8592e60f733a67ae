"""Seeded stress: self-modifying code while the fabric morphs.

The two most invasive runtime protocols — SMC invalidation (blows away
translations and JIT closures mid-run) and dynamic morphing (retiles
slaves and banks under hysteresis) — are individually tested elsewhere.
This module forces them to interleave: a generated program patches
function immediates dozens of times while running under the most
trigger-happy morph preset, and the VM is audited after every single
block: the protocol audit must stay clean, and a block boundary that
handled a code write must leave no compiled closure in the JIT's table.
The interpreter provides the golden exit code.
"""

import random

import pytest

from repro.guest.assembler import assemble
from repro.guest.interpreter import GuestInterpreter
from repro.morph.config import PRESETS
from repro.obs.events import Tracer
from repro.verify.protocol import audit_vm
from repro.vm.timing import TimingVM

SEED = 0xC0DE
FUNCTIONS = 4
SEGMENTS = 24


def _stress_source(seed: int) -> str:
    """A straight-line guest that interleaves patches, calls and loops.

    Each segment patches the imm8 of one randomly chosen function
    (``mov eax, imm`` assembles as opcode/ModRM/imm8, so the immediate
    byte is at ``fN + 2``), then calls two functions and runs a short
    hot loop — enough dispatch traffic for JIT compiles and
    translation-queue pressure to build up between invalidations.
    """
    rng = random.Random(seed)
    lines = ["_start:", "    xor esi, esi"]
    for segment in range(SEGMENTS):
        victim = rng.randrange(FUNCTIONS)
        value = rng.randrange(1, 100)
        lines += [
            f"    movb [f{victim} + 2], {value}",
            f"    call f{rng.randrange(FUNCTIONS)}",
            "    add esi, eax",
            f"    call f{rng.randrange(FUNCTIONS)}",
            "    add esi, eax",
            # a hot loop long enough (one block per iteration) to span
            # the controller's 64-block sample interval with an empty
            # translation queue, so the fabric morphs to memory-heavy
            # between patches and back when retranslation begins
            f"    mov ecx, {rng.randrange(100, 200)}",
            f"spin{segment}:",
            "    add esi, 1",
            "    dec ecx",
            f"    cmp ecx, 0",
            f"    jg spin{segment}",
        ]
    lines += [
        "    mov eax, esi",
        "    and eax, 255",
        "    mov ebx, eax",
        "    mov eax, 1",
        "    int 0x80",
    ]
    for index in range(FUNCTIONS):
        lines += [f"f{index}:", f"    mov eax, {index + 1}", "    ret"]
    return "\n".join(lines)


def _golden_exit(source: str) -> int:
    return GuestInterpreter.for_program(assemble(source)).run()


def _program(source: str):
    program = assemble(source)
    program.name = "morph-smc-stress"
    return program


def _hasten_morph(vm: TimingVM, cycles: int = 200) -> None:
    """Shrink the hysteresis so the short stress run really morphs.

    The default 15k-cycle interval exceeds the whole run; the emitted
    reconfig events carry the live value, so conformance still checks
    the interval that was actually in force.
    """
    assert vm.morph is not None
    vm.morph.policy.hysteresis_cycles = cycles


class TestMorphSmcStress:
    @pytest.mark.usefixtures("eager_jit")
    def test_stepped_run_keeps_jit_invariants(self):
        source = _stress_source(SEED)
        vm = TimingVM(
            _program(source), PRESETS["morph_threshold_0"],
            tracer=Tracer(), jit=True,
        )
        _hasten_morph(vm)
        steps = 0
        invalidations = 0
        while vm.step():
            steps += 1
            findings = audit_vm(vm)
            assert not findings, (
                f"step {steps}: " + "; ".join(str(f) for f in findings)
            )
            if vm.stats["smc_invalidations"] != invalidations:
                invalidations = vm.stats["smc_invalidations"]
                assert all(entry.block is None for entry in vm.jit.table.values()), (
                    f"step {steps}: a compiled closure survived the SMC boundary"
                )
        assert steps > 100
        assert vm.jit_metrics["invalidations"] >= 1
        assert vm.stats["smc_invalidations"] >= SEGMENTS // 2
        assert vm.morph.fsm_state()["reconfigurations"] >= 2
        assert vm.interp.exit_code == _golden_exit(source)

    def test_checked_protocol_run_matches_interpreter(self):
        source = _stress_source(SEED)
        vm = TimingVM(
            _program(source), PRESETS["morph_threshold_0"],
            jit=True, checked="protocol",
        )
        _hasten_morph(vm)
        result = vm.run()  # raises VerificationError on any violation
        assert result.exit_code == _golden_exit(source)
        assert vm.protocol_report is not None and vm.protocol_report.ok
        assert result.stats["vm.smc_invalidations"] >= SEGMENTS // 2
        assert vm.morph.fsm_state()["reconfigurations"] >= 2

    def test_other_seeds_conform_too(self):
        from repro.verify.protocol import conform_vm

        for seed in (1, 7, 0xBEEF):
            source = _stress_source(seed)
            vm = TimingVM(
                _program(source), PRESETS["morph_threshold_0"],
                tracer=Tracer(), jit=True,
            )
            _hasten_morph(vm)
            vm.run()
            report = conform_vm(vm)
            assert report.ok, f"seed {seed}:\n" + "\n".join(
                str(f) for f in report.findings
            )
            assert vm.interp.exit_code == _golden_exit(source)
