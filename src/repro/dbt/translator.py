"""The translation pipeline facade.

``Translator.translate(pc)`` runs the full pipeline — scan, lower,
optimize, codegen, schedule — and returns a :class:`TranslatedBlock`
together with its *translation cost* in slave-tile cycles, which the
timing simulation charges to whichever tile performed the work.

The cost model is calibrated to the structure of the real system: a
per-block dispatch overhead, a per-guest-instruction decode/lower cost
(Valgrind-style parsing of a variable-length ISA is expensive), a
per-uop optimization cost when optimization is on, and a per-host-
instruction emission cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.common.stats import StatSet
from repro.obs import prof
from repro.dbt.block import TranslatedBlock
from repro.dbt.codegen import FlagMemo, InstrTable, generate_block
from repro.dbt.cost import estimate_block_cost
from repro.dbt.frontend import CodeReader, lower_block, scan_block
from repro.dbt.ir import ALL_FLAGS_MASK, ExitKind
from repro.dbt.optimizer import optimize_block, successor_flag_liveness
from repro.dbt.optimizer.scheduler import PASS_NAME as SCHEDULER_PASS_NAME
from repro.dbt.optimizer.scheduler import schedule_block
from repro.dbt.predictor import predict_successors

#: Translation cost model (slave-tile cycles).  Valgrind-style parsing
#: of a variable-length CISC plus IR optimization costs thousands of
#: host cycles per guest instruction, which is why removing it from the
#: critical path (speculative parallel translation) pays off.
TRANSLATE_BASE_COST = 600
TRANSLATE_PER_GUEST_INSTR = 260
OPTIMIZE_PER_UOP = 26
EMIT_PER_HOST_INSTR = 12


@dataclass
class TranslationConfig:
    """Knobs of the translation pipeline."""

    optimize: bool = True  # IR passes + list scheduling (Figure 8's knob)
    #: load intrinsics used to price generated blocks — the software-MMU
    #: defaults, or hardware-assisted values for the Section 5 ablation
    load_latency: int = 6
    load_occupancy: int = 4
    #: checked translation mode: run the :mod:`repro.verify` static
    #: verifiers on the IR after the frontend and after every optimizer
    #: pass, and on the host code after codegen and after scheduling.
    #: A violation raises :class:`repro.verify.VerificationError` naming
    #: the stage that introduced it.  Costs roughly 2x translation time;
    #: off in the timing runs, on in the verification suite and CLI.
    #: The string ``"equiv"`` additionally runs symbolic translation
    #: validation (:mod:`repro.verify.equiv`): guest ≡ IR after the
    #: frontend, IR ≡ IR across every optimizer pass, and IR ≡ host
    #: after codegen and scheduling.  The string ``"jit"`` instead
    #: discharges guest ≡ JIT-closure (:mod:`repro.verify.jitverify`)
    #: for every JIT-eligible block the pipeline visits.
    checked: "bool | str" = False
    #: random input vectors per unproved equivalence obligation and the
    #: base seed they derive from (``checked="equiv"`` only)
    equiv_vectors: int = 8
    equiv_seed: int = 0x5EED


def _pass_lap_observer(base, profiler):
    """Wrap an optimizer observer to lap host time into per-pass phases.

    The optimizer calls its observer once after every pass; the lap
    between consecutive callbacks is that pass's host time, booked as a
    child of the open ``optimizer`` phase.  Any wrapped (checked-mode)
    observer runs under ``verify`` and its time resets the lap clock, so
    verification is never attributed to the following pass.
    """
    clock = time.perf_counter_ns
    last = [clock()]

    def lap(name, blk):
        profiler.add(name, clock() - last[0])
        if base is not None:
            with profiler.phase("verify"):
                base(name, blk)
        last[0] = clock()

    return lap


class Translator:
    """Translation pipeline over a guest code reader.

    Its only state across blocks is the code generator's intern table
    and FLAGS-sequence memo: every block this translator emits draws
    its host instructions from the table, so equal instructions are
    shared instead of duplicated, and each distinct flag update
    sequence is generated once and then replayed from the memo.
    """

    def __init__(self, read_code: CodeReader, config: TranslationConfig = None) -> None:
        self.read_code = read_code
        self.config = config or TranslationConfig()
        self.stats = StatSet("translator")
        #: host-time phase profiler (the shared null sink unless
        #: profiling was enabled before this translator was built)
        self.profiler = prof.active()
        #: aggregate :class:`repro.verify.equiv.EquivStats` across all
        #: blocks this translator checked (``checked="equiv"`` only)
        self.equiv_stats = None
        #: interned host instructions shared by all blocks emitted here
        self.instr_table: InstrTable = {}
        #: FLAGS update sequences, drawn from ``instr_table``, shared the same way
        self.flag_memo: FlagMemo = {}

    def translate(self, guest_pc: int) -> TranslatedBlock:
        """Translate the guest basic block at ``guest_pc``."""
        profiler = self.profiler
        with profiler.phase("translate"):
            return self._translate(guest_pc, profiler)

    def _translate(self, guest_pc: int, profiler) -> TranslatedBlock:
        with profiler.phase("decode"):
            guest = scan_block(self.read_code, guest_pc)
        with profiler.phase("frontend"):
            ir = lower_block(guest)
        uop_count = len(ir.uops)

        checked = self.config.checked
        live_out = ALL_FLAGS_MASK
        if self.config.optimize or checked:
            with profiler.phase("frontend"):
                live_out = self._exit_flag_liveness(ir)
        observer = None
        equiv_checker = None
        if checked:
            from repro.verify.irverify import assert_ir_ok

            context = f"block {guest_pc:#x}"
            with profiler.phase("verify"):
                assert_ir_ok(ir, live_out, stage="frontend", context=context)
            static_observer = lambda name, blk: assert_ir_ok(  # noqa: E731
                blk, live_out, stage=name, context=context
            )
            observer = static_observer
            if checked == "equiv":
                from repro.verify.equiv import EquivChecker, EquivStats

                if self.equiv_stats is None:
                    self.equiv_stats = EquivStats()
                equiv_checker = EquivChecker(
                    guest,
                    ir,
                    live_out,
                    vectors=self.config.equiv_vectors,
                    seed=self.config.equiv_seed,
                    context=context,
                    stats=self.equiv_stats,
                )

                def observer(name, blk):  # noqa: ANN001
                    static_observer(name, blk)
                    equiv_checker.observe(name, blk)
            elif checked == "jit":
                from repro.verify.equiv import EquivStats
                from repro.verify.jitverify import JitVerifier

                if self.equiv_stats is None:
                    self.equiv_stats = EquivStats()
                JitVerifier(
                    vectors=self.config.equiv_vectors,
                    seed=self.config.equiv_seed,
                    context=context,
                    stats=self.equiv_stats,
                ).check_block(guest.instructions, guest_pc)

        cost = TRANSLATE_BASE_COST + TRANSLATE_PER_GUEST_INSTR * ir.guest_instr_count
        if self.config.optimize:
            if profiler.enabled:
                observer = _pass_lap_observer(observer, profiler)
            with profiler.phase("optimizer"):
                optimize_block(ir, flag_live_out=live_out, observer=observer)
            cost += OPTIMIZE_PER_UOP * uop_count

        with profiler.phase("codegen"):
            block = generate_block(ir, self.instr_table, self.flag_memo)
        if checked:
            from repro.verify.hostverify import assert_host_ok

            with profiler.phase("verify"):
                assert_host_ok(block, stage="codegen", context=context)
                if equiv_checker is not None:
                    equiv_checker.check_host(block.instrs, "codegen")
        if self.config.optimize:
            pinned = [stub.offset_words for stub in block.exit_stubs]
            with profiler.phase("schedule"):
                block.instrs = schedule_block(block.instrs, pinned=pinned)
            if checked:
                with profiler.phase("verify"):
                    assert_host_ok(block, stage=SCHEDULER_PASS_NAME, context=context)
                    if equiv_checker is not None:
                        equiv_checker.check_host(block.instrs, SCHEDULER_PASS_NAME)
        block.cost_cycles = estimate_block_cost(
            block.instrs,
            load_latency=self.config.load_latency,
            load_occupancy=self.config.load_occupancy,
        )
        block.optimized = self.config.optimize
        cost += EMIT_PER_HOST_INSTR * len(block.instrs)
        block.translation_cycles = cost
        block.seal(predict_successors(block))

        self.stats.bump("blocks_translated")
        self.stats.bump("guest_instructions", ir.guest_instr_count)
        self.stats.bump("host_instructions", len(block.instrs))
        self.stats.bump("translation_cycles", cost)
        return block

    def _exit_flag_liveness(self, ir) -> int:
        """Cross-block flag liveness at this block's exit.

        Statically known successors are peeked (see
        :mod:`repro.dbt.optimizer.flagpeek`); anything else —
        including syscall and halt exits, whose final flag state the
        differential tests observe — is fully live.
        """
        term = ir.terminator
        if term.kind is ExitKind.JUMP:
            return successor_flag_liveness(self.read_code, [term.target])
        if term.kind is ExitKind.BRANCH:
            return successor_flag_liveness(
                self.read_code, [term.target, term.fallthrough]
            )
        return ALL_FLAGS_MASK
