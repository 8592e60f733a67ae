"""Timing-fidelity virtual machine: the complete virtual architecture.

Wires every subsystem together the way Figure 3 draws it — the
runtime-execution tile (this driver), the L1 / banked L1.5 / L2 code
caches, the manager and its speculative translation slaves, the
MMU + banked-L2 pipelined data memory system, the syscall tile, and
(optionally) the dynamic reconfiguration controller.

Execution is *timing-directed functional simulation*: the guest
program runs functionally at basic-block granularity on the reference
interpreter while cycles are charged from the translated blocks' cost
model plus the resource timelines.  A Pentium III model observes the
same trace, so every run directly yields the paper's clock-for-clock
slowdown.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.stats import StatSet
from repro.guest.blockjit import BlockEntry, BlockJit, jit_enabled_by_env
from repro.guest.interpreter import AccessObserver, GuestInterpreter
from repro.guest.program import GuestProgram
from repro.dbt.block import pages_spanned
from repro.dbt.codecache import FETCH_LEVELS, CodeCacheHierarchy, L1_CODE_CAPACITY
from repro.dbt.speculative import TranslationSubsystem
from repro.dbt.translator import TranslationConfig, Translator
from repro.memsys.memsystem import PipelinedMemorySystem
from repro.morph import MorphController, QueueLengthPolicy, VirtualArchConfig
from repro.obs import prof
from repro.obs.events import NULL_TRACER
from repro.obs.metrics import MetricsRegistry
from repro.refmachine.pentium3 import PentiumIIIModel
from repro.tiled.machine import TileGrid, TileRole, default_placement
from repro.tiled.network import Network
from repro.tiled.resource import Resource

#: Proxy syscall cost on the dedicated tile (network + service).
SYSCALL_TILE_OCCUPANCY = 160

#: Cost of a self-modifying-code invalidation (page scan + cache drops).
SMC_INVALIDATION_COST = 600

#: Block executions between periodic metrics samples (queue depth,
#: busy-slave count, cycle progress) — cheap enough to stay always-on.
METRICS_SAMPLE_INTERVAL_BLOCKS = 32


class _TimingObserver(AccessObserver):
    """Feeds each data access to the emulator memsys and the PIII model.

    This is the hottest non-interpreter call path (twice per guest
    memory instruction), so the stable collaborators — the memory
    system's ``access`` bound method, the PIII model's ``on_access``,
    the SMC bookkeeping containers — are bound locally at construction
    instead of being re-resolved through ``self.vm`` on every access.
    """

    def __init__(self, vm: "TimingVM") -> None:
        self.vm = vm
        self._memsys_access = vm.memsys.access
        profiler = prof.active()
        if profiler.enabled:
            # attribute memsys time to the open interpreter/jit.run
            # phase by timing the bound access call itself; the wrapper
            # only exists when profiling, so the off path stays direct
            memsys_access = self._memsys_access
            clock = time.perf_counter_ns
            add = profiler.add

            def timed_access(now, address, is_write):
                t0 = clock()
                outcome = memsys_access(now, address, is_write)
                add("memsys", clock() - t0)
                return outcome

            self._memsys_access = timed_access
        self._piii_on_access = vm.piii.on_access
        self._code_pages = vm.code_pages  # mutated in place, never rebound
        self._pending_smc = vm.pending_smc
        self._text_start = vm._text_start
        self._text_end = vm._text_end
        self._tracer = vm.tracer

    def on_read(self, address: int, size: int) -> None:
        self._access(address, False)

    def on_write(self, address: int, size: int) -> None:
        # a store overlapping the executable section may change bytes
        # the translator reads: age out cached translations
        if address < self._text_end and address + size > self._text_start:
            self.vm.code_writes += 1
        self._access(address, True)
        # every page the store touches, not just its first: a store
        # that spills across a page boundary into code is SMC too
        first = address >> 12
        if first in self._code_pages:
            self._mark_smc(first)
        last = (address + size - 1) >> 12
        if last != first:
            for page in range(first + 1, last + 1):
                if page in self._code_pages:
                    self._mark_smc(page)

    def _access(self, address: int, is_write: bool) -> None:
        vm = self.vm
        outcome = self._memsys_access(vm.now + vm.pending_stall, address, is_write)
        vm.pending_stall += outcome.stall_cycles
        self._piii_on_access(address, is_write)

    def _mark_smc(self, page: int) -> None:
        self._pending_smc.add(page)
        if self._tracer.enabled:
            vm = self.vm
            self._tracer.emit(
                vm.now, "smc", "write", "execution", gen=vm.code_writes, page=page,
            )


@dataclass
class TimingRunResult:
    """Everything the experiment harness needs from one run."""

    config_name: str
    workload: str
    exit_code: int
    guest_instructions: int
    cycles: int
    piii_cycles: int
    l2_code_accesses: int
    l2_code_misses: int
    blocks_executed: int
    blocks_translated: int
    reconfigurations: int
    stats: Dict[str, int] = field(default_factory=dict)
    #: Metrics-registry snapshot: counters + histogram distributions
    #: (translation latency, queue depth, block size) + sampled time
    #: series (queue length vs cycles, busy slaves vs cycles).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """CyclesOnTranslator / CyclesOnPentiumIII (the paper's metric)."""
        return self.cycles / self.piii_cycles if self.piii_cycles else float("inf")

    @property
    def l2_accesses_per_cycle(self) -> float:
        """Figure 6's metric."""
        return self.l2_code_accesses / self.cycles if self.cycles else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """Figure 7's metric."""
        if not self.l2_code_accesses:
            return 0.0
        return self.l2_code_misses / self.l2_code_accesses


class TimingVM:
    """The virtual architecture, ready to run one workload."""

    def __init__(
        self,
        program: GuestProgram,
        config: VirtualArchConfig,
        stdin: bytes = b"",
        tracer=None,
        translation_cache=None,
        program_key=None,
        jit: Optional[bool] = None,
        checked: Optional[str] = None,
    ) -> None:
        if checked not in (None, False, "protocol"):
            raise ValueError(f"unknown checked mode for TimingVM: {checked!r}")
        self.program = program
        self.config = config
        #: ``checked="protocol"`` runs the protocol conformance tier:
        #: a tracer is installed (if none was passed) and :meth:`run`
        #: ends by replaying the event stream through the conformance
        #: checkers and auditing the translation cache — any violation
        #: raises ``VerificationError``.
        self.protocol_checked = checked == "protocol"
        self.protocol_report = None
        if self.protocol_checked and tracer is None:
            from repro.obs.events import Tracer

            tracer = Tracer()
        #: Event sink shared by every subsystem.  ``None`` (the default)
        #: means the zero-cost null sink: no events, no allocations.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Always-on metrics registry (histograms + periodic samples).
        self.metrics = MetricsRegistry("timing_run")

        # floorplan: morphing needs the 4-bank layout to trade from
        banks_to_place = 4 if config.morphing else config.l2_bank_tiles
        slaves_to_place = 6 if config.morphing else config.translator_tiles
        self.grid: TileGrid = default_placement(
            translator_tiles=slaves_to_place,
            l2_bank_tiles=banks_to_place,
            l15_bank_tiles=config.l15_banks,
        )
        self.network = Network(tracer=self.tracer)
        self.memsys = PipelinedMemorySystem(
            self.grid, self.network, hardware_mmu=config.hardware_mmu,
            tracer=self.tracer,
        )

        # self-modifying code bookkeeping (before the observer binds them)
        self.code_pages: Dict[int, set] = {}  # page -> guest block addresses
        self.pending_smc: set = set()
        self.piii = PentiumIIIModel()
        #: Stores into the executable section — the translation cache's
        #: generation counter (a write here may change bytes the
        #: translator reads, so cached translations must not outlive it).
        self.code_writes = 0
        try:
            text = program.text
            self._text_start, self._text_end = text.address, text.end
        except ValueError:
            self._text_start = self._text_end = 0
            translation_cache = None  # can't track code writes: stay safe

        self.observer = _TimingObserver(self)
        self.interp = GuestInterpreter.for_program(program, stdin=stdin, observer=self.observer)
        for section in program.sections:
            self.memsys.page_table.map_region(section.address, len(section.data))
        self.memsys.page_table.map_region(0xBFF00000, 0x100000)  # stack top region
        self.memsys.page_table.map_region(program.brk_base, 1 << 24)  # heap headroom

        translation_config = TranslationConfig(optimize=config.optimize)
        if self.protocol_checked:
            # a truthy ``checked`` also turns on the static IR/host
            # verifiers and gives cached translations their own
            # namespace (``translator_knobs`` includes ``checked``)
            translation_config.checked = "protocol"
        if config.hardware_mmu:
            # TLB-backed loads: PIII-class L1 hit (Table 11's fix)
            translation_config.load_latency = 3
            translation_config.load_occupancy = 1
        if translation_cache is not None:
            from repro.dbt.transcache import CachingTranslator

            translator = CachingTranslator(
                self._read_code,
                translation_config,
                translation_cache,
                program_key if program_key is not None else program.name,
                lambda: self.code_writes,
            )
        else:
            translator = Translator(self._read_code, translation_config)
        self.manager = Resource("manager")
        self.subsystem = TranslationSubsystem(
            translator,
            slave_count=config.translator_tiles,
            manager=self.manager,
            speculative=config.speculative,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        # a hardware instruction cache acts as a large virtual L1 code
        # cache with chaining across the whole instruction working set
        # (Section 4.5's prescription for the high-slowdown benchmarks)
        l1_code_capacity = (1 << 21) if config.hardware_icache else L1_CODE_CAPACITY
        self.hierarchy = CodeCacheHierarchy(
            self.grid,
            self.network,
            self.subsystem,
            l15_banks=config.l15_banks,
            l1_capacity=l1_code_capacity,
            tracer=self.tracer,
        )
        self.syscall_tile = Resource("syscall_tile")
        self._syscall_hops = self.grid.hops(
            self.hierarchy.execution, self.grid.find_one(TileRole.SYSCALL)
        )

        # block JIT: hot guest blocks compile to specialized closures
        # (repro.guest.blockjit) that the dispatch loop runs in place of
        # the plan path.  Deliberately NOT a VirtualArchConfig knob:
        # it models nothing, it only accelerates the simulation, and
        # results are bit-identical with it on or off.  Its metrics live
        # in a separate registry so TimingRunResult stays byte-stable.
        self.jit_enabled = jit if jit is not None else jit_enabled_by_env()
        self.jit_metrics = MetricsRegistry("blockjit")
        self.jit: Optional[BlockJit] = None
        if self.jit_enabled:
            shared = None
            if translation_cache is not None and self._text_end > self._text_start:
                shared = translation_cache.jit_space(
                    program_key if program_key is not None else program.name
                )
            self.jit = BlockJit(
                self.interp,
                shared_space=shared,
                generation=lambda: self.code_writes,
                share_range=(self._text_start, self._text_end),
                metrics=self.jit_metrics,
            )

        self.morph: Optional[MorphController] = None
        if config.morphing:
            policy = QueueLengthPolicy(threshold=config.morph_threshold)
            bank_coords = self.grid.tiles_with_role(TileRole.L2_BANK)
            self.morph = MorphController(
                self.memsys, self.subsystem, policy, bank_coords,
                tracer=self.tracer, metrics=self.metrics,
            )

        self.now = 0
        self.pending_stall = 0
        self.stats = StatSet("timing_vm")
        self._prof = prof.active()
        self._blocks_since_metrics = 0
        # block addresses whose code pages are already registered, and
        # the per-block counters — both avoid per-block rework
        self._pages_registered: set = set()
        self._blocks_executed = self.stats.lazy_counter("blocks_executed")
        self._fetch_counters = {
            level: self.stats.lazy_counter("fetch_" + level.replace(".", "_"))
            for level in FETCH_LEVELS
        }
        # the dispatch loop's position, saved whenever it stops so that
        # step() and run() calls resume each other
        self._pc = self.interp.state.eip
        self._prev_pc: Optional[int] = None
        self._arrived_indirect = False
        self._executed_instructions = 0
        self.last_exit_kind: Optional[str] = None

    def _read_code(self, address: int, length: int) -> bytes:
        return self.interp.memory.read_bytes(address, length)

    # -- the runtime-execution tile's main loop ------------------------------

    @property
    def finished(self) -> bool:
        return self.interp.exit_code is not None

    def step(self) -> bool:
        """Execute one basic block; returns False when the guest exited.

        The stepping API exists so several virtual machines can share
        one fabric (see :mod:`repro.vm.multivm`): an external scheduler
        interleaves VMs by their cycle counters.  It is :meth:`run`'s
        dispatch loop stopped after one block, so stepping to the end
        yields exactly :meth:`run`'s result.
        """
        self._dispatch(sys.maxsize, blocks=1)
        return self.interp.exit_code is None

    def run(self, max_guest_instructions: int = 10_000_000) -> TimingRunResult:
        """Run the workload to completion (resuming after any
        :meth:`step` calls); returns the timing result."""
        self._dispatch(max_guest_instructions)
        if self.protocol_checked:
            self.assert_protocol()
        return self.result()

    def assert_protocol(self):
        """Replay the event stream through the protocol conformance
        checkers and audit the translation cache's generation keys;
        raises ``VerificationError`` on any violation.  The full
        :class:`~repro.verify.protocol.ConformReport` (event, check and
        violation counts) is kept on ``self.protocol_report``."""
        from repro.verify.findings import VerificationError, errors_only
        from repro.verify.protocol import conform_vm

        report = conform_vm(self)
        self.protocol_report = report
        errors = errors_only(report.findings)
        if errors:
            raise VerificationError("protocol", errors)
        return report

    def _dispatch(self, max_guest_instructions: int, blocks: int = -1) -> None:
        """The runtime-execution tile's dispatch loop, shared by
        :meth:`run` and :meth:`step`, and the block JIT's only caller.

        Executes basic blocks until the guest exits or ``blocks`` of
        them have run (a negative ``blocks`` never reaches zero).  The
        per-block collaborators are bound once.  With the block JIT on,
        each block's row of ``self.jit.table`` is looked up here, once
        per block, and its sighting counted;
        :meth:`BlockJit.note_execution` compiles the block, or adopts a
        sibling's compile, once it is hot.  From its first compiled
        execution on, the closure is called directly instead of going
        through ``run_block_at``.  No reference to a closure outlives
        its block, so the SMC invalidation at the block boundary
        (:meth:`_invalidate_smc_pages`) is all it takes to keep stale
        closures from running.  The guest position survives a stop on
        ``blocks``.
        """
        interp = self.interp
        state = interp.state
        fetch = self.hierarchy.fetch
        run_block_at = interp.run_block_at
        jit = self.jit
        table = jit.table if jit is not None else {}
        note_execution = jit.note_execution if jit is not None else None
        stats = self.stats
        count_block = self._blocks_executed.add
        fetch_counters = self._fetch_counters
        pages_registered = self._pages_registered
        code_pages = self.code_pages
        pending_smc = self.pending_smc
        piii_on_instructions = self.piii.on_instructions
        morph = self.morph
        tracer = self.tracer
        profiler = self._prof
        profiling = profiler.enabled
        prof_enter = profiler.enter
        prof_exit = profiler.exit
        prof_add = profiler.add
        clock = time.perf_counter_ns
        pc = self._pc
        prev_pc = self._prev_pc
        arrived_indirect = self._arrived_indirect
        executed_total = self._executed_instructions
        exit_kind = self.last_exit_kind

        while blocks and interp.exit_code is None:
            blocks -= 1
            if profiling:
                # scoped, so a demand translation nests under it
                prof_enter("vm.fetch")
                lookup = fetch(self.now, pc, prev_pc, arrived_indirect)
                prof_exit()
            else:
                lookup = fetch(self.now, pc, prev_pc, arrived_indirect)
            self.now = lookup.ready_time
            block = lookup.block
            count_block()
            fetch_counters[lookup.level].add()
            if pc not in pages_registered:
                pages_registered.add(pc)
                for page in pages_spanned(block.guest_address, block.guest_length):
                    code_pages.setdefault(page, set()).add(pc)

            count = block.guest_instr_count
            compiled = None
            if jit is not None:
                entry = table.get(pc)
                if entry is None or entry.count != count:
                    entry = table[pc] = BlockEntry(count)
                compiled = entry.block
                if compiled is None:
                    compiled = note_execution(pc, entry)

            self.pending_stall = 0
            if compiled:  # cold or ineligible (falsy) blocks: plan path
                if profiling:
                    # scoped (not flat) timing, so nested memsys
                    # attributions become children of this phase
                    # instead of double-counting beside it
                    prof_enter("jit.run")
                executed = compiled.fn(interp)
                if executed < 0:  # entry-state mismatch: plan path
                    if profiling:
                        prof_exit()
                        prof_enter("interpreter")
                    executed = run_block_at(pc, count)
                if profiling:
                    prof_exit()
            elif profiling:
                prof_enter("interpreter")
                executed = run_block_at(pc, count)
                prof_exit()
            else:
                executed = run_block_at(pc, count)

            piii_on_instructions(executed)
            executed_total += executed
            self.now += block.cost_cycles + self.pending_stall

            if block.exit_kind == "syscall" and interp.exit_code is None:
                hops = self._syscall_hops
                if tracer.enabled:
                    tracer.emit(
                        self.now, "net", "msg", "execution",
                        dst="syscall_tile", hops=hops, words=1,
                    )
                self.now += self.network.round_trip(hops)
                self.now = self.syscall_tile.service(self.now, SYSCALL_TILE_OCCUPANCY)
                stats.bump("syscalls")

            if morph is not None:
                if profiling:
                    morph_t0 = clock()
                    self.now += morph.on_block_executed(self.now)
                    prof_add("morph", clock() - morph_t0)
                else:
                    self.now += morph.on_block_executed(self.now)

            self._blocks_since_metrics += 1
            if self._blocks_since_metrics >= METRICS_SAMPLE_INTERVAL_BLOCKS:
                self._blocks_since_metrics = 0
                self._executed_instructions = executed_total
                self._sample_metrics()

            if pending_smc:
                self._invalidate_smc_pages()

            prev_pc = pc
            pc = state.eip
            arrived_indirect = block.exit_kind == "indirect"
            exit_kind = block.exit_kind
            if executed_total > max_guest_instructions:
                break

        self._pc = pc
        self._prev_pc = prev_pc
        self._arrived_indirect = arrived_indirect
        self._executed_instructions = executed_total
        self.last_exit_kind = exit_kind
        if interp.exit_code is None and executed_total > max_guest_instructions:
            raise RuntimeError(
                f"workload exceeded {max_guest_instructions} guest instructions"
            )

    def _sample_metrics(self) -> None:
        """Periodic time-series samples: with these, queue-length-vs-
        cycles (Figure 9) and translation/execution overlap (Figure 1)
        are reconstructable from any run, traced or not."""
        now = self.now
        self.metrics.sample("specq.depth", now, self.subsystem.queue_length())
        busy = sum(1 for slave in self.subsystem.slaves if slave.busy_until > now)
        self.metrics.sample("slaves.busy", now, busy)
        self.metrics.sample("guest.instructions", now, self._executed_instructions)

    def _invalidate_smc_pages(self) -> None:
        """Invalidate translations for written code pages (at a block
        boundary), charging the invalidation cost.

        This is also the block JIT's only invalidation point: every
        dispatched block, compiled here or adopted from the shared
        space, registered its pages in ``code_pages``, so a write to any
        of them lands here before the next dispatch.
        """
        from repro.guest.memory import PAGE_SIZE as _PAGE

        for page in sorted(self.pending_smc):
            victims = self.code_pages.pop(page, set())
            # victims must re-register their pages on next execution
            self._pages_registered.difference_update(victims)
            self.subsystem.invalidate_range(page << 12, _PAGE)
            self.hierarchy.l15.invalidate(victims)
            self.hierarchy.l1.flush()
            self.now += SMC_INVALIDATION_COST
            self.stats.bump("smc_invalidations")
            if self.tracer.enabled:
                self.tracer.emit(
                    self.now, "smc", "invalidate", "execution",
                    page=page, victims=len(victims), gen=self.code_writes,
                )
        self.pending_smc.clear()
        if self.jit is not None:
            self.jit.invalidate()

    def result(self) -> TimingRunResult:
        """Result of a finished (or interrupted) run."""
        cache_stats = self.hierarchy.stats
        return TimingRunResult(
            config_name=self.config.name,
            workload=self.program.name,
            exit_code=self.interp.exit_code if self.interp.exit_code is not None else -1,
            guest_instructions=self._executed_instructions,
            cycles=self.now,
            piii_cycles=self.piii.cycles,
            l2_code_accesses=cache_stats["l2_accesses"],
            l2_code_misses=cache_stats["l2_misses"],
            blocks_executed=self.stats["blocks_executed"],
            blocks_translated=self.subsystem.stats["blocks_translated"],
            reconfigurations=self.morph.reconfiguration_count if self.morph else 0,
            stats={
                **{f"vm.{k}": v for k, v in self.stats.as_dict().items()},
                **{f"code.{k}": v for k, v in cache_stats.as_dict().items()},
                **{f"l1code.{k}": v for k, v in self.hierarchy.l1.stats.as_dict().items()},
                **{f"l15.{k}": v for k, v in self.hierarchy.l15.stats.as_dict().items()},
                **{f"mem.{k}": v for k, v in self.memsys.stats.as_dict().items()},
                **{f"spec.{k}": v for k, v in self.subsystem.stats.as_dict().items()},
            },
            metrics=self.metrics.snapshot(),
        )


def run_timing(
    program: GuestProgram,
    config: VirtualArchConfig,
    stdin: bytes = b"",
    tracer=None,
    translation_cache=None,
    program_key=None,
    jit: Optional[bool] = None,
    checked: Optional[str] = None,
) -> TimingRunResult:
    """Convenience wrapper: build a :class:`TimingVM` and run it.

    Pass a :class:`repro.obs.events.Tracer` to capture a cycle-stamped
    event trace; by default the zero-cost null sink is used.  Pass a
    :class:`repro.dbt.transcache.TranslationCache` (plus a stable
    ``program_key``) to reuse translations across runs of the same
    program — results are bit-identical either way.  ``jit`` overrides
    the ``REPRO_JIT`` environment default for the block JIT; on or off,
    results are bit-identical (it only changes wall-clock speed).
    ``checked="protocol"`` runs the protocol conformance tier (see
    :class:`TimingVM`): any invariant violation raises
    ``repro.verify.findings.VerificationError``.
    """
    return TimingVM(
        program, config, stdin=stdin, tracer=tracer,
        translation_cache=translation_cache, program_key=program_key,
        jit=jit, checked=checked,
    ).run()
