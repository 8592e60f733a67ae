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

**Record once, replay per config.**  The guest half of a run — which
blocks execute, how many instructions each retires, the data-access
stream, the exit code and the PIII model fed by that stream — depends
on the program and its stdin, never on the :class:`VirtualArchConfig`.
So the first untraced, unchecked :meth:`TimingVM.run` of a
``(program_key, stdin)`` that shares a
:class:`~repro.dbt.transcache.TranslationCache` records it from the
live dispatch loop (which stays the reference) into an
:class:`ExecutionRecord` kept in that cache, and every later such run
*replays* it: :meth:`TimingVM._replay` does exactly the timing half of
the dispatch loop — code-cache fetches, memsys accesses, SMC page
marking, syscall and morph costs, metric samples — and executes no
guest code.  The key is ``(program_key, stdin)`` because those are the
guest's only inputs: the program key names the assembled program (the
translation cache already relies on it), and stdin is what syscalls
read.  A replay that disagrees with the blocks it fetches raises
:class:`ReplayError` instead of returning a result.

Runs stay live when replay could not reproduce them or would hide what
they check: traced runs, ``checked="protocol"`` runs, VMs advanced
with :meth:`TimingVM.step` (the multi-VM fabric), runs over their
instruction budget, and programs whose recording stored into their own
text section.  Those programs are marked live-only in the cache, since
the translator reads code bytes from guest memory that a replay never
writes.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Optional

from repro.common.stats import StatSet
from repro.guest.blockjit import BlockEntry, BlockJit
from repro.guest.interpreter import AccessObserver, GuestInterpreter, StepEvent
from repro.guest.program import GuestProgram
from repro.dbt.block import pages_spanned
from repro.dbt.codecache import FETCH_LEVELS, CodeCacheHierarchy, L1_CODE_CAPACITY
from repro.dbt.speculative import TranslationSubsystem
from repro.dbt.transcache import LIVE_ONLY
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


def _step_block(interp: GuestInterpreter, count: int) -> int:
    """Run one block as up to ``count`` reference-interpreter steps.

    Each step follows EIP, so a taken branch mid-block is followed
    exactly.  Returns the number of instructions executed: ``count``,
    or fewer when the guest exits, counting the exiting instruction but
    not the block's tail.
    """
    step = interp.step
    exited = StepEvent.EXITED
    executed = 0
    while executed < count:
        executed += 1
        if step() is exited:
            break
    return executed


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


def _words() -> array:
    """An empty array of unsigned 32-bit guest words (pcs, counts, addresses)."""
    return array("I")


@dataclass
class ExecutionRecord:
    """The guest half of one run, as the timing models saw it.

    Block ``i`` was fetched at ``block_pcs[i]`` as a block of
    ``block_counts[i]`` guest instructions, retired
    ``block_executed[i]`` of them (fewer only where the guest exited),
    and made the data accesses ``block_access_ends[i - 1]`` (0 for
    the first block) up to ``block_access_ends[i]``.  Access ``j`` is
    ``access_sizes[j]`` bytes at ``access_addresses[j]``, a store when
    the size is negative.  The outcome fields are the guest's exit code
    and retired instructions and the Pentium III model's memory stall
    cycles, from which its cycle count follows.
    """

    block_pcs: array = field(default_factory=_words)
    block_counts: array = field(default_factory=_words)
    block_executed: array = field(default_factory=_words)
    block_access_ends: array = field(default_factory=_words)
    access_addresses: array = field(default_factory=_words)
    access_sizes: array = field(default_factory=lambda: array("b"))
    exit_code: int = 0
    instructions: int = 0
    piii_stall_cycles: int = 0


class ReplayError(RuntimeError):
    """A replayed block disagrees with the :class:`ExecutionRecord`."""


class _RecordingObserver(_TimingObserver):
    """A :class:`_TimingObserver` that also writes an :class:`ExecutionRecord`.

    Installed for the recording run alone, so live runs pay nothing for
    it.  Each access is appended on its way to the timing models, and
    the dispatch loop fetches through :meth:`fetch`, which opens a
    block's entry and closes the previous one: that block retired what
    the PIII model retired since its fetch, and made the accesses
    appended since.
    """

    def __init__(self, vm: "TimingVM") -> None:
        super().__init__(vm)
        self.record = record = ExecutionRecord()
        self._add_address = record.access_addresses.append
        self._add_size = record.access_sizes.append
        self._hierarchy_fetch = vm.hierarchy.fetch
        self._piii = vm.piii
        self._retired = 0  # PIII instructions at the open block's fetch

    def on_read(self, address: int, size: int) -> None:
        self._add_address(address)
        self._add_size(size)
        self._access(address, False)

    def on_write(self, address: int, size: int) -> None:
        self._add_address(address)
        self._add_size(-size)
        super().on_write(address, size)

    def fetch(self, now: int, pc: int, prev_pc: Optional[int], indirect: bool):
        lookup = self._hierarchy_fetch(now, pc, prev_pc, indirect)
        record = self.record
        if record.block_pcs:
            self._close_block()
        record.block_pcs.append(pc)
        record.block_counts.append(lookup.block.guest_instr_count)
        return lookup

    def _close_block(self) -> None:
        retired = self._piii.instructions
        self.record.block_executed.append(retired - self._retired)
        self.record.block_access_ends.append(len(self.record.access_addresses))
        self._retired = retired

    def finish(self, exit_code: int) -> ExecutionRecord:
        """The completed record of a run that ended with ``exit_code``."""
        self._close_block()
        record = self.record
        record.exit_code = exit_code
        record.instructions = self._piii.instructions
        record.piii_stall_cycles = self._piii.memory_stall_cycles
        return record


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
        jit: bool = True,
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
        # interpreter steps.  Deliberately NOT a VirtualArchConfig knob:
        # it models nothing, it only accelerates the simulation, and
        # results are bit-identical with it on or off (``jit=False``
        # runs every block on the golden interpreter, the tests'
        # reference).  Its metrics live in a separate registry so
        # TimingRunResult stays byte-stable.
        self.jit_enabled = jit
        self.jit_metrics = MetricsRegistry("blockjit")
        self.jit: Optional[BlockJit] = None
        if self.jit_enabled:
            self.jit = BlockJit(self.interp, metrics=self.jit_metrics)

        #: The cache holding this program's :class:`ExecutionRecord`,
        #: and its key; ``None`` when every run of this VM stays live
        #: (see the module docstring).
        self._records = None
        self._record_key = None
        if (translation_cache is not None and not self.tracer.enabled
                and not self.protocol_checked):
            self._records = translation_cache
            self._record_key = (
                program_key if program_key is not None else program.name, stdin,
            )
        #: How :meth:`run` executed the guest: ``"live"``, ``"recorded"``
        #: (live, writing the record), ``"replayed"`` or ``"live_only"``
        #: (live, because the program writes its own code).
        self.execution_mode: Optional[str] = None

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
        yields exactly :meth:`run`'s result.  A stepped VM never
        records or replays.
        """
        self._record_key = None
        self._dispatch(sys.maxsize, blocks=1)
        return self.interp.exit_code is None

    def run(self, max_guest_instructions: int = 10_000_000) -> TimingRunResult:
        """Run the workload to completion (resuming after any
        :meth:`step` calls); returns the timing result.

        The guest runs live, records its execution or replays a
        recorded one (see the module docstring); results are
        bit-identical either way, and ``execution_mode`` says which
        happened."""
        self.execution_mode = self._run_guest(max_guest_instructions)
        if self.protocol_checked:
            self.assert_protocol()
        return self.result()

    def _run_guest(self, max_guest_instructions: int) -> str:
        """Execute the guest for :meth:`run`; returns the execution mode."""
        key, self._record_key = self._record_key, None
        if key is not None:
            record = self._records.execution_record(key)
            if record is None:
                return self._record(key, max_guest_instructions)
            if record is LIVE_ONLY:
                self._dispatch(max_guest_instructions)
                return "live_only"
            # a replay runs to the guest's exit: a run that the budget
            # stops runs live, to raise (resumably) where it would
            if record.instructions - record.block_executed[-1] <= max_guest_instructions:
                self._replay(record)
                return "replayed"
        self._dispatch(max_guest_instructions)
        return "live"

    def _record(self, key, max_guest_instructions: int) -> str:
        """Run live while writing the guest's :class:`ExecutionRecord`
        into the cache, or mark the program live-only if it stored into
        its own text section."""
        recorder = _RecordingObserver(self)
        self.interp.observer = recorder
        try:
            self._dispatch(max_guest_instructions, fetch=recorder.fetch)
        finally:
            self.interp.observer = self.observer
        if self.code_writes:
            self._records.store_execution_record(key, LIVE_ONLY)
            return "live_only"
        exit_code = self.interp.exit_code
        assert exit_code is not None  # _dispatch returns only once the guest exited
        self._records.store_execution_record(key, recorder.finish(exit_code))
        return "recorded"

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

    def _dispatch(self, max_guest_instructions: int, blocks: int = -1, fetch=None) -> None:
        """The runtime-execution tile's dispatch loop, shared by
        :meth:`run` and :meth:`step`, and the block JIT's only caller.

        Executes basic blocks until the guest exits or ``blocks`` of
        them have run (a negative ``blocks`` never reaches zero).  The
        per-block collaborators are bound once.  With the block JIT on,
        each block's row of ``self.jit.table`` is looked up here, once
        per block, and its sighting counted;
        :meth:`BlockJit.note_execution` compiles the block once it is
        hot.  From its first compiled
        execution on, the closure runs the block; every other block
        (cold, ineligible, or with the JIT off) runs as interpreter
        steps (:func:`_step_block`).  No reference to a closure
        outlives its block, so the SMC invalidation at the block
        boundary (:meth:`_invalidate_smc_pages`) is all it takes to
        keep stale closures from running.  The guest position survives a stop on
        ``blocks``.  A recording run passes its recorder's ``fetch``.
        """
        interp = self.interp
        state = interp.state
        if fetch is None:
            fetch = self.hierarchy.fetch
        fetch_block = self._fetch_block
        finish_block = self._finish_block
        jit = self.jit
        table = jit.table if jit is not None else {}
        note_execution = jit.note_execution if jit is not None else None
        piii_on_instructions = self.piii.on_instructions
        profiler = self._prof
        profiling = profiler.enabled
        prof_enter = profiler.enter
        prof_exit = profiler.exit
        pc = self._pc
        prev_pc = self._prev_pc
        arrived_indirect = self._arrived_indirect
        executed_total = self._executed_instructions
        exit_kind = self.last_exit_kind

        while blocks and interp.exit_code is None:
            blocks -= 1
            block = fetch_block(fetch, pc, prev_pc, arrived_indirect)
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
            executed = -1
            if compiled:
                if profiling:
                    # scoped (not flat) timing, so nested memsys
                    # attributions become children of this phase
                    # instead of double-counting beside it
                    prof_enter("jit.run")
                    executed = compiled.fn(interp)
                    prof_exit()
                else:
                    executed = compiled.fn(interp)
            if executed < 0:  # cold, ineligible (falsy) or entry-guard miss
                if profiling:
                    prof_enter("interpreter")
                    executed = _step_block(interp, count)
                    prof_exit()
                else:
                    executed = _step_block(interp, count)

            piii_on_instructions(executed)
            executed_total += executed
            self.now += block.cost_cycles + self.pending_stall
            exit_kind = block.exit_kind
            finish_block(exit_kind == "syscall" and interp.exit_code is None, executed_total)

            prev_pc = pc
            pc = state.eip
            arrived_indirect = exit_kind == "indirect"
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

    def _replay(self, record: ExecutionRecord) -> None:
        """Replay ``record``'s guest through this VM's timing models.

        The timing half of :meth:`_dispatch`, block for block: the same
        :meth:`_fetch_block` and :meth:`_finish_block` around each
        block, and between them its data accesses at ``now`` plus the
        block's stall so far (with the SMC page marking of a store) and
        its cost.  No guest code runs: the exit code and the PIII
        model's result come from the record.  Raises
        :class:`ReplayError` where a fetched block is not the recorded
        one.  Untraced, so no events are emitted.
        """
        fetch = self.hierarchy.fetch
        fetch_block = self._fetch_block
        finish_block = self._finish_block
        code_pages = self.code_pages
        pending_smc = self.pending_smc
        # the observer's binding: timed under the profiler, like live
        memsys_access = self.observer._memsys_access
        counts = record.block_counts
        executed_counts = record.block_executed
        access_ends = record.block_access_ends
        accesses = zip(record.access_addresses, record.access_sizes)
        last = len(record.block_pcs) - 1
        accessed = 0
        executed_total = 0
        prev_pc: Optional[int] = None
        arrived_indirect = False
        exit_kind = None

        for index, pc in enumerate(record.block_pcs):
            block = fetch_block(fetch, pc, prev_pc, arrived_indirect)
            if block.guest_address != pc or block.guest_instr_count != counts[index]:
                raise ReplayError(
                    f"block {index} of the record is {counts[index]} instructions "
                    f"at {pc:#x}; the VM fetched {block.guest_instr_count} at "
                    f"{block.guest_address:#x}"
                )
            now = self.now
            stall = 0
            end = access_ends[index]
            for address, size in islice(accesses, end - accessed):
                if size > 0:
                    stall += memsys_access(now + stall, address, False).stall_cycles
                    continue
                stall += memsys_access(now + stall, address, True).stall_cycles
                first = address >> 12
                if first in code_pages:
                    pending_smc.add(first)
                for page in range(first + 1, ((address - size - 1) >> 12) + 1):
                    if page in code_pages:
                        pending_smc.add(page)
            accessed = end
            executed_total += executed_counts[index]
            self.now = now + block.cost_cycles + stall
            exit_kind = block.exit_kind
            finish_block(exit_kind == "syscall" and index != last, executed_total)
            prev_pc = pc
            arrived_indirect = exit_kind == "indirect"

        if executed_total != record.instructions or accessed != len(record.access_sizes):
            raise ReplayError(
                f"the record's blocks retire {executed_total} instructions and "
                f"make {accessed} accesses; it holds {record.instructions} and "
                f"{len(record.access_sizes)}"
            )
        self._executed_instructions = executed_total
        self.last_exit_kind = exit_kind
        self.interp.exit_code = record.exit_code
        self.piii.on_instructions(executed_total)
        self.piii.memory_stall_cycles = record.piii_stall_cycles

    def _fetch_block(self, fetch, pc: int, prev_pc: Optional[int], arrived_indirect: bool):
        """Fetch the block at ``pc`` through the code caches, advancing
        ``now`` to when it is ready; counts it and registers its code
        pages (once per block address) for SMC detection."""
        if self._prof.enabled:
            # scoped, so a demand translation nests under it
            self._prof.enter("vm.fetch")
            lookup = fetch(self.now, pc, prev_pc, arrived_indirect)
            self._prof.exit()
        else:
            lookup = fetch(self.now, pc, prev_pc, arrived_indirect)
        self.now = lookup.ready_time
        block = lookup.block
        self._blocks_executed.add()
        self._fetch_counters[lookup.level].add()
        if pc not in self._pages_registered:
            self._pages_registered.add(pc)
            code_pages = self.code_pages
            for page in pages_spanned(block.guest_address, block.guest_length):
                code_pages.setdefault(page, set()).add(pc)
        return block

    def _finish_block(self, syscall: bool, executed_total: int) -> None:
        """The timing after a block ran: the syscall tile if ``syscall``
        (a syscall exit the guest did not exit at), morphing, the
        periodic metric sample and any pending SMC invalidation."""
        if syscall:
            hops = self._syscall_hops
            if self.tracer.enabled:
                self.tracer.emit(
                    self.now, "net", "msg", "execution",
                    dst="syscall_tile", hops=hops, words=1,
                )
            self.now += self.network.round_trip(hops)
            self.now = self.syscall_tile.service(self.now, SYSCALL_TILE_OCCUPANCY)
            self.stats.bump("syscalls")

        morph = self.morph
        if morph is not None:
            if self._prof.enabled:
                morph_t0 = time.perf_counter_ns()
                self.now += morph.on_block_executed(self.now)
                self._prof.add("morph", time.perf_counter_ns() - morph_t0)
            else:
                self.now += morph.on_block_executed(self.now)

        self._blocks_since_metrics += 1
        if self._blocks_since_metrics >= METRICS_SAMPLE_INTERVAL_BLOCKS:
            self._blocks_since_metrics = 0
            self._executed_instructions = executed_total
            self._sample_metrics()

        if self.pending_smc:
            self._invalidate_smc_pages()

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
        dispatched block, compiled or not, registered its pages in
        ``code_pages``, so a write to any of them lands here before the
        next dispatch.
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
    jit: bool = True,
    checked: Optional[str] = None,
) -> TimingRunResult:
    """Convenience wrapper: build a :class:`TimingVM` and run it.

    Pass a :class:`repro.obs.events.Tracer` to capture a cycle-stamped
    event trace; by default the zero-cost null sink is used.  Pass a
    :class:`repro.dbt.transcache.TranslationCache` (plus a stable
    ``program_key``) to reuse translations across runs of the same
    program, and to replay its guest after the first run (see the
    module docstring) — results are bit-identical either way.  ``jit=False``
    turns the block JIT off and runs every block on the reference
    interpreter's ``step()``; on or off, results are bit-identical (it
    only changes wall-clock speed).
    ``checked="protocol"`` runs the protocol conformance tier (see
    :class:`TimingVM`): any invariant violation raises
    ``repro.verify.findings.VerificationError``.
    """
    return TimingVM(
        program, config, stdin=stdin, tracer=tracer,
        translation_cache=translation_cache, program_key=program_key,
        jit=jit, checked=checked,
    ).run()
