"""Speculative parallel translation (Section 2.1).

The manager tile keeps prioritized queues of guest addresses to
translate; slave tiles run ahead of execution, translating down
predicted control-flow paths and depositing results in the L2 code
cache.  Priority is the speculation depth — "as the work becomes more
speculative, or further from the last known piece of executed code, it
is given a lower priority".

Modeled faithfully from the paper:

* **no preemption** — a demand miss whose block is not yet translated
  waits for a slave to free up (the cause of the vpr/gcc/crafty anomaly
  in Figure 5);
* the **manager is a shared resource**: every slave deposit occupies
  it, competing with the execution engine's requests (Figure 6's
  congestion);
* the **conservative mode** (1 non-speculative translator) translates
  only on demand, approximating a classic sequential translator;
* **no speculation beyond unresolved indirect branches**, and the
  return predictor feeds the low-priority queue.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, List, Optional

from repro.common.stats import StatSet
from repro.guest.interpreter import GuestFault
from repro.dbt.block import TranslatedBlock
from repro.dbt.frontend import TranslationError
from repro.dbt.translator import Translator
from repro.obs import prof
from repro.obs.events import NULL_TRACER
from repro.obs.metrics import MetricsRegistry
from repro.tiled.resource import Resource

#: Bucket bounds for the queue-depth histogram (queues cap at 4x64).
_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Bucket bounds for translated-block guest-instruction counts.
_BLOCK_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Number of priority levels; deeper speculation folds into the last.
PRIORITY_LEVELS = 4

#: Speculation stops past this depth from known-executed code.
MAX_SPECULATION_DEPTH = 8

#: Per-queue cap: keeps runaway speculation bounded, as a real
#: fixed-memory manager tile would.
QUEUE_CAP = 64

#: Manager occupancy for a slave depositing a finished block.
DEPOSIT_OCCUPANCY = 12

#: Sort key of the slave timeline: the earliest-free slave goes first
#: (``min`` keeps the first of equals, i.e. the lowest slave index).
_busy_until = attrgetter("busy_until")


class _State(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class _WorkItem:
    pc: int
    depth: int
    enqueue_time: int


@dataclass
class _Entry:
    state: _State
    depth: int
    block: Optional[TranslatedBlock] = None
    available_at: int = 0
    error: Optional[str] = None


@dataclass
class _Slave:
    index: int
    busy_until: int = 0
    blocks_translated: int = 0
    busy_cycles: int = 0


class TranslationSubsystem:
    """Manager + slave-tile timeline for (speculative) translation."""

    def __init__(
        self,
        translator: Translator,
        slave_count: int,
        manager: Resource,
        speculative: bool = True,
        tracer=NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if slave_count < 1:
            raise ValueError("need at least one translation slave")
        self.translator = translator
        self.manager = manager
        self.speculative = speculative
        self.slaves: List[_Slave] = [_Slave(i) for i in range(slave_count)]
        self._queues: List[Deque[_WorkItem]] = [deque() for _ in range(PRIORITY_LEVELS)]
        self._queued = 0  # total items across the queues (hot-path early-out)
        self._entries: Dict[int, _Entry] = {}
        self._queue_high_water = 0
        self.stats = StatSet("translation_subsystem")
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry("translation")
        self._prof = prof.active()
        # the per-translation counters and histograms
        counter, histogram = self.stats.lazy_counter, self.metrics.lazy_histogram
        self._enqueued = counter("enqueued")
        self._depth_histogram = histogram("specq.depth", _DEPTH_BUCKETS)
        self._translated = counter("blocks_translated")
        self._demand_translations = counter("demand_translations")
        self._speculative_translations = counter("speculative_translations")
        self._latency_histogram = histogram("translate.latency")
        self._block_size_histogram = histogram(
            "translate.block_guest_instrs", _BLOCK_SIZE_BUCKETS
        )
        self._queue_wait_histogram = histogram("translate.queue_wait")

    # -- configuration (morphing) ------------------------------------------

    @property
    def slave_count(self) -> int:
        return len(self.slaves)

    def set_slave_count(self, count: int, now: int) -> None:
        """Grow or shrink the slave pool at ``now`` (dynamic morphing)."""
        if count < 1:
            raise ValueError("need at least one translation slave")
        if count > len(self.slaves):
            for index in range(len(self.slaves), count):
                self.slaves.append(_Slave(index, busy_until=now))
        else:
            # retire the busiest-tail slaves; in-flight work completes
            # conceptually before the tile is handed over, modeled by
            # simply dropping idle slaves first
            self.slaves.sort(key=_busy_until)
            self.slaves = self.slaves[:count]
        self.stats.bump("reconfigurations")

    # -- queue management -------------------------------------------------------

    def queue_length(self) -> int:
        """Total blocks waiting to be translated."""
        return self._queued

    def take_queue_high_water(self) -> int:
        """Peak queue depth since the last call (the morphing metric).

        The manager tile tracks a high-water register because the
        instantaneous depth is misleading: a demand stall lets the
        slaves drain the queue before the reconfiguration manager gets
        to sample it.
        """
        peak = max(self._queue_high_water, self.queue_length())
        self._queue_high_water = 0
        return peak

    def _bucket(self, depth: int) -> int:
        return min(depth, PRIORITY_LEVELS - 1)

    def _enqueue(self, pc: int, depth: int, time: int) -> None:
        entry = self._entries.get(pc)
        if entry is not None:
            return  # already queued / running / done / failed
        bucket = self._bucket(depth)
        if len(self._queues[bucket]) >= QUEUE_CAP:
            self.stats.bump("enqueue_drops")
            return
        self._entries[pc] = _Entry(_State.QUEUED, depth)
        self._queues[bucket].append(_WorkItem(pc, depth, time))
        self._queued += 1
        depth_now = self._queued
        if depth_now > self._queue_high_water:
            self._queue_high_water = depth_now
        self._enqueued.add()
        self._depth_histogram.observe(depth_now)
        if self.tracer.enabled:
            self.tracer.emit(
                time, "specq", "enqueue", "manager",
                pc=pc, depth=depth, qlen=depth_now,
            )

    def _pop_work(self, by_time: int) -> Optional[_WorkItem]:
        for queue in self._queues:
            for index, item in enumerate(queue):
                if item.enqueue_time <= by_time:
                    del queue[index]
                    self._queued -= 1
                    return item
        return None

    # -- the slave timeline ----------------------------------------------------

    def advance(self, now: int) -> None:
        """Run the slave tiles' timeline up to cycle ``now``."""
        if not self._queued:
            # steady state of a warm run: every reachable block is
            # translated and the queues are drained, but the execution
            # tile still calls advance() once per fetched block — skip
            # the slave min-scan and the queue walk (no state changes
            # can happen with nothing queued)
            return
        if self._prof.enabled:
            with self._prof.phase("vm.spec"):
                self._advance(now)
        else:
            self._advance(now)

    def _advance(self, now: int) -> None:
        slaves = self.slaves
        while True:
            slave = min(slaves, key=_busy_until)
            if slave.busy_until > now:
                return
            item = self._pop_work(by_time=now)
            if item is None:
                return
            self._run_item(slave, item, now_cap=now)

    def _run_item(self, slave: _Slave, item: _WorkItem, now_cap: int) -> None:
        start = max(slave.busy_until, item.enqueue_time)
        entry = self._entries[item.pc]
        entry.state = _State.RUNNING
        slave_tile = f"slave{slave.index}"
        if self.tracer.enabled:
            self.tracer.emit(
                start, "specq", "dequeue", "manager",
                pc=item.pc, depth=item.depth, qlen=self.queue_length(),
            )
            self.tracer.emit(
                start, "translate", "start", slave_tile, pc=item.pc, depth=item.depth
            )
        try:
            block = self.translator.translate(item.pc)
        except (TranslationError, GuestFault) as err:
            # speculation ran into non-code bytes; burn a nominal cost
            slave.busy_until = start + 200
            slave.busy_cycles += 200
            entry.state = _State.FAILED
            entry.error = str(err)
            self.stats.bump("speculation_failures")
            if self.tracer.enabled:
                self.tracer.emit(
                    start + 200, "translate", "end", slave_tile,
                    pc=item.pc, cycles=200, error=str(err),
                )
            return
        completion = start + block.translation_cycles
        # Parsing is the cheap front of the pipeline: successors are
        # known (and enqueued) long before optimization and code
        # generation finish, so the speculation frontier runs ahead of
        # translation throughput and the work queues actually build up.
        scan_done = start + max(50, block.translation_cycles // 6)
        # depositing the result occupies the shared manager tile
        deposit_done = self.manager.service(completion, DEPOSIT_OCCUPANCY)
        slave.busy_until = completion
        slave.busy_cycles += completion - start
        slave.blocks_translated += 1
        entry.state = _State.DONE
        entry.block = block
        entry.available_at = deposit_done
        self._translated.add()
        if entry.depth == 0:
            self._demand_translations.add()
        else:
            self._speculative_translations.add()
        self._latency_histogram.observe(completion - start)
        self._block_size_histogram.observe(block.guest_instr_count)
        self._queue_wait_histogram.observe(start - item.enqueue_time)
        if self.tracer.enabled:
            self.tracer.emit(
                completion, "translate", "end", slave_tile,
                pc=item.pc, cycles=completion - start,
                host_words=block.host_words, guest_instrs=block.guest_instr_count,
            )

        if self.speculative and item.depth < MAX_SPECULATION_DEPTH:
            for prediction in block.predictions:
                self._enqueue(
                    prediction.target,
                    item.depth + 1 + prediction.depth_bonus,
                    scan_done,
                )

    # -- the execution engine's interface ---------------------------------------

    def lookup(self, pc: int) -> Optional[_Entry]:
        """Non-timing peek at the L2 code-cache state for ``pc``."""
        return self._entries.get(pc)

    def ready_block(self, pc: int, t: int) -> Optional[TranslatedBlock]:
        """The L2 code cache's block for ``pc`` if it is deposited by
        cycle ``t``, else ``None`` (queued, running, failed or absent)."""
        entry = self._entries.get(pc)
        if entry is not None and entry.state is _State.DONE and entry.available_at <= t:
            return entry.block
        return None

    def invalidate_range(self, start: int, length: int) -> int:
        """Drop finished translations overlapping ``[start, start+length)``.

        Used for self-modifying code: a write into translated guest
        code forces re-translation.  In-flight and queued work is left
        alone — it reads guest memory at translation time, so it picks
        up the new bytes anyway.
        """
        end = start + length
        victims = []
        for pc, entry in self._entries.items():
            if entry.state not in (_State.DONE, _State.FAILED):
                continue
            block_len = entry.block.guest_length if entry.block else 1
            if pc < end and start < pc + max(1, block_len):
                victims.append(pc)
        for pc in victims:
            del self._entries[pc]
        if victims:
            self.stats.bump("smc_invalidations")
            self.stats.bump("blocks_invalidated", len(victims))
        return len(victims)

    def demand_request(self, pc: int, now: int) -> "DemandResult":
        """The execution engine needs ``pc``; returns block + ready time.

        Advances the subsystem to ``now`` first.  If the block is not
        available the request is enqueued at top priority and the
        timeline is run forward until it completes (the execution tile
        is stalled, so nothing else can happen meanwhile) — including
        the paper's non-preemption: all busy slaves finish their
        current speculative work first.
        """
        self.advance(now)
        entry = self._entries.get(pc)

        if entry is not None and entry.state is _State.FAILED:
            raise GuestFault(pc, f"translation failed: {entry.error}")

        if entry is not None and entry.state is _State.DONE:
            ready = entry.available_at if entry.available_at > now else now
            return DemandResult(entry.block, ready, translated_on_demand=False)

        self.stats.bump("demand_misses")
        if entry is None:
            self._entries[pc] = _Entry(_State.QUEUED, 0)
            self._queues[0].append(_WorkItem(pc, 0, now))
            self._queued += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    now, "specq", "enqueue", "manager",
                    pc=pc, depth=0, qlen=self.queue_length(), demand=True,
                )
        else:
            # escalate an already-queued speculative item to demand priority
            for queue in self._queues[1:]:
                for index, item in enumerate(queue):
                    if item.pc == pc:
                        del queue[index]
                        self._queues[0].append(_WorkItem(pc, 0, now))
                        break

        request_time = now
        # Run the timeline until this block completes.  The demand item
        # sits in the top-priority queue, so the first slave to free up
        # takes it; slaves already running speculative work finish it
        # first (no preemption).
        guard = 0
        while True:
            entry = self._entries[pc]
            if entry.state is _State.DONE:
                self.stats.bump("demand_wait_cycles", max(0, entry.available_at - request_time))
                return DemandResult(entry.block, entry.available_at, translated_on_demand=True)
            if entry.state is _State.FAILED:
                raise GuestFault(pc, f"translation failed: {entry.error}")
            slave = min(self.slaves, key=_busy_until)
            item = self._pop_work(by_time=2**62)
            if item is None:  # pragma: no cover - the demand item exists
                raise GuestFault(pc, "translation queue lost a demand request")
            self._run_item(slave, item, now_cap=2**62)
            guard += 1
            if guard > 100000:  # pragma: no cover
                raise GuestFault(pc, "translation timeline livelock")


@dataclass
class DemandResult:
    """Outcome of a demand request to the translation subsystem."""

    block: TranslatedBlock
    ready_time: int
    translated_on_demand: bool
