"""The three-level code cache hierarchy (Figure 3) with chaining.

* **L1 code cache** — lives in the execution tile's 32KB instruction
  memory.  Uses the paper's "tight packing and flushing algorithm":
  blocks are bump-allocated; when full, the whole cache is flushed.
  Chaining happens *only here* — "chaining can only occur once code is
  copied into the instruction memory of the execution-runtime tile
  because it is only at this point that the absolute position of the
  relocatable code block is known".
* **banked L1.5 code cache** — 0, 1 or 2 neighbor tiles (64KB each)
  holding already-translated code for quick refill.  Longer latency
  than L1 and *prevents chaining* (Section 4.2).
* **L2 code cache** — 105MB in off-chip DRAM behind the manager tile,
  which is also the speculative-translation coordinator.  Every access
  occupies the shared manager resource; misses stall until a slave
  translates the block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from repro.common.stats import StatSet
from repro.dbt.block import TranslatedBlock
from repro.dbt.speculative import TranslationSubsystem
from repro.obs.events import NULL_TRACER
from repro.tiled.machine import TILE_IMEM_BYTES, TileGrid, TileRole
from repro.tiled.network import Network
from repro.tiled.resource import Resource

#: Instruction memory left for cached code after the runtime engine.
L1_CODE_CAPACITY = TILE_IMEM_BYTES - 8 * 1024

#: Bytes per L1.5 bank tile.
L15_BANK_CAPACITY = 64 * 1024

#: Dispatch-loop overhead for an unchained control transfer.
DISPATCH_OVERHEAD = 20

#: Extra dispatch cost for indirect targets (hash lookup).
INDIRECT_LOOKUP_OVERHEAD = 12

#: One-time cost of patching a chain into a stub.
CHAIN_PATCH_COST = 8

#: L1.5 bank service occupancy per request (before transfer).
L15_BANK_OCCUPANCY = 10

#: Manager occupancy for an execution-engine L2 code-cache request.
L2_REQUEST_OCCUPANCY = 30

#: The L2 code cache is 105MB of off-chip DRAM behind a software hash
#: table; a fetch costs several main-memory touches (directory walk +
#: block read) on top of the manager's service time.
L2_CODE_DRAM_LATENCY = 200


class L1CodeCache:
    """Tight-packing, flush-on-full code store with chaining."""

    def __init__(self, capacity_bytes: int = L1_CODE_CAPACITY) -> None:
        self.capacity_bytes = capacity_bytes
        self._resident: Dict[int, TranslatedBlock] = {}
        self._bytes_used = 0
        self._chains: Set[Tuple[int, int]] = set()
        self.stats = StatSet("l1_code_cache")
        # lookup() runs once per executed block — cache the two counters
        # it touches instead of paying a dict probe per bump
        self._accesses = self.stats.counter("accesses")
        self._hits = self.stats.counter("hits")
        self._inserts = self.stats.lazy_counter("inserts")
        self._chain_count = self.stats.lazy_counter("chains")

    @property
    def resident(self) -> Dict[int, TranslatedBlock]:
        """The resident blocks by guest pc; callers must not mutate it."""
        return self._resident

    @property
    def chains(self) -> Set[Tuple[int, int]]:
        """The patched ``(src_pc, dst_pc)`` chains; callers must not
        mutate it."""
        return self._chains

    def lookup(self, pc: int) -> Optional[TranslatedBlock]:
        block = self._resident.get(pc)
        self._accesses.value += 1
        if block is not None:
            self._hits.value += 1
        return block

    def count_hits(self, hits: int) -> None:
        """Count ``hits`` lookups that hit, made without :meth:`lookup`."""
        self._accesses.value += hits
        self._hits.value += hits

    def insert(self, block: TranslatedBlock) -> bool:
        """Install a block; returns True when a flush was needed first."""
        flushed = False
        size = block.host_size_bytes
        if size > self.capacity_bytes:
            # an over-sized block still runs, occupying the whole cache
            size = self.capacity_bytes
        if self._bytes_used + size > self.capacity_bytes:
            self.flush()
            flushed = True
        self._resident[block.guest_address] = block
        self._bytes_used += size
        self._inserts.add()
        return flushed

    def flush(self) -> None:
        """Drop everything — including every chain."""
        self._resident.clear()
        self._chains.clear()
        self._bytes_used = 0
        self.stats.bump("flushes")

    # chaining -----------------------------------------------------------

    def try_chain(self, src_pc: int, dst_pc: int) -> bool:
        """Patch src's stub to jump straight to dst (both must be resident)."""
        src = self._resident.get(src_pc)
        if src is None or dst_pc not in src.chain_targets or dst_pc not in self._resident:
            return False
        link = (src_pc, dst_pc)
        if link in self._chains:
            return False
        self._chains.add(link)
        self._chain_count.add()
        return True

    def is_chained(self, src_pc: int, dst_pc: int) -> bool:
        return (src_pc, dst_pc) in self._chains


class L15CodeCache:
    """Banked second-level code cache across neighbor tiles.

    Each bank's hop count from the execution tile is fixed by the
    floorplan, so its message latencies are computed once; a traced
    lookup also emits the ``net.msg`` events.
    """

    def __init__(
        self, bank_coords, execution_coord, grid: TileGrid, network: Network,
        tracer=NULL_TRACER,
    ) -> None:
        self.network = network
        self.tracer = tracer
        self.banks = [
            _L15Bank(coord, f"l15_bank_{i}", grid.hops(execution_coord, coord), network)
            for i, coord in enumerate(bank_coords)
        ]
        self.stats = StatSet("l15_code_cache")
        self._accesses = self.stats.lazy_counter("accesses")
        self._hits = self.stats.lazy_counter("hits")
        self._misses = self.stats.lazy_counter("misses")
        self._inserts = self.stats.lazy_counter("inserts")

    def _bank_for(self, pc: int):
        return self.banks[(pc >> 4) % len(self.banks)]

    def lookup(self, now: int, pc: int) -> Tuple[Optional[TranslatedBlock], int]:
        """Request ``pc``; returns (block or None, completion time)."""
        self._accesses.add()
        bank = self._bank_for(pc)
        name = bank.resource.name
        traced = self.tracer.enabled
        if traced:
            self.network.trace(now, bank.hops, src="execution", dst=name)
        t = now + bank.word_latency
        block = bank.get(pc)
        if block is None:
            self._misses.add()
            t = bank.resource.service(t, L15_BANK_OCCUPANCY)
            if traced:
                self.tracer.emit(t, "codecache", "miss", name, level="l1.5", pc=pc)
                self.network.trace(t, bank.hops, src=name, dst="execution")
            return None, t + bank.word_latency
        self._hits.add()
        t = bank.resource.service(t, L15_BANK_OCCUPANCY + block.transfer_cycles)
        words = block.host_words
        if traced:
            self.tracer.emit(t, "codecache", "hit", name, level="l1.5", pc=pc)
            self.network.trace(t, bank.hops, payload_words=words, src=name, dst="execution")
        return block, t + bank.word_latency + self.network.per_word * (words - 1)

    def insert(self, block: TranslatedBlock) -> None:
        if not self.banks:
            return
        self._bank_for(block.guest_address).put(block)
        self._inserts.add()

    def invalidate(self, pcs) -> None:
        """Drop specific blocks (self-modifying code)."""
        for pc in pcs:
            if self.banks:
                self._bank_for(pc).drop(pc)


class _L15Bank:
    """One L1.5 bank tile: LRU over blocks, bounded by bytes.

    ``hops`` is the bank's distance from the execution tile and
    ``word_latency`` the latency of a one-word message over it.
    """

    def __init__(self, coord, name: str, hops: int, network: Network) -> None:
        self.coord = coord
        self.resource = Resource(name)
        self.hops = hops
        self.word_latency = network.latency(hops)
        self._blocks: "OrderedDict[int, TranslatedBlock]" = OrderedDict()
        self._bytes_used = 0

    def get(self, pc: int) -> Optional[TranslatedBlock]:
        block = self._blocks.get(pc)
        if block is not None:
            self._blocks.move_to_end(pc)
        return block

    def put(self, block: TranslatedBlock) -> None:
        pc = block.guest_address
        if pc in self._blocks:
            self._blocks.move_to_end(pc)
            return
        self._blocks[pc] = block
        self._bytes_used += block.host_size_bytes
        while self._bytes_used > L15_BANK_CAPACITY and self._blocks:
            _, victim = self._blocks.popitem(last=False)
            self._bytes_used -= victim.host_size_bytes

    def drop(self, pc: int) -> None:
        victim = self._blocks.pop(pc, None)
        if victim is not None:
            self._bytes_used -= victim.host_size_bytes


#: Where a fetch can find a block, nearest first; ``translate`` is a
#: demand translation.
FETCH_LEVELS = ("l1", "l1.5", "l2", "translate")


class CodeLookupResult:
    """Where a block came from and when it is ready to execute.

    A plain ``__slots__`` class rather than a dataclass: one of these
    is built per executed block, and the slotted layout measurably
    trims the dispatch loop's allocation cost.
    """

    __slots__ = ("block", "ready_time", "level", "chained_entry")

    def __init__(
        self,
        block: TranslatedBlock,
        ready_time: int,
        level: str,  # one of FETCH_LEVELS
        chained_entry: bool,
    ) -> None:
        self.block = block
        self.ready_time = ready_time
        self.level = level
        self.chained_entry = chained_entry


class CodeCacheHierarchy:
    """Front end the runtime-execution tile talks to.

    The per-block path reads only facts sealed on the block at
    translation time, bumps counters bound on their first use, and
    prices the execution <-> manager messages from the hop count fixed
    at construction; tracing only adds the events.

    The L1 changes only through installs on misses, chain patches and
    flushes.  So a replay, which holds its own L1, calls :meth:`fetch`
    only for the blocks that L1 lacks; a hit is
    ``subsystem.advance(now)``, its dispatch cost read from the L1's
    chains, the resident block, :meth:`patch_chain` where it is
    unchained, and :meth:`L1CodeCache.count_hits` in bulk.
    """

    def __init__(
        self,
        grid: TileGrid,
        network: Network,
        subsystem: TranslationSubsystem,
        l15_banks: int = 2,
        l1_capacity: int = L1_CODE_CAPACITY,
        tracer=NULL_TRACER,
    ) -> None:
        self.grid = grid
        self.network = network
        self.subsystem = subsystem
        self.tracer = tracer
        self.execution = grid.find_one(TileRole.EXECUTION)
        self.manager_coord = grid.find_one(TileRole.MANAGER)
        self.l1 = L1CodeCache(l1_capacity)
        bank_coords = grid.tiles_with_role(TileRole.L15_BANK)[:l15_banks]
        self.l15 = L15CodeCache(bank_coords, self.execution, grid, network, tracer=tracer)
        self.stats = StatSet("code_cache")
        self._manager_hops = grid.hops(self.execution, self.manager_coord)
        self._manager_word_latency = network.latency(self._manager_hops)
        self._l2_accesses = self.stats.lazy_counter("l2_accesses")
        self._l2_misses = self.stats.lazy_counter("l2_misses")
        self._chain_patches = self.stats.lazy_counter("chain_patches")

    def fetch(self, now: int, pc: int, prev_pc: Optional[int], indirect: bool) -> CodeLookupResult:
        """Resolve guest ``pc`` to an executable block, charging timing.

        ``prev_pc`` is the previously executed block (for chaining) and
        ``indirect`` marks arrival through an indirect branch (never
        chained; extra dispatch lookup cost).
        """
        subsystem = self.subsystem
        subsystem.advance(now)
        traced = self.tracer.enabled

        block = self.l1.lookup(pc)
        if block is not None:
            if traced:
                self.tracer.emit(now, "codecache", "hit", "execution", level="l1", pc=pc)
            chained = (
                prev_pc is not None and not indirect and self.l1.is_chained(prev_pc, pc)
            )
            ready = now
            if not chained:
                ready += DISPATCH_OVERHEAD + (INDIRECT_LOOKUP_OVERHEAD if indirect else 0)
                self._maybe_chain(prev_pc, pc, indirect)
            return CodeLookupResult(block, ready, "l1", chained)

        if traced:
            self.tracer.emit(now, "codecache", "miss", "execution", level="l1", pc=pc)
        # L1 miss: through the dispatch loop, then the hierarchy
        t = now + DISPATCH_OVERHEAD + (INDIRECT_LOOKUP_OVERHEAD if indirect else 0)
        if self.l15.banks:
            block, t = self.l15.lookup(t, pc)
            if block is not None:
                t = self._install(block, t, prev_pc, indirect)
                return CodeLookupResult(block, t, "l1.5", False)

        # L1.5 miss: the manager / L2 code cache
        self._l2_accesses.add()
        if traced:
            self.network.trace(t, self._manager_hops, src="execution", dst="manager")
        t += self._manager_word_latency
        t = subsystem.manager.service(t, L2_REQUEST_OCCUPANCY)

        block = subsystem.ready_block(pc, t)
        if block is not None:
            t += L2_CODE_DRAM_LATENCY
            level = "l2"
            if traced:
                self.tracer.emit(t, "codecache", "hit", "manager", level="l2", pc=pc)
        else:
            self._l2_misses.add()
            if traced:
                self.tracer.emit(t, "codecache", "miss", "manager", level="l2", pc=pc)
            demand = subsystem.demand_request(pc, t)
            block = demand.block
            t = demand.ready_time if demand.ready_time > t else t
            level = "translate"

        t += block.transfer_cycles
        words = block.host_words
        if traced:
            self.network.trace(
                t, self._manager_hops, payload_words=words, src="manager", dst="execution"
            )
        t += self._manager_word_latency + self.network.per_word * (words - 1)
        self.l15.insert(block)
        t = self._install(block, t, prev_pc, indirect)
        return CodeLookupResult(block, t, level, False)

    def patch_chain(self, prev_pc: Optional[int], pc: int) -> None:
        """Patch the chain from ``prev_pc`` to ``pc`` as an unchained L1
        hit does, if it can be patched."""
        if prev_pc is not None and self.l1.try_chain(prev_pc, pc):
            self._chain_patches.add()

    def _install(self, block: TranslatedBlock, t: int, prev_pc, indirect: bool) -> int:
        flushed = self.l1.insert(block)
        if flushed:
            self.stats.bump("l1_flushes")
        self._maybe_chain(prev_pc, block.guest_address, indirect)
        # copy into instruction memory
        return t + block.transfer_cycles

    def _maybe_chain(self, prev_pc: Optional[int], pc: int, indirect: bool) -> None:
        if not indirect:
            self.patch_chain(prev_pc, pc)
