"""The pipelined memory system's timing composition.

Path of an L1 miss (Figure 2)::

    execution tile --net--> MMU tile (TLB, walk on miss)
                   --net--> L2 bank tile (transactor for its address slice)
                   [--DRAM on bank miss--]
                   --net--> execution tile

Constants are chosen so the composed latencies land on Table 11:
an L2(-bank) hit costs ~87 cycles end to end and a bank miss ~151.
Occupancies queue FCFS at the MMU and at each bank, so memory-intensive
phases create real contention, and trading bank tiles for translator
tiles (Figure 9) changes both capacity and bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.stats import StatSet
from repro.memsys.pagetable import PAGE_SHIFT, PageFault, PageTable
from repro.obs.events import NULL_TRACER
from repro.memsys.tlb import Tlb
from repro.tiled.datacache import DataCacheModel
from repro.tiled.machine import TILE_DCACHE_BYTES, TileGrid, TileRole
from repro.tiled.network import Network
from repro.tiled.resource import Resource

#: Execution-tile L1 D-cache (charged inside block cost on hits).
L1_HIT_LATENCY = 6

#: MMU tile service time per request (software translation dispatch).
MMU_OCCUPANCY = 10

#: Extra MMU cycles per page-table touch on a TLB miss.
WALK_TOUCH_COST = 20

#: L2 bank transactor service time per request.  With one hop to the
#: MMU and a two-hop reply this composes to the paper's 87-cycle L2 hit.
BANK_OCCUPANCY = 57

#: Additional latency when the bank misses to off-chip DRAM.
DRAM_LATENCY = 64

#: Cycles per dirty line written back during a flush (reconfiguration).
WRITEBACK_COST = 8

#: Fixed pipeline-drain cost when banks are reconfigured.
RECONFIGURE_DRAIN = 200

#: Soft page fault: the proxy OS maps a fresh page (stack growth, brk).
SOFT_PAGE_FAULT_COST = 400


@dataclass
class MemoryAccessOutcome:
    """Timing result of one data access."""

    stall_cycles: int  # extra stall beyond the in-block L1-hit cost
    l1_hit: bool
    bank_hit: bool = True
    tlb_hit: bool = True


#: The overwhelmingly common outcome (an L1 hit stalls nothing), shared
#: so the per-access fast path allocates no object.
_L1_HIT_OUTCOME = MemoryAccessOutcome(stall_cycles=0, l1_hit=True)


class _Bank:
    """One L2 data-cache bank tile.

    ``mmu_hops`` and ``execution_hops`` are its distances from the MMU
    tile and to the execution tile, and ``mmu_latency`` and
    ``execution_latency`` the latencies of a one-word message over them.
    """

    def __init__(self, coord, name: str, grid: TileGrid, network: Network,
                 mmu_coord, execution_coord) -> None:
        self.coord = coord
        self.resource = Resource(name)
        self.cache = DataCacheModel(name, size_bytes=TILE_DCACHE_BYTES, ways=4)
        self.mmu_hops = grid.hops(mmu_coord, coord)
        self.mmu_latency = network.latency(self.mmu_hops)
        self.execution_hops = grid.hops(coord, execution_coord)
        self.execution_latency = network.latency(self.execution_hops)


class PipelinedMemorySystem:
    """Timing model of the L1 / MMU / banked-L2 / DRAM data path.

    ``hardware_mmu`` models the Section 5 proposal of adding TLB-backed
    loads/stores to the tiles: the L1 hit drops to PIII-class latency
    (the block cost model handles that side) and the miss path skips
    the software-translation occupancy on the MMU tile.

    The miss path prices its three messages from latencies computed
    once: the MMU hop at construction, and each bank's hops whenever
    :meth:`reconfigure_banks` builds the bank list.  A traced miss
    also emits their ``net.msg`` events.
    """

    def __init__(
        self,
        grid: TileGrid,
        network: Optional[Network] = None,
        hardware_mmu: bool = False,
        tracer=NULL_TRACER,
    ) -> None:
        self.grid = grid
        self.network = network or Network()
        self.hardware_mmu = hardware_mmu
        self.tracer = tracer
        self.l1_hit_latency = 3 if hardware_mmu else L1_HIT_LATENCY
        self._mmu_occupancy = 2 if hardware_mmu else MMU_OCCUPANCY
        self._walk_touch_cost = 8 if hardware_mmu else WALK_TOUCH_COST
        self.execution = grid.find_one(TileRole.EXECUTION)
        self.mmu_coord = grid.find_one(TileRole.MMU)
        if self.execution is None or self.mmu_coord is None:
            raise ValueError("grid must place EXECUTION and MMU tiles")
        self.l1 = DataCacheModel("l1_dcache", size_bytes=TILE_DCACHE_BYTES, ways=8)
        self.mmu = Resource("mmu")
        self.page_table = PageTable()
        self.tlb = Tlb(self.page_table)
        self._mmu_hops = grid.hops(self.execution, self.mmu_coord)
        self._mmu_latency = self.network.latency(self._mmu_hops)
        self.banks: List[_Bank] = self._build_banks(grid.tiles_with_role(TileRole.L2_BANK))
        self.stats = StatSet("memsys")
        # bound once: access() runs per guest memory reference, miss()
        # per L1 miss
        self._c_accesses = self.stats.counter("accesses")
        self._c_l1_misses = self.stats.lazy_counter("l1_misses")
        self._c_soft_page_faults = self.stats.lazy_counter("soft_page_faults")
        self._c_tlb_misses = self.stats.lazy_counter("tlb_misses")
        self._c_dram_accesses = self.stats.lazy_counter("dram_accesses")
        self._c_stall_cycles = self.stats.lazy_counter("stall_cycles")

    # -- configuration ------------------------------------------------------

    @property
    def bank_count(self) -> int:
        return len(self.banks)

    def reconfigure_banks(self, coords, now: int) -> int:
        """Re-provision the bank set (morphing); returns the cost in cycles.

        Shrinking or growing the L2 data cache flushes every old bank
        (dirty lines written back) and drains the memory pipeline.
        """
        cost = RECONFIGURE_DRAIN
        for bank in self.banks:
            cost += WRITEBACK_COST * bank.cache.flush()
        self.banks = self._build_banks(coords)
        for bank in self.banks:
            bank.resource.reset(now)
        self.stats.bump("reconfigurations")
        return cost

    def _build_banks(self, coords) -> List[_Bank]:
        return [
            _Bank(coord, f"l2_bank_{i}", self.grid, self.network, self.mmu_coord, self.execution)
            for i, coord in enumerate(coords)
        ]

    # -- access path -----------------------------------------------------------

    def _bank_for(self, address: int) -> Optional[_Bank]:
        if not self.banks:
            return None
        line = address >> 5
        return self.banks[line % len(self.banks)]

    def _bank_local_address(self, address: int) -> int:
        """Fold out the interleave bits so each bank indexes its slice
        densely (otherwise 1/num_banks of each bank's sets would be
        unreachable)."""
        line = address >> 5
        return ((line // len(self.banks)) << 5) | (address & 31)

    def access(self, now: int, address: int, is_write: bool) -> MemoryAccessOutcome:
        """Charge one data access issued by the execution tile at ``now``:
        the L1 lookup, then :meth:`miss` if it missed."""
        self._c_accesses.value += 1
        if self.l1.access(address, is_write).hit:
            return _L1_HIT_OUTCOME
        return self.miss(now, address, is_write)

    def miss(self, now: int, address: int, is_write: bool) -> MemoryAccessOutcome:
        """Charge the part of an access at ``now`` that missed the L1.

        :meth:`access` is the L1 lookup plus this; the lookup and the
        ``accesses`` count are the caller's.  A replay that knows its
        L1 outcomes calls this for the misses alone: the L1 sees only
        the access stream, never a config or a time, and a hit stalls
        nothing (:data:`_L1_HIT_OUTCOME`).  The messages are priced from
        the latencies fixed by the floorplan (see the class docstring),
        and the counters are bound once.
        """
        self._c_l1_misses.add()
        network = self.network
        traced = network.tracer.enabled  # type: ignore[attr-defined]
        # ship the request to the MMU tile
        if traced:
            network.trace(now, self._mmu_hops, src="execution", dst="mmu")
        t = now + self._mmu_latency
        try:
            host_address, walk_touches = self.tlb.translate(address)
        except PageFault:
            # demand paging: the functional layer has already validated the
            # access, so this is legitimate growth (stack, brk) — the proxy
            # OS maps a page and retries
            self.page_table.map_page(address >> PAGE_SHIFT)
            self._c_soft_page_faults.add()
            t += SOFT_PAGE_FAULT_COST
            host_address, walk_touches = self.tlb.translate(address)
        mmu_occupancy = self._mmu_occupancy + self._walk_touch_cost * walk_touches
        if walk_touches:
            self._c_tlb_misses.add()
            if self.tracer.enabled:
                self.tracer.emit(
                    t, "mem", "tlb_miss", "mmu",
                    address=address, walk_touches=walk_touches,
                )
        t = self.mmu.service(t, mmu_occupancy)

        bank = self._bank_for(host_address)
        if bank is None:
            # no L2 banks provisioned: straight to DRAM
            t += DRAM_LATENCY + BANK_OCCUPANCY
            bank_hit = False
            self._c_dram_accesses.add()
        else:
            if traced:
                network.trace(t, bank.mmu_hops, src="mmu", dst=bank.resource.name)
            t += bank.mmu_latency
            bank_result = bank.cache.access(self._bank_local_address(host_address), is_write)
            service = BANK_OCCUPANCY
            if not bank_result.hit:
                service += DRAM_LATENCY
                self._c_dram_accesses.add()
            if bank_result.writeback:
                service += WRITEBACK_COST
            t = bank.resource.service(t, service)
            bank_hit = bank_result.hit
            if traced:
                network.trace(t, bank.execution_hops, src=bank.resource.name, dst="execution")
            t += bank.execution_latency

        # the block cost already charged the L1-hit latency; only the
        # excess is an extra stall
        stall = max(0, (t - now) - self.l1_hit_latency)
        self._c_stall_cycles.add(stall)
        return MemoryAccessOutcome(
            stall_cycles=stall,
            l1_hit=False,
            bank_hit=bank_hit,
            tlb_hit=walk_touches == 0,
        )

    # -- derived statistics -------------------------------------------------------

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.miss_rate
