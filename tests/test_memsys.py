"""Tests for the pipelined memory system, page table and TLB."""

import random

import pytest

from repro.memsys.memsystem import (
    BANK_OCCUPANCY,
    DRAM_LATENCY,
    L1_HIT_LATENCY,
    PipelinedMemorySystem,
)
from repro.memsys.pagetable import PAGE_SIZE, PageFault, PageTable
from repro.memsys.tlb import Tlb
from repro.tiled.datacache import DataCacheModel
from repro.tiled.machine import TILE_DCACHE_BYTES, default_placement


def make_memsys(banks: int = 4) -> PipelinedMemorySystem:
    grid = default_placement(translator_tiles=6, l2_bank_tiles=banks)
    memsys = PipelinedMemorySystem(grid)
    memsys.page_table.map_region(0, 1 << 24)
    return memsys


class TestPageTable:
    def test_identity_walk(self):
        table = PageTable()
        table.map_region(0x8048000, 0x2000)
        address, touches = table.walk(0x8048123)
        assert address == 0x8048123
        assert touches == 2

    def test_unmapped_faults(self):
        with pytest.raises(PageFault):
            PageTable().walk(0x1000)

    def test_non_identity_mapping(self):
        table = PageTable()
        table.map_page(guest_page=5, host_frame=100)
        address, _ = table.walk(5 * PAGE_SIZE + 7)
        assert address == 100 * PAGE_SIZE + 7

    def test_mapped_pages_counted_once(self):
        table = PageTable()
        table.map_page(1)
        table.map_page(1)
        assert table.mapped_pages == 1

    def test_map_region_equals_page_by_page_mapping(self):
        # regions straddling 4 MiB directory slots, unaligned ends, a
        # zero-size region, overlaps and a non-identity page overwritten
        regions = [
            ((1 << 22) - 3 * PAGE_SIZE, 5 * PAGE_SIZE),
            (0x8048123, 0x2001),
            (0x8049000, 0x10),
            ((1 << 22) - PAGE_SIZE + 1, 2),
            (0x8048FFF, 0),
            (0xBFF00000, 0x100000),
            (0x08100000, (1 << 24) + 0x1234),
            (0x08101000, 3 * (1 << 22)),
        ]
        bulk, paged = PageTable(), PageTable()
        for table in (bulk, paged):
            table.map_page(guest_page=0x08049, host_frame=100)
        for start, size in regions:
            bulk.map_region(start, size)
            for page in range(start >> 12, ((start + size - 1) >> 12) + 1):
                paged.map_page(page)
            assert bulk._directory == paged._directory
            assert bulk.mapped_pages == paged.mapped_pages == sum(
                len(table) for table in paged._directory.values()
            )
        assert bulk.walk(0x08049010) == (0x08049010, 2)


class TestTlb:
    def test_hit_after_miss(self):
        table = PageTable()
        table.map_region(0, 0x10000)
        tlb = Tlb(table, entries=4)
        _, touches = tlb.translate(0x1234)
        assert touches == 2
        _, touches = tlb.translate(0x1238)
        assert touches == 0  # same page: hit
        assert tlb.miss_rate == 0.5

    def test_capacity_eviction(self):
        table = PageTable()
        table.map_region(0, 0x100000)
        tlb = Tlb(table, entries=2)
        for page in range(3):
            tlb.translate(page * PAGE_SIZE)
        _, touches = tlb.translate(0)  # evicted by pages 1, 2
        assert touches == 2

    def test_flush(self):
        table = PageTable()
        table.map_region(0, 0x10000)
        tlb = Tlb(table)
        tlb.translate(0)
        tlb.flush()
        _, touches = tlb.translate(0)
        assert touches == 2


class TestPipelinedMemorySystem:
    def test_l1_hit_has_no_extra_stall(self):
        memsys = make_memsys()
        memsys.access(0, 0x1000, False)  # warm
        outcome = memsys.access(100, 0x1000, False)
        assert outcome.l1_hit
        assert outcome.stall_cycles == 0

    def test_l1_miss_costs_about_table11_l2_hit(self):
        memsys = make_memsys()
        # warm the bank + TLB so the second access to a *different* L1
        # line in the same bank line region is a pure L1-miss/bank-hit
        memsys.access(0, 0x2000, False)
        memsys.l1.flush()
        outcome = memsys.access(10_000, 0x2000, False)
        assert not outcome.l1_hit
        assert outcome.bank_hit
        # end-to-end latency = stall + L1 hit latency; Table 11 says 87
        total = outcome.stall_cycles + L1_HIT_LATENCY
        assert 75 <= total <= 100

    def test_bank_miss_adds_dram_latency(self):
        memsys = make_memsys()
        memsys.access(0, 0x3000, False)  # TLB warm
        memsys.l1.flush()
        for bank in memsys.banks:
            bank.cache.flush()
        outcome = memsys.access(10_000, 0x3000, False)
        assert not outcome.bank_hit
        total = outcome.stall_cycles + L1_HIT_LATENCY
        assert 135 <= total <= 170  # Table 11: ~151

    def test_soft_page_fault_maps_page(self):
        memsys = make_memsys()
        outcome = memsys.access(0, 0x5000000, False)  # beyond mapped region
        assert memsys.stats["soft_page_faults"] == 1
        assert memsys.page_table.is_mapped(0x5000000)

    def test_bank_contention_queues(self):
        memsys = make_memsys(banks=1)
        memsys.page_table.map_region(0, 1 << 20)
        # two misses to the same bank back to back: the second waits
        a = memsys.access(0, 0x10000, False)
        b = memsys.access(0, 0x20040, False)
        assert b.stall_cycles > a.stall_cycles - DRAM_LATENCY  # queued behind a

    def test_no_banks_goes_straight_to_dram(self):
        memsys = make_memsys(banks=0)
        outcome = memsys.access(0, 0x1000, False)
        assert not outcome.l1_hit or outcome.stall_cycles == 0
        memsys.l1.flush()
        outcome = memsys.access(1000, 0x1000, False)
        assert outcome.stall_cycles >= BANK_OCCUPANCY

    def test_reconfigure_flushes_and_charges(self):
        memsys = make_memsys(banks=4)
        memsys.access(0, 0x1000, True)  # dirty line in some bank
        memsys.l1.flush()
        coords = [b.coord for b in memsys.banks][:1]
        cost = memsys.reconfigure_banks(coords, now=1000)
        assert cost > 0
        assert memsys.bank_count == 1

    def test_miss_pricing_follows_the_bank_list(self):
        # miss() prices its messages from latencies computed when the
        # bank list is built: they must be the floorplan's after morphing
        memsys = make_memsys(banks=4)
        grid, network = memsys.grid, memsys.network
        all_coords = [b.coord for b in memsys.banks]
        for coords in (all_coords[:1], all_coords[1:3], all_coords):
            memsys.reconfigure_banks(coords, now=0)
            assert [b.coord for b in memsys.banks] == coords
            for bank in memsys.banks:
                assert bank.mmu_hops == grid.hops(memsys.mmu_coord, bank.coord)
                assert bank.mmu_latency == network.latency(bank.mmu_hops)
                assert bank.execution_hops == grid.hops(bank.coord, memsys.execution)
                assert bank.execution_latency == network.latency(bank.execution_hops)
        assert memsys._mmu_latency == network.latency(
            grid.hops(memsys.execution, memsys.mmu_coord))

    def test_write_allocates_dirty(self):
        memsys = make_memsys()
        memsys.access(0, 0x4000, True)
        assert memsys.l1.stats["misses"] == 1
        outcome = memsys.access(10, 0x4000, False)
        assert outcome.l1_hit

    def test_access_is_l1_lookup_plus_miss(self):
        # a replay calls miss() only where its recorded L1 missed: a
        # separate L1 model deciding which accesses reach miss() must
        # leave every stall and counter as access() does
        rng = random.Random(2006)
        stream = []
        for _ in range(4000):
            if rng.random() < 0.02:
                address = 0x5000000 + rng.randrange(1 << 16)  # unmapped: soft fault
            else:
                address = rng.choice((0x1000, 0x40000, 0x800000)) + rng.randrange(1 << 14)
            stream.append((address, rng.random() < 0.3))
        reference, split = make_memsys(), make_memsys()
        l1 = DataCacheModel("l1", size_bytes=TILE_DCACHE_BYTES, ways=8)
        stalls = {"access": [], "miss": []}
        now = 0
        for step, (address, is_write) in enumerate(stream):
            if step == 2000:
                for memsys in (reference, split):
                    memsys.reconfigure_banks([b.coord for b in memsys.banks][:2], now)
            stalls["access"].append(reference.access(now, address, is_write).stall_cycles)
            split.stats.bump("accesses")
            stall = 0
            if not l1.access(address, is_write).hit:
                stall = split.miss(now, address, is_write).stall_cycles
            stalls["miss"].append(stall)
            now += 7 + rng.randrange(40)
        assert stalls["access"] == stalls["miss"]
        assert any(stalls["miss"])
        assert reference.stats.as_dict() == split.stats.as_dict()
        assert reference.stats["accesses"] == len(stream)
        for counter in ("soft_page_faults", "tlb_misses", "dram_accesses", "reconfigurations"):
            assert reference.stats[counter] > 0, counter
        assert 0 < reference.stats["l1_misses"] < len(stream)
        assert reference.l1.stats.as_dict() == l1.stats.as_dict()
