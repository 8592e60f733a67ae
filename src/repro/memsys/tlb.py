"""Software TLB kept on the MMU tile."""

from __future__ import annotations

from repro.common.lru import LruDict
from repro.common.stats import StatSet
from repro.memsys.pagetable import PAGE_SHIFT, PAGE_SIZE, PageTable

DEFAULT_TLB_ENTRIES = 64


class Tlb:
    """Fully-associative LRU TLB over the two-level page table."""

    def __init__(self, page_table: PageTable, entries: int = DEFAULT_TLB_ENTRIES) -> None:
        self.page_table = page_table
        self._entries = LruDict(entries)
        self.stats = StatSet("tlb")
        # bound once: translate() runs per L1 data miss
        self._lookups = self.stats.lazy_counter("lookups")
        self._hits = self.stats.lazy_counter("hits")
        self._misses = self.stats.lazy_counter("misses")

    def translate(self, address: int) -> tuple:
        """Translate; returns (host_address, walk_touches) — touches is 0 on a hit."""
        page = address >> PAGE_SHIFT
        frame = self._entries.get(page)
        self._lookups.add()
        if frame is not None:
            self._hits.add()
            return (frame << PAGE_SHIFT) | (address & (PAGE_SIZE - 1)), 0
        self._misses.add()
        host_address, touches = self.page_table.walk(address)
        self._entries.put(page, host_address >> PAGE_SHIFT)
        return host_address, touches

    def flush(self) -> None:
        """Drop all entries (e.g. after remapping)."""
        self._entries.clear()
        self.stats.bump("flushes")

    @property
    def miss_rate(self) -> float:
        return self.stats.ratio("misses", "lookups")
