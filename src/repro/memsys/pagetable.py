"""Two-level page tables for the software MMU.

The emulator maintains the translation the guest expects (x86 virtual
-> x86 physical) composed with its own placement (x86 physical -> Raw
physical).  Our guest runs with an identity virtual->physical mapping
(userland, no paging tricks), but the table is a real radix structure
that the MMU walks on TLB misses — the walk's memory touches are what
the timing model charges.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: 10-bit directory index, 10-bit table index (i386 layout).
_DIR_SHIFT = 22
_TABLE_MASK = 0x3FF


class PageFault(Exception):
    """Translation requested for an unmapped guest page."""

    def __init__(self, address: int) -> None:
        super().__init__(f"page fault at {address:#010x}")
        self.address = address


class PageTable:
    """i386-style two-level radix table mapping guest pages to host frames."""

    def __init__(self) -> None:
        self._directory: Dict[int, Dict[int, int]] = {}
        self.mapped_pages = 0

    def map_page(self, guest_page: int, host_frame: Optional[int] = None) -> None:
        """Map ``guest_page`` (page number) to ``host_frame`` (default identity)."""
        if host_frame is None:
            host_frame = guest_page
        dir_index = guest_page >> 10
        table_index = guest_page & _TABLE_MASK
        table = self._directory.setdefault(dir_index, {})
        if table_index not in table:
            self.mapped_pages += 1
        table[table_index] = host_frame

    def map_region(self, start: int, size: int) -> None:
        """Map every page overlapping ``[start, start+size)`` identity-style.

        Equivalent to :meth:`map_page` on each page, but fills each
        directory slot's table with one ``dict.update`` (a VM maps a
        16 MiB heap and a 1 MiB stack, ~4.4k pages, per cell).
        """
        page = start >> PAGE_SHIFT
        last = (start + size - 1) >> PAGE_SHIFT
        directory = self._directory
        while page <= last:
            dir_index = page >> 10
            stop = min(last, page | _TABLE_MASK)  # end of this table's slice
            table = directory.setdefault(dir_index, {})
            before = len(table)
            table.update(zip(range(page & _TABLE_MASK, (stop & _TABLE_MASK) + 1),
                             range(page, stop + 1)))
            self.mapped_pages += len(table) - before
            page = stop + 1

    def walk(self, address: int) -> Tuple[int, int]:
        """Translate ``address``; returns (host_address, memory_touches).

        ``memory_touches`` is the number of table loads the walk
        performed (2 for a present two-level entry) — the MMU charges
        DRAM-ish latency per touch on a TLB miss.
        """
        page = address >> PAGE_SHIFT
        table = self._directory.get(page >> 10)
        if table is None:
            raise PageFault(address)
        frame = table.get(page & _TABLE_MASK)
        if frame is None:
            raise PageFault(address)
        return (frame << PAGE_SHIFT) | (address & (PAGE_SIZE - 1)), 2

    def is_mapped(self, address: int) -> bool:
        try:
            self.walk(address)
            return True
        except PageFault:
            return False
