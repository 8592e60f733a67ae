"""Cycle-stamped structured event tracing.

Every timing-simulated component (translator slaves, the speculative
work queues, the code-cache hierarchy, the memory system, the network,
the morph controller) emits typed :class:`TraceEvent` records into a
:class:`Tracer` — a bounded ring buffer, so a long run keeps the most
recent window instead of growing without limit.

The default sink is :data:`NULL_TRACER`, a shared no-op whose
``enabled`` flag is ``False``; hot paths guard their emission with
``if tracer.enabled:`` so a non-traced run pays one attribute load per
potential event and allocates nothing.  Tests assert the null sink
stays empty and the benchmark wall time stays within noise.

Event taxonomy (category / name):

=============  =======================  ==========================================
category       names                    payload (``args``)
=============  =======================  ==========================================
``translate``  ``start`` / ``end``      ``pc``, ``depth``; end adds ``cycles``,
                                        ``host_words`` or ``error``
``codecache``  ``hit`` / ``miss``       ``level`` (``l1`` | ``l1.5`` | ``l2``),
                                        ``pc``
``specq``      ``enqueue``/``dequeue``  ``pc``, ``depth`` (priority), ``qlen``
``morph``      ``reconfig``             ``old``/``new`` shape, tile assignment
``mem``        ``tlb_miss``             ``address``, ``walk_touches``
``net``        ``msg``                  ``src``, ``dst``, ``hops``, ``words``
``smc``        ``write`` /              ``gen``, ``page``; invalidate adds
               ``invalidate``           ``victims`` (blocks dropped)
``vm``         (free-form)              run-level markers
=============  =======================  ==========================================

Tiles are string labels (``execution``, ``manager``, ``slave3``,
``l15_bank0``, ``mmu``, ...); the Perfetto exporter maps each distinct
label to one thread so the trace reads like Figure 1's timeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

#: Known event categories (free-form categories are allowed; these are
#: the ones the simulator emits and the exporter styles specially).
CATEGORIES = ("translate", "codecache", "specq", "morph", "mem", "net", "smc", "vm")

#: Default ring-buffer capacity (events kept; older ones are dropped).
DEFAULT_TRACE_CAPACITY = 1 << 16


@dataclass(frozen=True)
class TraceEvent:
    """One cycle-stamped occurrence on one tile."""

    cycle: int
    category: str
    name: str
    tile: str
    args: Optional[Dict[str, object]] = field(default=None)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "cycle": self.cycle,
            "category": self.category,
            "name": self.name,
            "tile": self.tile,
        }
        if self.args:
            data["args"] = dict(self.args)
        return data


class NullTracer:
    """The do-nothing default sink: ``enabled`` is False, emit is a no-op.

    Shared and stateless — every untraced component points at the same
    :data:`NULL_TRACER` singleton, so "is tracing on?" is a single
    attribute load.
    """

    enabled: bool = False
    capacity: int = 0
    emitted: int = 0

    def emit(
        self,
        cycle: int,
        category: str,
        name: str,
        tile: str,
        **args: object,
    ) -> None:
        return None

    def events(self) -> List[TraceEvent]:
        return []

    @property
    def dropped(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0


#: The shared default sink.
NULL_TRACER = NullTracer()


class Tracer:
    """A bounded, in-order event sink (ring buffer).

    >>> tracer = Tracer(capacity=2)
    >>> tracer.emit(10, "specq", "enqueue", "manager", pc=0x1000, qlen=1)
    >>> tracer.emit(12, "specq", "dequeue", "manager", pc=0x1000, qlen=0)
    >>> tracer.emit(15, "morph", "reconfig", "manager")
    >>> [e.cycle for e in tracer.events()], tracer.dropped
    ([12, 15], 1)
    """

    enabled: bool = True

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)

    def emit(
        self,
        cycle: int,
        category: str,
        name: str,
        tile: str,
        **args: object,
    ) -> None:
        """Record one event (oldest events fall off when full)."""
        self.emitted += 1
        self._ring.append(TraceEvent(cycle, category, name, tile, args or None))

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer overflow."""
        return self.emitted - len(self._ring)

    def events(self) -> List[TraceEvent]:
        """A snapshot of the retained events, in emission order."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0

    def counts_by_category(self) -> Dict[str, int]:
        """Retained-event counts per category (diagnostics / reports)."""
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.category] = counts.get(event.category, 0) + 1
        return dict(sorted(counts.items()))

    def tiles(self) -> List[str]:
        """Distinct tile labels seen, sorted."""
        return sorted({event.tile for event in self._ring})

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)


def events_by_tile(events: List[TraceEvent]) -> Dict[str, List[TraceEvent]]:
    """Group events per tile, each group sorted by cycle (stable)."""
    groups: Dict[str, List[TraceEvent]] = {}
    for event in events:
        groups.setdefault(event.tile, []).append(event)
    for tile_events in groups.values():
        tile_events.sort(key=lambda e: e.cycle)
    return groups
