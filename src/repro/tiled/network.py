"""Dynamic network latency model.

Raw's dynamic networks are dimension-ordered wormhole routers with
register-mapped injection.  The model charges an injection/extraction
overhead plus a per-hop wire cost plus payload serialization — enough
to make spatial placement (hop counts) matter the way the paper's
"spatial pipelining takes into account wire delays" remark demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.obs.events import NULL_TRACER

Coord = Tuple[int, int]

#: Cycles to inject and extract a message at the endpoints.
ENDPOINT_OVERHEAD = 4

#: Cycles per network hop (router + wire).
PER_HOP = 2

#: Cycles per 32-bit payload word beyond the first (serialization).
PER_WORD = 1


@dataclass
class Network:
    """Latency oracle over a grid (stateless; congestion is modeled at
    the endpoint resources, not in the fabric)."""

    per_hop: int = PER_HOP
    endpoint_overhead: int = ENDPOINT_OVERHEAD
    per_word: int = PER_WORD
    tracer: object = field(default=NULL_TRACER, repr=False, compare=False)

    def latency(self, hops: int, payload_words: int = 1) -> int:
        """One-way latency for a message of ``payload_words``."""
        extra_words = max(0, payload_words - 1)
        return self.endpoint_overhead + self.per_hop * hops + self.per_word * extra_words

    def message(
        self,
        now: int,
        hops: int,
        payload_words: int = 1,
        src: str = "net",
        dst: str = "",
    ) -> int:
        """Like :meth:`latency`, but cycle-aware: when tracing is on, a
        ``net.msg`` event is stamped at injection time ``now`` on the
        sending tile."""
        if self.tracer.enabled:  # type: ignore[attr-defined]
            self.trace(now, hops, payload_words, src, dst)
        return self.latency(hops, payload_words)

    def trace(
        self,
        now: int,
        hops: int,
        payload_words: int = 1,
        src: str = "net",
        dst: str = "",
    ) -> None:
        """Emit the ``net.msg`` event of a message injected at ``now``.

        For callers that price their messages from precomputed
        latencies and only need the event when tracing is on.
        """
        self.tracer.emit(  # type: ignore[attr-defined]
            now, "net", "msg", src, dst=dst, hops=hops, words=payload_words
        )

    def round_trip(self, hops: int, request_words: int = 1, reply_words: int = 1) -> int:
        """Request/reply latency excluding service occupancy."""
        return self.latency(hops, request_words) + self.latency(hops, reply_words)
