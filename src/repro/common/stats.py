"""Statistics counters shared by every simulated component.

A :class:`StatSet` is a named bag of counters.  Components create their
own stat sets and the harness merges them into run-level reports; the
figures in the paper (L2 code-cache accesses per cycle, miss rates, ...)
are all ratios of these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple


@dataclass
class Counter:
    """A single monotonically increasing counter."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0


class StatSet:
    """A named collection of counters with lazy creation.

    >>> stats = StatSet("l2_code_cache")
    >>> stats.bump("accesses")
    >>> stats.bump("accesses", 3)
    >>> stats["accesses"]
    4
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}

    def counter(self, key: str) -> Counter:
        """Return (creating if needed) the counter named ``key``."""
        found = self._counters.get(key)
        if found is None:
            found = Counter(key)
            self._counters[key] = found
        return found

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        found = self._counters.get(key)
        if found is None:
            found = Counter(key)
            self._counters[key] = found
        if amount < 0:
            raise ValueError(f"counter {key}: negative increment {amount}")
        found.value += amount

    def lazy_counter(self, key: str) -> "LazyCounter":
        """A hot-path handle on counter ``key`` that joins the set on its
        first :meth:`LazyCounter.add` (see :class:`LazyCounter`)."""
        return LazyCounter(self, key)

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value if key in self._counters else 0

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return ((name, counter.value) for name, counter in sorted(self._counters.items()))

    def ratio(self, numerator: str, denominator: str, default: float = 0.0) -> float:
        """Return ``numerator / denominator`` guarding against division by zero."""
        bottom = self[denominator]
        if bottom == 0:
            return default
        return self[numerator] / bottom

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot of all counters."""
        return {name: counter.value for name, counter in self._counters.items()}

    def merge(self, other: Mapping[str, int]) -> None:
        """Add every counter of ``other`` into this set."""
        for key, value in other.items():
            self.bump(key, value)

    def reset(self) -> None:
        """Reset all counters to zero (the counters themselves survive)."""
        for counter in self._counters.values():
            counter.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{name}={value}" for name, value in self)
        return f"StatSet({self.name}: {body})"


class LazyCounter:
    """A counter of a :class:`StatSet` bound on its first increment.

    ``add`` behaves like ``stats.bump(key, amount)`` — the key appears
    only once something bumps it, in first-bump order, so a run reports
    exactly the keys it bumped — but skips the string lookup after the
    first call.  For counters bumped once per executed block.

    >>> stats = StatSet("l1_code_cache")
    >>> inserts = stats.lazy_counter("inserts")
    >>> "inserts" in stats
    False
    >>> inserts.add(); inserts.add(2)
    >>> stats["inserts"]
    3
    """

    __slots__ = ("_stats", "_key", "_counter")

    def __init__(self, stats: StatSet, key: str) -> None:
        self._stats = stats
        self._key = key
        self._counter: Optional[Counter] = None

    def add(self, amount: int = 1) -> None:
        counter = self._counter
        if counter is None:
            counter = self._counter = self._stats.counter(self._key)
        counter.value += amount


@dataclass
class RunningMean:
    """Streaming mean/min/max tracker for latency-style samples."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, sample: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += sample
        if sample < self.minimum:
            self.minimum = sample
        if sample > self.maximum:
            self.maximum = sample

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "RunningMean") -> None:
        """Fold another tracker's samples into this one (harness aggregation)."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def as_dict(self) -> Dict[str, Optional[float]]:
        """JSON-safe snapshot: an empty tracker reports ``None`` min/max
        instead of leaking ``inf``/``-inf`` sentinels into reports."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": None if empty else self.minimum,
            "max": None if empty else self.maximum,
        }
