"""Metrics registry: counters + histograms + periodic time series.

:class:`MetricsRegistry` extends :class:`repro.common.stats.StatSet`
(so every existing ``bump``/``ratio`` call site keeps working) with two
distribution-shaped instruments the flat counters cannot express:

* :class:`Histogram` — bucketed sample counts plus a
  :class:`~repro.common.stats.RunningMean`, for translation latency,
  queue depth and block-size distributions;
* :class:`TimeSeries` — bounded ``(cycle, value)`` samples with
  stride-doubling decimation, so queue-length-vs-cycles (Figure 9) and
  translation/execution overlap (Figure 1) are reconstructable from any
  run without unbounded memory.

All three instruments serialize with :meth:`as_dict` and aggregate with
:meth:`merge`, which is how the harness folds per-run registries into
grid-level reports.
"""

from __future__ import annotations

from bisect import bisect_left
from math import copysign, fsum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.stats import RunningMean, StatSet

#: Default histogram bucket upper bounds (cycles-ish scale, log-spaced).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)

#: Default number of retained time-series samples per series.
DEFAULT_SERIES_CAPACITY = 1024

#: Block-JIT compile latency buckets, in microseconds (compiles are
#: host-side work; typical block compiles land in the 50-2000us range).
COMPILE_TIME_BUCKETS: Tuple[float, ...] = (
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 50_000,
)

#: Disk-cache I/O latency buckets, in microseconds (a cell read is tens
#: of microseconds warm, tens of milliseconds on a cold spinning disk).
IO_TIME_BUCKETS: Tuple[float, ...] = (
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)


class Histogram:
    """Bucketed counts over a stream of samples.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.

    >>> h = Histogram("latency", buckets=(10, 100))
    >>> for v in (5, 10, 11, 1000): h.observe(v)
    >>> h.counts
    [2, 1, 1]
    """

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(f"histogram {name}: buckets must be sorted and unique")
        self.name = name
        self.buckets: List[float] = list(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.track = RunningMean()

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.track.observe(value)

    @property
    def count(self) -> int:
        return self.track.count

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return 0.0
        target = q * total
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.track.maximum  # overflow bucket: use the observed max
        return self.track.maximum

    def as_dict(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            **self.track.as_dict(),
        }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same bucket layout) into this one."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name}: bucket layouts differ ({other.name})"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.track.merge(other.track)


class TimeSeries:
    """Bounded periodic samples of one value over simulated time.

    When the retained sample list reaches ``capacity`` it is decimated
    by dropping every other sample and the acceptance stride doubles, so
    an arbitrarily long run keeps an evenly spaced ``capacity/2``..
    ``capacity`` window covering the whole run.
    """

    def __init__(self, name: str, capacity: int = DEFAULT_SERIES_CAPACITY) -> None:
        if capacity < 2:
            raise ValueError(f"time series {name}: capacity must be >= 2")
        self.name = name
        self.capacity = capacity
        self.stride = 1
        self.observed = 0
        self.samples: List[Tuple[int, float]] = []

    def sample(self, cycle: int, value: float) -> None:
        """Record one ``(cycle, value)`` observation."""
        index = self.observed
        self.observed += 1
        if index % self.stride:
            return
        self.samples.append((cycle, value))
        if len(self.samples) >= self.capacity:
            del self.samples[1::2]
            self.stride *= 2

    def as_dict(self) -> Dict[str, object]:
        return {
            "stride": self.stride,
            "observed": self.observed,
            "samples": [[cycle, value] for cycle, value in self.samples],
        }


class MetricsRegistry(StatSet):
    """A :class:`StatSet` that also owns histograms and time series."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    # -- histograms -------------------------------------------------------

    def histogram(
        self, key: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Return (creating if needed) the histogram named ``key``."""
        found = self._histograms.get(key)
        if found is None:
            found = Histogram(key, buckets)
            self._histograms[key] = found
        return found

    def observe(
        self, key: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Record ``value`` into histogram ``key``."""
        self.histogram(key, buckets).observe(value)

    def lazy_histogram(
        self, key: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> "LazyHistogram":
        """A hot-path handle on histogram ``key`` that joins the registry
        on its first :meth:`LazyHistogram.observe`."""
        return LazyHistogram(self, key, buckets)

    # -- time series ------------------------------------------------------

    def series(self, key: str, capacity: int = DEFAULT_SERIES_CAPACITY) -> TimeSeries:
        """Return (creating if needed) the time series named ``key``."""
        found = self._series.get(key)
        if found is None:
            found = TimeSeries(key, capacity)
            self._series[key] = found
        return found

    def sample(self, key: str, cycle: int, value: float) -> None:
        """Record one periodic sample into series ``key``."""
        self.series(key).sample(cycle, value)

    # -- aggregation ------------------------------------------------------

    def histograms(self) -> Mapping[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, object]:
        """Full serializable snapshot (counters + histograms + series)."""
        return {
            "name": self.name,
            "counters": self.as_dict(),
            "histograms": {
                key: hist.as_dict() for key, hist in sorted(self._histograms.items())
            },
            "timeseries": {
                key: series.as_dict() for key, series in sorted(self._series.items())
            },
        }

    def merge_registry(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters and histograms into this one.

        Time series are not merged — they are per-run trajectories, not
        aggregable totals.
        """
        self.merge(other.as_dict())
        for key, hist in other._histograms.items():
            self.histogram(key, hist.buckets).merge(hist)

    def summary(self, key: str) -> Optional[Dict[str, object]]:
        """Compact mean/min/max/count for one histogram (reports)."""
        hist = self._histograms.get(key)
        if hist is None:
            return None
        return hist.track.as_dict()


class LazyHistogram:
    """A histogram of a :class:`MetricsRegistry` bound on its first sample.

    The histogram counterpart of :class:`~repro.common.stats.LazyCounter`:
    ``observe`` behaves like ``registry.observe(key, value, buckets)``
    without the per-sample string lookup, and a registry never reports
    a histogram nobody observed into.
    """

    __slots__ = ("_registry", "_key", "_buckets", "_histogram")

    def __init__(
        self, registry: MetricsRegistry, key: str, buckets: Sequence[float]
    ) -> None:
        self._registry = registry
        self._key = key
        self._buckets = buckets
        self._histogram: Optional[Histogram] = None

    def observe(self, value: float) -> None:
        histogram = self._histogram
        if histogram is None:
            histogram = self._histogram = self._registry.histogram(
                self._key, self._buckets
            )
        histogram.observe(value)


# -- cross-process snapshot merging ---------------------------------------
#
# Worker processes ship registry *snapshots* (plain dicts) back through
# run_many(); the parent folds them with the functions below.  The merge
# is order-independent down to the bit: counters and bucket counts are
# integers (exact addition), and float totals are combined with
# math.fsum, whose result is the correctly rounded true sum of its
# inputs — the same for every permutation.  Pinned by the hypothesis
# property tests in tests/test_metrics_merge.py.


def _signed(value: float) -> Tuple[float, float]:
    """Sort key that orders -0.0 below 0.0, so min/max of signed zeros
    does not depend on which one comes first."""
    return (value, copysign(1.0, value))


def merge_track_dicts(tracks: Sequence[Mapping]) -> Dict[str, Optional[float]]:
    """Fold serialized :class:`RunningMean` dicts, order-independently."""
    count = sum(int(t.get("count", 0)) for t in tracks)
    total = fsum(float(t.get("total", 0.0)) for t in tracks)
    mins = [t["min"] for t in tracks if t.get("min") is not None]
    maxs = [t["max"] for t in tracks if t.get("max") is not None]
    return {
        "count": count,
        "total": total,
        "mean": total / count if count else 0.0,
        "min": min(mins, key=_signed) if mins else None,
        "max": max(maxs, key=_signed) if maxs else None,
    }


def merge_histogram_dicts(hists: Sequence[Mapping]) -> Dict[str, object]:
    """Fold serialized :class:`Histogram` dicts (same bucket layout)."""
    if not hists:
        raise ValueError("nothing to merge")
    buckets = list(hists[0].get("buckets", []))
    counts = [0] * (len(buckets) + 1)
    for hist in hists:
        if list(hist.get("buckets", [])) != buckets:
            raise ValueError("histogram bucket layouts differ across snapshots")
        for index, bucket_count in enumerate(hist.get("counts", [])):
            counts[index] += int(bucket_count)
    return {"buckets": buckets, "counts": counts, **merge_track_dicts(hists)}


def merge_registry_snapshots(
    snapshots: Iterable[Mapping], name: str = "aggregate"
) -> Dict[str, object]:
    """Fold :meth:`MetricsRegistry.snapshot` dicts into one aggregate.

    Counters and histograms sum; time series are dropped (they are
    per-run trajectories, not aggregable totals).  Any permutation of
    ``snapshots`` yields a bit-identical result.
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, List[Mapping]] = {}
    for snap in snapshots:
        for key, value in (snap.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + int(value)
        for key, hist in (snap.get("histograms") or {}).items():
            histograms.setdefault(key, []).append(hist)
    return {
        "name": name,
        "counters": {key: counters[key] for key in sorted(counters)},
        "histograms": {
            key: merge_histogram_dicts(histograms[key]) for key in sorted(histograms)
        },
        "timeseries": {},
    }
