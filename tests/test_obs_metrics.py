"""Metrics registry: histogram bucketing, decimation, JSON-safety."""

import json

import pytest

from repro.common.stats import RunningMean
from repro.obs.metrics import Histogram, MetricsRegistry, TimeSeries


class TestHistogram:
    def test_bucketing_edges(self):
        hist = Histogram("latency", buckets=(10, 100))
        for value in (0, 10, 11, 100, 101, 5000):
            hist.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket
        assert hist.counts == [2, 2, 2]
        assert hist.count == 6

    def test_single_bucket_overflow(self):
        hist = Histogram("h", buckets=(1,))
        hist.observe(0)
        hist.observe(1)
        hist.observe(2)
        assert hist.counts == [2, 1]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(10, 5))
        with pytest.raises(ValueError):
            Histogram("dup", buckets=(5, 5, 10))
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())

    def test_quantile(self):
        hist = Histogram("q", buckets=(10, 20, 30))
        for value in (5, 5, 15, 15, 15, 25, 25, 25, 25, 40):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) <= 10
        assert hist.quantile(0.2) == 10
        assert hist.quantile(0.5) == 20
        assert hist.quantile(0.9) == 30
        assert hist.quantile(1.0) == 40  # overflow bucket reports observed max
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_empty(self):
        assert Histogram("e").quantile(0.5) == 0.0

    def test_merge(self):
        left = Histogram("h", buckets=(10, 100))
        right = Histogram("h", buckets=(10, 100))
        for value in (1, 50):
            left.observe(value)
        for value in (200, 3):
            right.observe(value)
        left.merge(right)
        assert left.counts == [2, 1, 1]
        assert left.count == 4
        assert left.track.minimum == 1
        assert left.track.maximum == 200

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError):
            Histogram("a", buckets=(10,)).merge(Histogram("b", buckets=(20,)))

    def test_as_dict_is_json_safe(self):
        hist = Histogram("h", buckets=(10,))
        dumped = json.dumps(hist.as_dict())
        assert "Infinity" not in dumped
        hist.observe(5)
        data = hist.as_dict()
        assert data["buckets"] == [10]
        assert data["counts"] == [1, 0]
        assert data["min"] == 5
        assert data["max"] == 5


class TestTimeSeries:
    def test_records_every_sample_until_full(self):
        series = TimeSeries("q", capacity=8)
        for cycle in range(5):
            series.sample(cycle * 10, cycle)
        assert series.samples == [(0, 0), (10, 1), (20, 2), (30, 3), (40, 4)]
        assert series.stride == 1

    def test_decimation_doubles_stride_and_stays_bounded(self):
        series = TimeSeries("q", capacity=8)
        for cycle in range(1000):
            series.sample(cycle, cycle)
        assert len(series.samples) <= 8
        assert series.observed == 1000
        assert series.stride > 1
        # the first sample is always retained; the rest stay evenly strided
        assert series.samples[0] == (0, 0)
        cycles = [cycle for cycle, _ in series.samples]
        assert cycles == sorted(cycles)
        gaps = {b - a for a, b in zip(cycles, cycles[1:])}
        assert len(gaps) == 1  # uniform spacing after decimation

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            TimeSeries("q", capacity=1)

    def test_as_dict(self):
        series = TimeSeries("q", capacity=4)
        series.sample(7, 3.5)
        data = series.as_dict()
        assert data["samples"] == [[7, 3.5]]
        assert data["observed"] == 1
        json.dumps(data)


class TestRunningMean:
    def test_empty_as_dict_has_no_infinities(self):
        data = RunningMean().as_dict()
        assert data == {"count": 0, "total": 0, "mean": 0.0, "min": None, "max": None}
        dumped = json.dumps(data)
        assert "Infinity" not in dumped

    def test_as_dict_after_observations(self):
        track = RunningMean()
        for value in (4, 2, 6):
            track.observe(value)
        assert track.as_dict() == {
            "count": 3, "total": 12, "mean": 4.0, "min": 2, "max": 6,
        }

    def test_merge(self):
        left, right = RunningMean(), RunningMean()
        left.observe(10)
        right.observe(2)
        right.observe(30)
        left.merge(right)
        assert left.count == 3
        assert left.total == 42
        assert left.minimum == 2
        assert left.maximum == 30

    def test_merge_with_empty_is_identity(self):
        track = RunningMean()
        track.observe(5)
        track.merge(RunningMean())
        assert track.as_dict()["min"] == 5
        assert track.as_dict()["max"] == 5
        empty = RunningMean()
        empty.merge(track)
        assert empty.as_dict() == track.as_dict()


class TestMetricsRegistry:
    def test_counters_still_work(self):
        registry = MetricsRegistry("r")
        registry.bump("hits")
        registry.bump("hits", 2)
        assert registry.as_dict()["hits"] == 3

    def test_observe_and_snapshot(self):
        registry = MetricsRegistry("r")
        registry.bump("runs")
        registry.observe("latency", 42, buckets=(10, 100))
        registry.observe("latency", 7)
        registry.sample("depth", 100, 3)
        registry.sample("depth", 200, 5)
        snap = registry.snapshot()
        assert snap["name"] == "r"
        assert snap["counters"] == {"runs": 1}
        assert snap["histograms"]["latency"]["counts"] == [1, 1, 0]
        assert snap["timeseries"]["depth"]["samples"] == [[100, 3], [200, 5]]
        json.dumps(snap)

    def test_histogram_is_memoized_per_key(self):
        registry = MetricsRegistry("r")
        assert registry.histogram("a") is registry.histogram("a")
        assert registry.series("s") is registry.series("s")

    def test_merge_registry(self):
        left, right = MetricsRegistry("l"), MetricsRegistry("r")
        left.bump("n")
        right.bump("n", 4)
        left.observe("lat", 5, buckets=(10,))
        right.observe("lat", 50, buckets=(10,))
        right.sample("depth", 1, 1)
        left.merge_registry(right)
        assert left.as_dict()["n"] == 5
        assert left.histogram("lat", (10,)).counts == [1, 1]
        # time series are per-run trajectories: not merged
        assert "depth" not in left.snapshot()["timeseries"]

    def test_summary(self):
        registry = MetricsRegistry("r")
        assert registry.summary("missing") is None
        registry.observe("lat", 8)
        assert registry.summary("lat")["count"] == 1


class TestLazyHandles:
    def test_lazy_counter_key_appears_on_first_add_in_bump_order(self):
        registry = MetricsRegistry("r")
        first = registry.lazy_counter("first")
        second = registry.lazy_counter("second")
        assert registry.as_dict() == {}
        second.add()
        registry.bump("plain")
        first.add(3)
        second.add()
        assert list(registry.as_dict().items()) == [("second", 2), ("plain", 1), ("first", 3)]

    def test_lazy_counter_shares_an_existing_key(self):
        registry = MetricsRegistry("r")
        registry.bump("hits")
        registry.lazy_counter("hits").add(2)
        assert registry["hits"] == 3

    def test_lazy_histogram_appears_on_first_observe(self):
        registry = MetricsRegistry("r")
        latency = registry.lazy_histogram("latency", (10, 100))
        assert registry.snapshot()["histograms"] == {}
        latency.observe(42)
        latency.observe(7)
        assert registry.histogram("latency", (10, 100)).counts == [1, 1, 0]
