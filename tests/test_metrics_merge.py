"""Order-independence of the cross-process telemetry merges.

Worker processes finish in nondeterministic order, so ``run_many``'s
aggregate telemetry is only deterministic if folding worker snapshots
is a commutative, associative operation *down to the bit*.  These
hypothesis properties pin that: any permutation of the same snapshots
merges to an identical result (integers add exactly; float totals go
through ``math.fsum``, which returns the correctly rounded true sum
regardless of order)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    IO_TIME_BUCKETS,
    MetricsRegistry,
    merge_histogram_dicts,
    merge_registry_snapshots,
    merge_track_dicts,
)
from repro.obs.prof import merge_profiles

# finite, fsum-safe sample values (no overflow, no NaN collapse)
_values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)

_counter_names = st.sampled_from(
    ["diskcache.hits", "diskcache.misses", "rowpack.saves", "blocks"]
)
_hist_names = st.sampled_from(["load.us", "store.us", "rowpack.pack.us"])


def _registry_snapshot(counters, observations):
    registry = MetricsRegistry("worker")
    for name, amount in counters:
        registry.bump(name, amount)
    for name, value in observations:
        registry.observe(name, value, IO_TIME_BUCKETS)
    return registry.snapshot()


_snapshots = st.lists(
    st.builds(
        _registry_snapshot,
        st.lists(st.tuples(_counter_names, st.integers(0, 10_000)), max_size=6),
        st.lists(st.tuples(_hist_names, _values), max_size=8),
    ),
    min_size=1,
    max_size=6,
)


def _shuffled(items, seed):
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def _canon(obj):
    """Bit-exact comparison form (floats keep their exact repr)."""
    return json.dumps(obj, sort_keys=True)


class TestRegistryMerge:
    @settings(max_examples=60, deadline=None)
    @given(snaps=_snapshots, seed=st.integers(0, 2**32 - 1))
    def test_merge_is_permutation_invariant(self, snaps, seed):
        merged = merge_registry_snapshots(snaps)
        reshuffled = merge_registry_snapshots(_shuffled(snaps, seed))
        assert _canon(merged) == _canon(reshuffled)

    @settings(max_examples=30, deadline=None)
    @given(snaps=_snapshots)
    def test_counter_totals_are_exact_sums(self, snaps):
        merged = merge_registry_snapshots(snaps)
        for name in merged["counters"]:
            expected = sum(s["counters"].get(name, 0) for s in snaps)
            assert merged["counters"][name] == expected

    @settings(max_examples=30, deadline=None)
    @given(snaps=_snapshots)
    def test_timeseries_dropped_not_merged(self, snaps):
        assert merge_registry_snapshots(snaps)["timeseries"] == {}

    def test_merge_names_the_aggregate(self):
        merged = merge_registry_snapshots([], name="pool")
        assert merged["name"] == "pool"
        assert merged["counters"] == {}


class TestTrackAndHistogramMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(st.lists(_values, max_size=8), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_track_merge_permutation_invariant(self, samples, seed):
        tracks = []
        for worker_samples in samples:
            registry = MetricsRegistry("w")
            registry.histogram("t.us", IO_TIME_BUCKETS)  # exists even if idle
            for value in worker_samples:
                registry.observe("t.us", value, IO_TIME_BUCKETS)
            tracks.append(registry.snapshot()["histograms"]["t.us"])
        merged = merge_track_dicts(tracks)
        reshuffled = merge_track_dicts(_shuffled(tracks, seed))
        assert _canon(merged) == _canon(reshuffled)
        assert merged["count"] == sum(len(s) for s in samples)

    def test_histogram_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry("a")
        a.observe("x", 1.0, (10, 100))
        b = MetricsRegistry("b")
        b.observe("x", 1.0, (10, 100, 1000))
        with pytest.raises(ValueError):
            merge_histogram_dicts(
                [
                    a.snapshot()["histograms"]["x"],
                    b.snapshot()["histograms"]["x"],
                ]
            )

    def test_histogram_merge_requires_input(self):
        with pytest.raises(ValueError):
            merge_histogram_dicts([])


_profile_paths = st.sampled_from(
    ["run", "run;interpreter", "run;interpreter;memsys",
     "run;jit.run", "run;interpreter;jit.compile", "cache.io"]
)

_profiles = st.lists(
    st.dictionaries(
        _profile_paths,
        st.fixed_dictionaries(
            {"ns": st.integers(0, 10**12), "calls": st.integers(1, 10**6)}
        ),
        max_size=6,
    ).map(lambda paths: {"clock": "perf_counter_ns", "paths": paths}),
    min_size=1,
    max_size=6,
)


class TestProfileMerge:
    @settings(max_examples=60, deadline=None)
    @given(profiles=_profiles, seed=st.integers(0, 2**32 - 1))
    def test_profile_merge_permutation_invariant(self, profiles, seed):
        merged = merge_profiles(profiles)
        reshuffled = merge_profiles(_shuffled(profiles, seed))
        assert merged == reshuffled
        assert _canon(merged) == _canon(reshuffled)

    @settings(max_examples=30, deadline=None)
    @given(profiles=_profiles)
    def test_profile_merge_sums_exactly(self, profiles):
        merged = merge_profiles(profiles)
        for path, entry in merged["paths"].items():
            assert entry["ns"] == sum(
                p["paths"].get(path, {}).get("ns", 0) for p in profiles
            )
            assert entry["calls"] == sum(
                p["paths"].get(path, {}).get("calls", 0) for p in profiles
            )
