"""Persistent run-cache tests: round trip, invalidation, key identity."""

import dataclasses

import pytest

from repro.harness import runner
from repro.harness.diskcache import (
    DiskCache,
    code_version_stamp,
    config_digest,
    result_from_dict,
    result_to_dict,
)
from repro.harness.runner import clear_cache, configure_disk_cache, run_one
from repro.morph.config import PRESETS

SCALE = 0.15
WORKLOAD = "164.gzip"
CONFIG = "speculative_4"


@pytest.fixture()
def cache_dir(tmp_path):
    """Route the harness disk cache into a throwaway directory."""
    configure_disk_cache(enabled=True, root=tmp_path)
    clear_cache()
    yield tmp_path
    configure_disk_cache(enabled=False)
    clear_cache()


@pytest.fixture()
def no_disk():
    configure_disk_cache(enabled=False)
    clear_cache()
    yield
    configure_disk_cache(enabled=False)
    clear_cache()


class TestDiskCacheUnit:
    def test_round_trip_preserves_result(self, tmp_path, no_disk):
        result = run_one(WORKLOAD, CONFIG, SCALE)
        cache = DiskCache(tmp_path, version="test")
        cache.store(WORKLOAD, PRESETS[CONFIG], SCALE, result)
        loaded = cache.load(WORKLOAD, PRESETS[CONFIG], SCALE)
        assert loaded is not None
        assert loaded.cycles == result.cycles
        assert loaded.piii_cycles == result.piii_cycles
        assert loaded.guest_instructions == result.guest_instructions
        assert loaded.stats == result.stats
        assert loaded.slowdown == result.slowdown
        assert cache.stats()["hits"] == 1

    def test_version_stamp_invalidates(self, tmp_path, no_disk):
        result = run_one(WORKLOAD, CONFIG, SCALE)
        old = DiskCache(tmp_path, version="revision-a")
        old.store(WORKLOAD, PRESETS[CONFIG], SCALE, result)
        new = DiskCache(tmp_path, version="revision-b")
        assert new.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None
        assert new.stats()["misses"] == 1
        # the old revision's entry is untouched, just never read
        assert old.load(WORKLOAD, PRESETS[CONFIG], SCALE) is not None

    def test_mutated_config_does_not_alias_preset(self, tmp_path, no_disk):
        """A config sharing a preset's *name* must not share its cache key."""
        preset = PRESETS[CONFIG]
        mutated = preset.with_(l15_banks=0)
        assert mutated.name == preset.name
        assert config_digest(mutated) != config_digest(preset)
        result = run_one(WORKLOAD, CONFIG, SCALE)
        cache = DiskCache(tmp_path, version="test")
        cache.store(WORKLOAD, preset, SCALE, result)
        assert cache.load(WORKLOAD, mutated, SCALE) is None

    def test_scale_and_workload_distinguish_cells(self, tmp_path, no_disk):
        result = run_one(WORKLOAD, CONFIG, SCALE)
        cache = DiskCache(tmp_path, version="test")
        assert not cache.has(WORKLOAD, PRESETS[CONFIG], SCALE)
        cache.store(WORKLOAD, PRESETS[CONFIG], SCALE, result)
        assert cache.has(WORKLOAD, PRESETS[CONFIG], SCALE)
        assert not cache.has(WORKLOAD, PRESETS[CONFIG], SCALE + 0.05)
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE + 0.05) is None
        assert cache.load("181.mcf", PRESETS[CONFIG], SCALE) is None

    def test_failed_write_leaves_no_temp_file(self, tmp_path, no_disk, monkeypatch):
        """Cells and blobs share one staged write: a failed rename
        removes the staged file and counts no store."""
        result = run_one(WORKLOAD, CONFIG, SCALE)
        cache = DiskCache(tmp_path, version="test")

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.harness.diskcache.os.replace", refuse)
        with pytest.raises(OSError):
            cache.store(WORKLOAD, PRESETS[CONFIG], SCALE, result)
        with pytest.raises(OSError):
            cache.save_blob("jitpack_x", b"code")
        assert list(cache.root.iterdir()) == []
        assert cache.stores == 0 and cache.blob_stamp("jitpack_x") is None

    def test_blob_stamp_changes_when_a_blob_is_rewritten(self, tmp_path):
        cache = DiskCache(tmp_path, version="test")
        assert cache.blob_stamp("rowpack_x") is None
        cache.save_blob("rowpack_x", b"one")
        first = cache.blob_stamp("rowpack_x")
        assert first is not None and first == cache.blob_stamp("rowpack_x")
        cache.save_blob("rowpack_x", b"three")
        assert cache.blob_stamp("rowpack_x") != first

    def test_serialization_is_plain_json_data(self, no_disk):
        result = run_one(WORKLOAD, CONFIG, SCALE)
        doc = result_to_dict(result)
        rebuilt = result_from_dict(doc)
        assert dataclasses.asdict(rebuilt) == doc

    def test_code_version_stamp_is_stable(self):
        assert code_version_stamp() == code_version_stamp()
        assert len(code_version_stamp()) == 16


class TestReaderStampVerification:
    """The diskcache-stamp-match invariant: a document at the cell path
    is only served if every stamp field matches the request — foreign,
    torn or relocated files degrade to misses, never wrong results."""

    def _cell_path(self, cache):
        return cache._path(cache.cell_key(WORKLOAD, PRESETS[CONFIG], SCALE))

    def _seeded_cache(self, tmp_path, no_disk):
        result = run_one(WORKLOAD, CONFIG, SCALE)
        cache = DiskCache(tmp_path, version="test")
        cache.store(WORKLOAD, PRESETS[CONFIG], SCALE, result)
        return cache

    def _corrupt(self, cache, **overrides):
        import json

        path = self._cell_path(cache)
        doc = json.loads(path.read_text())
        doc.update(overrides)
        path.write_text(json.dumps(doc))

    def test_wrong_workload_stamp_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        self._corrupt(cache, workload="181.mcf")
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None
        assert cache.stats()["misses"] == 1

    def test_wrong_scale_stamp_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        self._corrupt(cache, scale=SCALE * 2)
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None

    def test_wrong_version_stamp_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        self._corrupt(cache, version="other-revision")
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None

    def test_wrong_format_stamp_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        self._corrupt(cache, format=999)
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None

    def test_mismatched_config_stamp_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        mutated = dataclasses.asdict(PRESETS[CONFIG].with_(l15_banks=0))
        self._corrupt(cache, config=mutated)
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None

    def test_torn_json_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        path = self._cell_path(cache)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None

    def test_non_dict_document_is_a_miss(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        self._cell_path(cache).write_text('["not", "a", "cell"]')
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is None

    def test_intact_document_still_hits(self, tmp_path, no_disk):
        cache = self._seeded_cache(tmp_path, no_disk)
        assert cache.load(WORKLOAD, PRESETS[CONFIG], SCALE) is not None
        assert cache.stats()["hits"] == 1


class TestHarnessIntegration:
    def test_warm_rerun_served_from_disk(self, cache_dir):
        first = run_one(WORKLOAD, CONFIG, SCALE)
        clear_cache()  # drop the in-process memo; disk survives
        # if the disk hit path were broken this would re-simulate; make
        # that impossible by breaking the simulator entry point
        original = runner.TimingVM
        runner.TimingVM = None  # type: ignore[assignment,misc]
        try:
            second = run_one(WORKLOAD, CONFIG, SCALE)
        finally:
            runner.TimingVM = original  # type: ignore[misc]
        assert second.cycles == first.cycles
        assert second.stats == first.stats

    def test_memo_key_includes_config_identity(self, cache_dir):
        preset_result = run_one(WORKLOAD, CONFIG, SCALE)
        mutated = PRESETS[CONFIG].with_(l15_banks=0, hardware_icache=True)
        mutated_result = run_one(WORKLOAD, mutated, SCALE)
        assert mutated_result is not preset_result
        assert mutated_result.cycles != preset_result.cycles
        # and the preset's memo entry is still intact
        assert run_one(WORKLOAD, CONFIG, SCALE) is preset_result

    def test_disk_cache_stats_reported(self, cache_dir):
        run_one(WORKLOAD, CONFIG, SCALE)
        clear_cache()
        run_one(WORKLOAD, CONFIG, SCALE)
        stats = runner.cache_stats()
        assert stats["disk"]["stores"] >= 1
        assert stats["disk"]["hits"] >= 1
