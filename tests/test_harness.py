"""Tests for the experiment harness (at tiny scale for speed)."""

import dataclasses
import pickle

import pytest

from repro.guest.blockjit import PACK_FORMAT, PackError, unpack_space
from repro.harness import (
    FigureResult,
    figure1_timeline,
    figure4_l15_cache,
    figure8_optimization,
    table11_intrinsics,
)
from repro.harness import runner
from repro.harness.diskcache import DiskCache
from repro.harness.runner import RunGrid, clear_cache, run_one
from repro.morph.config import PRESETS

SCALE = 0.15
SMALL = ["164.gzip", "181.mcf"]


@pytest.fixture(autouse=True, scope="module")
def _warm_cache():
    yield
    clear_cache()


class TestRunner:
    def test_run_one_is_memoized(self):
        first = run_one("164.gzip", "speculative_4", SCALE)
        second = run_one("164.gzip", "speculative_4", SCALE)
        assert first is second

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            run_one("164.gzip", "no_such_config", SCALE)

    def test_grid_rows_and_columns(self):
        grid = RunGrid(SMALL, ["speculative_4", "speculative_6"], SCALE)
        assert len(grid.row("164.gzip")) == 2
        assert len(grid.column("speculative_4")) == 2
        assert grid.result("181.mcf", "speculative_6").workload == "181.mcf"


class TestFigureRunners:
    def test_figure1(self):
        result = figure1_timeline(workload="164.gzip", scale=SCALE)
        assert isinstance(result, FigureResult)
        assert len(result.rows) == 2
        assert "deltaT" in result.notes[0]

    def test_figure4_rows_match_workloads(self):
        result = figure4_l15_cache(workloads=SMALL, scale=SCALE)
        assert [row[0] for row in result.rows] == SMALL
        assert len(result.columns) == 4  # benchmark + 3 configs

    def test_figure8_ratio_column(self):
        result = figure8_optimization(workloads=["164.gzip"], scale=SCALE)
        ratio = float(result.rows[0][3])
        assert ratio > 1.0  # optimization always wins

    def test_table11_is_static(self):
        result = table11_intrinsics(measured_low_end=7.2)
        rendered = result.render()
        assert "lat 87, occ 87" in rendered
        assert "5.5x" in rendered

    def test_render_aligns_columns(self):
        result = figure4_l15_cache(workloads=SMALL, scale=SCALE)
        lines = result.render().splitlines()
        # header + one line per workload + notes
        assert len(lines) >= 1 + len(SMALL)
        assert lines[0].startswith("== Figure 4")


class TestRunManyLookups:
    """Each cell is looked up once: memo, then disk, then simulated."""

    CELLS = [("181.mcf", "speculative_4", 0.05), ("181.mcf", "speculative_6", 0.05)]

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        monkeypatch.setattr(runner, "_DISK", runner._DISK)
        monkeypatch.setattr(runner, "_DISK_ENABLED", runner._DISK_ENABLED)
        clear_cache()
        yield
        clear_cache()

    def _counted(self, name):
        return runner.METRICS.as_dict().get(name, 0)

    def test_cold_serial_run_many_probes_the_disk_once_per_cell(self, tmp_path):
        runner.configure_disk_cache(True, tmp_path)
        run_misses = self._counted("run_cache.misses")
        disk_misses = self._counted("disk_cache.misses")
        results = runner.run_many(self.CELLS, jobs=1)
        assert len(results) == len(self.CELLS)
        disk = runner.disk_cache()
        assert (disk.misses, disk.stores) == (len(self.CELLS), len(self.CELLS))
        assert self._counted("run_cache.misses") - run_misses == len(self.CELLS)
        assert self._counted("disk_cache.misses") - disk_misses == len(self.CELLS)
        # a warm re-run is served from the memo without touching the disk
        runner.run_many(self.CELLS, jobs=1)
        assert disk.misses == len(self.CELLS) and disk.hits == 0


class TestJitPack:
    """The worker's JIT pack path: corrupt packs are counted, not fatal,
    and nothing but an undecodable pack is forgiven."""

    CELLS = [("181.mcf", PRESETS["speculative_4"], 0.05)]
    PACK = "jitpack_181.mcf_0.05"

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        # _worker_run reconfigures the process-wide disk cache: restore it
        monkeypatch.setattr(runner, "_DISK", runner._DISK)
        monkeypatch.setattr(runner, "_DISK_ENABLED", runner._DISK_ENABLED)
        monkeypatch.setattr(runner, "_GROUPS", [])
        clear_cache()
        yield
        clear_cache()

    def _cold_results_and_pack(self, root):
        results, _, _ = runner._worker_run(self.CELLS, True, str(root), 0)
        pack = DiskCache(root).load_blob(self.PACK)
        assert pack and unpack_space(pack)
        clear_cache()
        return results, pack

    def test_unpack_rejects_garbage_and_ignores_foreign_formats(self):
        assert unpack_space(pickle.dumps((999, []))) == {}
        misshapen = pickle.dumps((PACK_FORMAT, [(0, (1,))]))
        for garbage in (b"", b"not a pickle", pickle.dumps(7), misshapen):
            with pytest.raises(PackError):
                unpack_space(garbage)

    def test_truncated_pack_is_counted_and_recompiled(self, tmp_path):
        cold, pack = self._cold_results_and_pack(tmp_path / "cold")
        DiskCache(tmp_path / "warm").save_blob(self.PACK, pack[: len(pack) // 2])
        corrupt = runner.METRICS["jitpack.corrupt"]
        results, _, _ = runner._worker_run(self.CELLS, True, str(tmp_path / "warm"), 0)
        assert runner.METRICS["jitpack.corrupt"] == corrupt + 1
        assert [dataclasses.asdict(r) for r in results] == [
            dataclasses.asdict(r) for r in cold
        ]
        # the recompiled space replaced the truncated pack
        assert unpack_space(DiskCache(tmp_path / "warm").load_blob(self.PACK))

    def test_other_unpack_errors_propagate(self, tmp_path, monkeypatch):
        _, pack = self._cold_results_and_pack(tmp_path / "cold")
        DiskCache(tmp_path / "warm").save_blob(self.PACK, pack)

        def broken(data):
            raise AttributeError("not a pack error")

        monkeypatch.setattr(runner, "unpack_space", broken)
        with pytest.raises(AttributeError):
            runner._worker_run(self.CELLS, True, str(tmp_path / "warm"), 0)
