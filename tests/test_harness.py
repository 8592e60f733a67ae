"""Tests for the experiment harness (at tiny scale for speed)."""

import dataclasses
import pickle
import zlib

import pytest

from repro.harness import (
    FigureResult,
    figure1_timeline,
    figure4_l15_cache,
    figure8_optimization,
    table11_intrinsics,
)
from repro.harness import runner
from repro.harness.runner import RunGrid, clear_cache, run_one
from repro.dbt.transcache import TranslationCache
from repro.morph.config import PRESETS
from repro.vm.timing import TimingVM

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


class TestRowPack:
    """The worker's side of the row pack handoff: a worker adopts the
    pack it is handed only when it holds less of the row, and hands back
    a pack only when its group grew the row."""

    ROW = ("181.mcf", 0.05)
    FIRST = [("181.mcf", "speculative_4", 0.05), ("181.mcf", "no_l15", 0.05)]

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        monkeypatch.setattr(runner, "_DISK", runner._DISK)
        monkeypatch.setattr(runner, "_DISK_ENABLED", runner._DISK_ENABLED)
        monkeypatch.setattr(runner, "_GROUPS", [])
        clear_cache()
        yield
        clear_cache()

    @staticmethod
    def _run(cells, pack):
        """``cells`` through the worker entry point, with no disk cache:
        the results and the pack it hands back."""
        results, _, _, grown = runner._worker_run(
            [(w, PRESETS[c], s) for w, c, s in cells], False, None, 0, pack)
        return [dataclasses.asdict(r) for r in results], grown

    @staticmethod
    def _serial(cells):
        runner.configure_disk_cache(False)
        clear_cache()
        return [dataclasses.asdict(run_one(*cell)) for cell in cells]

    def test_worker_adopts_only_a_larger_pack(self):
        results, pack = self._run(self.FIRST, None)
        assert pack is not None and pack[0] == runner._row_size(self.ROW) > 0
        # the row already holds as much as the pack: the bytes are not
        # even read, and replaying the same cells adds nothing
        runner._CACHE.clear()
        hits = runner.METRICS["rowpack.hits"]
        assert self._run(self.FIRST, (pack[0], b"not a pack")) == (results, None)
        assert runner.METRICS["rowpack.hits"] == hits
        # a worker that holds nothing of the row adopts the pack and
        # builds, records and translates nothing
        clear_cache()
        recorded = runner.METRICS["replay.recorded"]
        built = runner.METRICS["program_cache.misses"]
        assert self._run(self.FIRST, pack) == (results, None)
        assert runner.METRICS["rowpack.hits"] == hits + 1
        assert runner.METRICS["replay.recorded"] == recorded
        assert runner.METRICS["program_cache.misses"] == built
        assert runner._TRANSLATIONS.misses == 0
        assert results == self._serial(self.FIRST)

    def test_worker_merges_a_row_pack_that_a_sibling_grew(self, monkeypatch):
        """A worker that already holds a row still merges a pack that
        another worker grew, and hands back none if it adds nothing."""
        _, pack = self._run(self.FIRST, None)
        program, state = pickle.loads(zlib.decompress(pack[1]))
        # a sibling adopts the pack and translates a new namespace
        sibling = TranslationCache()
        sibling.adopt_row(self.ROW, state)
        TimingVM(program, PRESETS["morph_noopt"], translation_cache=sibling,
                 program_key=self.ROW).run()
        assert sibling.misses > 0
        with monkeypatch.context() as patched:
            patched.setattr(runner, "_TRANSLATIONS", sibling)
            grown = (runner._row_size(self.ROW), runner._make_pack(self.ROW, program))
        assert grown[0] > pack[0]

        hits, misses = runner.METRICS["rowpack.hits"], runner._TRANSLATIONS.misses
        cell = [("181.mcf", "morph_noopt", 0.05)]
        results, handed_back = self._run(cell, grown)
        assert runner.METRICS["rowpack.hits"] == hits + 1
        assert runner._TRANSLATIONS.misses == misses
        assert handed_back is None and runner._row_size(self.ROW) == grown[0]
        assert results == self._serial(cell)
