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


@pytest.mark.usefixtures("eager_jit")
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

    def test_truncated_pack_in_a_pooled_sweep_warns(self, tmp_path):
        cells = [("181.mcf", "speculative_4", 0.05), ("181.mcf", "no_l15", 0.05)]
        cold, _, _ = runner._worker_run(
            [(w, PRESETS[c], s) for w, c, s in cells], True, str(tmp_path / "cold"), 0)
        pack = DiskCache(tmp_path / "cold").load_blob(self.PACK)
        clear_cache()
        DiskCache(tmp_path / "warm").save_blob(self.PACK, pack[: len(pack) // 2])
        # fresh workers, forked from a parent with no warm JIT space
        runner._shutdown_pool()
        runner.clear_worker_telemetry()
        runner.configure_disk_cache(True, tmp_path / "warm")
        try:
            results = runner.run_many(cells, jobs=2)
            warnings = runner.pack_warnings(runner.worker_telemetry())
        finally:
            runner._shutdown_pool()
            runner.clear_worker_telemetry()
        assert [dataclasses.asdict(results[(w, c, s)]) for w, c, s in cells] == [
            dataclasses.asdict(r) for r in cold
        ]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: jitpack.corrupt = 1 in ")
        assert str(tmp_path / "warm") in warnings[0]

    def test_other_unpack_errors_propagate(self, tmp_path, monkeypatch):
        _, pack = self._cold_results_and_pack(tmp_path / "cold")
        DiskCache(tmp_path / "warm").save_blob(self.PACK, pack)

        def broken(data):
            raise AttributeError("not a pack error")

        monkeypatch.setattr(runner, "unpack_space", broken)
        with pytest.raises(AttributeError):
            runner._worker_run(self.CELLS, True, str(tmp_path / "warm"), 0)


class TestRowPack:
    """The worker's row pack path: a damaged pack is rebuilt and warned
    about, a pack of another format is ignored silently."""

    FIRST = [("181.mcf", "speculative_4", 0.05), ("181.mcf", "no_l15", 0.05)]
    LATER = [("181.mcf", "speculative_6", 0.05), ("181.mcf", "l15_64k", 0.05)]
    PACK = "rowpack_181.mcf_0.05"

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        monkeypatch.setattr(runner, "_DISK", runner._DISK)
        monkeypatch.setattr(runner, "_DISK_ENABLED", runner._DISK_ENABLED)
        monkeypatch.setattr(runner, "_GROUPS", [])
        clear_cache()
        yield
        clear_cache()

    @staticmethod
    def _serial(cells):
        runner.configure_disk_cache(False)
        clear_cache()
        return [dataclasses.asdict(run_one(*cell)) for cell in cells]

    @staticmethod
    def _pooled(root, cells):
        """``cells`` through run_many on fresh workers: the results, the
        pack warnings and the workers' aggregate counters."""
        runner._shutdown_pool()
        runner.clear_worker_telemetry()
        clear_cache()
        runner.configure_disk_cache(True, root)
        try:
            results = runner.run_many(cells, jobs=2)
            telemetry = runner.worker_telemetry()
        finally:
            runner._shutdown_pool()
            runner.clear_worker_telemetry()
        return ([dataclasses.asdict(results[cell]) for cell in cells],
                runner.pack_warnings(telemetry),
                telemetry["aggregate"]["metrics"]["counters"])

    def test_unpack_rejects_garbage_and_ignores_foreign_formats(self):
        assert runner._unpack_row(pickle.dumps((runner.ROWPACK_FORMAT + 1, None))) is None
        misshapen = [
            pickle.dumps((runner.ROWPACK_FORMAT, "not a program", {})),
            pickle.dumps((runner.ROWPACK_FORMAT, None)),
        ]
        for garbage in [b"", b"not a pickle", pickle.dumps(7)] + misshapen:
            with pytest.raises(PackError):
                runner._unpack_row(garbage)

    def test_truncated_row_pack_in_a_pooled_sweep_warns(self, tmp_path):
        _, warnings, counters = self._pooled(tmp_path, self.FIRST)
        assert not warnings and counters["rowpack.saves"] == 1
        disk = DiskCache(tmp_path)
        pack = disk.load_blob(self.PACK)
        disk.save_blob(self.PACK, pack[: len(pack) // 2])
        results, warnings, counters = self._pooled(tmp_path, self.LATER)
        assert results == self._serial(self.LATER)
        # the row was built, recorded and translated again ...
        assert counters["rowpack.corrupt"] == 1 and counters["replay.recorded"] == 1
        assert counters["program_cache.misses"] == 1
        # ... said so once ...
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: rowpack.corrupt = 1 in ")
        assert str(tmp_path) in warnings[0]
        # ... and replaced the truncated pack
        assert runner._unpack_row(disk.load_blob(self.PACK)) is not None

    def test_foreign_format_row_pack_is_ignored_silently(self, tmp_path):
        cells = [(w, PRESETS[c], s) for w, c, s in self.FIRST]
        foreign = pickle.dumps((runner.ROWPACK_FORMAT + 1, None, None))
        DiskCache(tmp_path).save_blob(self.PACK, foreign)
        before = {name: runner.METRICS[name]
                  for name in ("rowpack.corrupt", "rowpack.misses", "replay.recorded")}
        results, _, _ = runner._worker_run(cells, True, str(tmp_path), 0)
        assert runner.METRICS["rowpack.corrupt"] == before["rowpack.corrupt"]
        assert runner.METRICS["rowpack.misses"] == before["rowpack.misses"] + 1
        assert runner.METRICS["replay.recorded"] == before["replay.recorded"] + 1
        assert runner._unpack_row(DiskCache(tmp_path).load_blob(self.PACK)) is not None
        assert [dataclasses.asdict(r) for r in results] == self._serial(self.FIRST)

    def test_worker_merges_a_row_pack_that_a_sibling_grew(self, tmp_path):
        """A worker that already holds a row still merges its pack once
        another worker has rewritten it, and only then."""
        row = ("181.mcf", 0.05)
        runner._worker_run([(w, PRESETS[c], s) for w, c, s in self.FIRST],
                           True, str(tmp_path), 0)
        disk = DiskCache(tmp_path)
        program, state = runner._unpack_row(disk.load_blob(self.PACK))
        # a sibling adopts the pack, translates a new namespace, saves
        sibling = TranslationCache()
        sibling.adopt_row(row, state)
        TimingVM(program, PRESETS["morph_noopt"], translation_cache=sibling,
                 program_key=row).run()
        assert sibling.misses > 0
        disk.save_blob(self.PACK, runner._pack_row(program, sibling.row_state(row)))

        hits, misses = runner.METRICS["rowpack.hits"], runner._TRANSLATIONS.misses
        cell = [("181.mcf", PRESETS["morph_noopt"], 0.05)]
        runner._worker_run(cell, True, str(tmp_path), 0)
        assert runner.METRICS["rowpack.hits"] == hits + 1
        assert runner._TRANSLATIONS.misses == misses
        # the pack has not changed since: no second read
        runner._worker_run([("181.mcf", PRESETS["l15_64k"], 0.05)], True, str(tmp_path), 0)
        assert runner.METRICS["rowpack.hits"] == hits + 1
