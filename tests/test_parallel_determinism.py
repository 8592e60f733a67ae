"""Parallel-vs-serial determinism: the figures must be byte-identical.

Every timing run is deterministic (fixed PRNG seeds, no wall-clock in
the simulation), so executing the grid on a process pool must produce
exactly the figures a serial sweep does.
"""

import pytest

from repro.harness.figures import figure4_l15_cache
from repro.harness.runner import (
    JIT_COUNTERS,
    RunGrid,
    _shutdown_pool,
    clear_cache,
    configure_disk_cache,
    run_many,
    run_one,
)

SCALE = 0.1
SMALL = ["164.gzip", "181.mcf"]
#: more (workload, scale) groups than a 2-worker pool has workers
COMPACT = ["164.gzip", "181.mcf", "197.parser", "256.bzip2"]
CONFIGS = ["no_l15", "l15_64k"]


@pytest.fixture(autouse=True)
def _isolated(tmp_path):
    """Each test gets a cold memo and its own throwaway disk root."""
    configure_disk_cache(enabled=True, root=tmp_path)
    clear_cache()
    yield
    configure_disk_cache(enabled=False)
    clear_cache()


def test_run_many_matches_run_one(tmp_path):
    cells = [(w, c, SCALE) for w in SMALL for c in CONFIGS]
    parallel = run_many(cells, jobs=2)
    configure_disk_cache(enabled=True, root=tmp_path / "serial")
    clear_cache()
    for workload, config, scale in cells:
        serial = run_one(workload, config, scale)
        result = parallel[(workload, config, scale)]
        assert result.cycles == serial.cycles
        assert result.piii_cycles == serial.piii_cycles
        assert result.guest_instructions == serial.guest_instructions
        assert result.stats == serial.stats


def test_figures_byte_identical_across_job_counts(tmp_path):
    serial = figure4_l15_cache(workloads=SMALL, scale=SCALE, jobs=1).render()
    configure_disk_cache(enabled=True, root=tmp_path / "par")
    clear_cache()
    parallel = figure4_l15_cache(workloads=SMALL, scale=SCALE, jobs=4).render()
    assert parallel == serial


def test_materialize_populates_memo(tmp_path):
    grid = RunGrid(SMALL, CONFIGS, SCALE).materialize(jobs=2)
    # every row is now a memo hit: identical objects on repeat access
    row1 = grid.row(SMALL[0])
    row2 = grid.row(SMALL[0])
    assert all(a is b for a, b in zip(row1, row2))


def test_run_many_dedupes_work_list():
    configure_disk_cache(enabled=False)
    cells = [("164.gzip", "no_l15", SCALE)] * 3
    results = run_many(cells, jobs=1)
    assert len(results) == 1


def test_parallel_stores_are_counted(tmp_path):
    """Worker disk stores must fold into the parent's bookkeeping.

    The pool reuses worker processes, so store counts must come from
    per-call deltas — the old implementation reported ``stores: 0`` for
    fully cold parallel runs (the BENCH_results.json bug), because the
    workers' DiskCache objects were recreated per dispatch and their
    counts thrown away.
    """
    from repro.harness.runner import disk_cache

    cells = [(w, c, SCALE) for w in SMALL for c in CONFIGS]
    run_many(cells, jobs=2)
    disk = disk_cache()
    assert disk is not None
    assert disk.stats()["stores"] == len(cells)
    # the cache directory holds cell JSONs only: row packs travel
    # through the pool, and compiled closures stay private to the VM
    # that compiled them
    assert not list(disk.root.glob("*.bin"))


def test_worker_telemetry_collected_and_aggregated(tmp_path):
    """A pooled sweep leaves per-worker snapshots plus a deterministic
    aggregate behind — the BENCH 'workers' section."""
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    clear_worker_telemetry()
    _shutdown_pool()  # a 2-worker pool: some worker runs several groups
    cells = [(w, c, SCALE) for w in COMPACT for c in CONFIGS]
    run_many(cells, jobs=2)
    telemetry = worker_telemetry()

    assert telemetry["workers"], "pooled run recorded no worker snapshots"
    for pid, snap in telemetry["workers"].items():
        assert pid.isdigit()  # keys are stringified worker pids
        assert snap["pid"] == int(pid)
        assert "counters" in snap["metrics"]
        assert snap["disk"] is not None

    # one record per (workload, scale) group, each from a known worker
    records = [g for snap in telemetry["workers"].values() for g in snap["groups"]]
    assert sorted(g["workload"] for g in records) == sorted(COMPACT)
    for record in records:
        assert str(record["pid"]) in telemetry["workers"]
        assert record["scale"] == SCALE and record["cells"] == len(CONFIGS)
        assert record["queue_wait_s"] >= 0 and record["wall_s"] > 0
        # fresh workers: each group records its workload, then replays it
        assert (record["recorded"], record["replayed"], record["live_only"]) == (
            1, len(CONFIGS) - 1, 0)

    aggregate = telemetry["aggregate"]
    assert aggregate["worker_count"] == len(telemetry["workers"])
    assert aggregate["metrics"]["name"] == "workers.aggregate"
    # cold sweep: every cell was simulated and stored by some worker,
    # and a worker's disk counts span all of its groups
    assert aggregate["disk"]["stores"] == len(cells)
    assert aggregate["disk"]["hits"] == 0
    # each worker probed its own cells once, and counts none of the
    # parent's probes (a forked worker starts without its disk object)
    assert aggregate["disk"]["misses"] == len(cells)
    # profiling was off, so the merged profile carries no paths
    assert aggregate["profile"].get("paths", {}) == {}
    # what the block JIT did in the workers' recording runs
    counters = aggregate["metrics"]["counters"]
    assert {"jit." + name for name in JIT_COUNTERS} <= set(counters)
    assert 0 < counters["jit.compiles"] <= counters["jit.compiled_guest_instructions"]


def test_worker_telemetry_cleared_and_absent_when_serial(tmp_path):
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    clear_worker_telemetry()
    assert worker_telemetry() == {"workers": {}, "aggregate": None}
    # the serial path never ships work to a pool, so nothing is recorded
    run_many([(SMALL[0], CONFIGS[0], SCALE)], jobs=1)
    assert worker_telemetry() == {"workers": {}, "aggregate": None}


def test_worker_telemetry_keeps_latest_cumulative_snapshot(tmp_path):
    """Pool workers are long-lived and ship *cumulative* state; the
    parent must keep the newest snapshot per pid, not fold repeats
    (folding would double-count every earlier dispatch)."""
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    clear_worker_telemetry()
    cells = [(w, c, SCALE) for w in SMALL for c in CONFIGS]
    run_many(cells, jobs=2)
    first_stores = worker_telemetry()["aggregate"]["disk"]["stores"]
    clear_cache()  # cold memo, warm disk: second sweep stores nothing new
    run_many(cells, jobs=2)
    second_stores = worker_telemetry()["aggregate"]["disk"]["stores"]
    assert first_stores == len(cells)
    assert second_stores == first_stores  # cumulative, never double-counted


def test_fresh_workers_adopt_row_packs(tmp_path):
    """Workers that never saw a row take its program, translations and
    execution record from the row pack a sibling handed back: they
    build, record and translate nothing, and their results equal a
    serial run."""
    from repro.harness import runner
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    _shutdown_pool()
    run_many([(w, c, SCALE) for w in SMALL for c in CONFIGS], jobs=2)
    _shutdown_pool()  # fresh workers: nothing of the first sweep in memory
    clear_worker_telemetry()
    runner._CACHE.clear()  # clear_cache() would drop the packs too
    later = [(w, c, SCALE) for w in SMALL for c in ("speculative_4", "l15_128k")]
    shipped = runner.METRICS["workers.translation_misses"]
    pooled = run_many(later, jobs=2)
    telemetry = worker_telemetry()
    _shutdown_pool()
    counters = telemetry["aggregate"]["metrics"]["counters"]
    assert counters.get("replay.recorded", 0) == 0
    assert counters.get("program_cache.misses", 0) == 0
    assert sum(w["translations"]["misses"] for w in telemetry["workers"].values()) == 0
    assert runner.METRICS["workers.translation_misses"] == shipped
    assert counters["replay.replayed"] == len(later)
    assert counters["rowpack.hits"] == len(SMALL)

    configure_disk_cache(enabled=False)
    clear_cache()
    for workload, config, scale in later:
        serial = run_one(workload, config, scale)
        assert pooled[(workload, config, scale)] == serial


def test_rows_are_shared_without_a_disk_cache():
    """Row packs travel through the pool, so two calls over the same
    rows with no disk cache build and record each row once in total,
    even on fresh workers, and their results equal a serial run."""
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    configure_disk_cache(enabled=False)
    clear_worker_telemetry()
    _shutdown_pool()
    first = [(w, c, SCALE) for w in SMALL for c in CONFIGS]
    later = [(w, c, SCALE) for w in SMALL for c in ("speculative_4", "l15_128k")]
    pooled = run_many(first, jobs=2)
    _shutdown_pool()  # the later call's workers hold nothing of the rows
    pooled.update(run_many(later, jobs=2))
    counters = worker_telemetry()["aggregate"]["metrics"]["counters"]
    _shutdown_pool()
    assert counters["replay.recorded"] == len(SMALL)
    assert counters["program_cache.misses"] == len(SMALL)

    clear_cache()
    for workload, config, scale in first + later:
        assert pooled[(workload, config, scale)] == run_one(workload, config, scale)


def test_pool_is_sized_from_jobs_alone(tmp_path):
    """A one-group call must not start a pool that the next, wider call
    replaces: the replaced worker's warm caches would be lost."""
    from repro.harness import runner
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    clear_worker_telemetry()
    _shutdown_pool()
    run_many([(SMALL[0], config, SCALE) for config in CONFIGS], jobs=2)
    pool = runner._POOL
    run_many([(SMALL[1], CONFIGS[0], SCALE), (COMPACT[2], CONFIGS[0], SCALE)], jobs=2)
    assert runner._POOL is pool
    assert worker_telemetry()["aggregate"]["worker_count"] <= 2


def test_workers_count_only_their_own_metrics(tmp_path):
    """A forked worker must not inherit the parent's harness counters:
    the parent's own lookups would be counted again in every worker
    snapshot and in the aggregate."""
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    clear_worker_telemetry()
    _shutdown_pool()  # fork the workers after this test's parent lookups
    run_many([(workload, CONFIGS[0], SCALE) for workload in SMALL], jobs=2)
    workers = worker_telemetry()["workers"]
    assert workers
    for snap in workers.values():
        cells = sum(group["cells"] for group in snap["groups"])
        assert snap["metrics"]["counters"]["run_cache.misses"] == cells


def test_workers_count_only_their_own_translations(tmp_path):
    """A forked worker must not inherit the parent's translation
    hit/miss counts: its ``translations`` telemetry would re-count the
    blocks the parent translated before the fork."""
    from repro.harness import runner
    from repro.harness.runner import clear_worker_telemetry, worker_telemetry

    clear_worker_telemetry()
    run_many([(SMALL[0], CONFIGS[0], SCALE)], jobs=1)  # the parent translates
    assert runner.cache_stats()["translations"]["misses"] > 0
    _shutdown_pool()  # fork the workers after the parent's translations
    before = runner.METRICS["workers.translation_misses"]
    run_many([(workload, CONFIGS[1], SCALE) for workload in SMALL], jobs=2)
    shipped = runner.METRICS["workers.translation_misses"] - before
    workers = worker_telemetry()["workers"]
    assert shipped > 0
    assert sum(snap["translations"]["misses"] for snap in workers.values()) == shipped
