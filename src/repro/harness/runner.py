"""Run-grid execution: memoized, disk-persistent, and parallel.

Timing runs are expensive (seconds each) and the figures share them
(5, 6 and 7 reuse one sweep), so results are cached at two levels:

* an in-process :class:`~repro.common.lru.LruDict` memo — bounded, so a
  long-lived process sweeping many scales cannot grow without limit;
* a durable :class:`~repro.harness.diskcache.DiskCache` under
  ``.runcache/`` (the FX!32 / DynamoRIO persistent-cache idea applied
  to the simulator itself), keyed by workload + scale + the full
  :class:`VirtualArchConfig` contents + a code-version stamp, so a warm
  re-run of the whole figure grid costs file reads instead of
  simulation.

Cache keys carry a content hash of the *config object*, not just its
preset name — a mutated or custom config can never alias a preset's
cached result.

Below the result caches sit three reuse layers that attack the cold-run
cost itself: assembled workloads are memoized per (name, scale);
translated blocks are shared across configuration columns through a
:class:`~repro.dbt.transcache.TranslationCache` (config knobs move
tiles around; they almost never change what the translator emits); and
the same cache keeps each workload's guest execution record, so a
process executes a workload's guest once and replays only the timing
for every other config.  All three are exact — cached and uncached
runs are bit-identical.

:func:`run_many` executes a deduplicated work-list of grid cells on a
``ProcessPoolExecutor``; every run is deterministic, so parallel
results are bit-identical to serial ones.  Pool workers share those
three layers through the disk cache's versioned directory, the way the
paper's slave tiles share one L2 code cache: at the end of a group a
worker saves a *row pack* per (workload, scale) —
``rowpack_<workload>_<scale>.bin``: the assembled program, its
translated namespaces and its execution records — and a worker that
later gets the row merges the pack first, so it replays where it would
have built, recorded and translated.  A pack that will not decode is
counted (``rowpack.corrupt``), rebuilt and overwritten, and
:func:`pack_warnings` turns such counts into warnings.  Compiled JIT
closures are not shared: a worker that replays a row runs none.  Hit/miss
behaviour is recorded in a :class:`~repro.obs.metrics.MetricsRegistry`
(surfaced by ``benchmarks/run_all.py`` into ``BENCH_results.json``).
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.lru import LruDict
from repro.dbt.transcache import TranslationCache
from repro.guest.blockjit import PackError, load_pack
from repro.guest.program import GuestProgram
from repro.harness.diskcache import DiskCache, config_digest, enabled_by_env
from repro.morph.config import PRESETS, VirtualArchConfig
from repro.obs import prof
from repro.obs.metrics import IO_TIME_BUCKETS, MetricsRegistry, merge_registry_snapshots
from repro.vm.timing import TimingRunResult, TimingVM
from repro.workloads import build_workload

#: A grid cell: (workload name, preset name or config object, scale).
ConfigLike = Union[str, VirtualArchConfig]
Cell = Tuple[str, ConfigLike, float]

#: Memoized runs kept.  The full figure grid is ~80 (workload, config,
#: scale) cells; 256 keeps several scales resident while staying bounded.
RUN_CACHE_CAPACITY = 256

#: (workload, config name, config content hash, scale) -> result
_CACHE: "LruDict[Tuple[str, str, str, float], TimingRunResult]" = LruDict(RUN_CACHE_CAPACITY)

#: Assembled workloads, keyed (name, scale).  Builds are deterministic
#: and programs are immutable once assembled (the loader copies them
#: into fresh guest memory), so every cell of a grid row shares one.
PROGRAM_CACHE_CAPACITY = 16
_PROGRAMS: "LruDict[Tuple[str, float], GuestProgram]" = LruDict(PROGRAM_CACHE_CAPACITY)

#: Translated blocks shared across cells (see repro.dbt.transcache):
#: config columns of a grid row re-run the same guest code, and almost
#: no VirtualArchConfig knob changes what the translator emits.
_TRANSLATIONS = TranslationCache()

#: Harness-level metrics (run-cache hits/misses, runs executed).
METRICS = MetricsRegistry("harness.runner")

#: The ``TimingVM.execution_mode`` values counted as ``replay.<mode>``
#: (a ``"live"`` run is one replay does not apply to).
REPLAY_MODES = ("recorded", "replayed", "live_only")

#: Block-JIT counters of each simulated VM, summed into :data:`METRICS`
#: as ``jit.<name>``: what the hotness threshold compiled and what it
#: found ineligible.
JIT_COUNTERS = ("compiles", "ineligible", "compiled_guest_instructions")

#: Bumped when the row pack layout changes incompatibly; a pack of
#: another format is ignored and its row built, recorded and translated
#: afresh.  (The disk cache's code-version stamp already invalidates
#: packs on *any* source edit; this guards readers of a foreign cache.)
ROWPACK_FORMAT = 3

#: The :meth:`DiskCache.blob_stamp` of each row pack this process last
#: read or wrote, keyed ``(cache directory, (workload, scale))``: a
#: worker merges a row pack only when another worker has rewritten it.
_ROW_STAMPS: Dict[Tuple[str, Tuple[str, float]], Tuple[int, int]] = {}

#: Lazily constructed process-wide disk cache (None = disabled).
_DISK: Optional[DiskCache] = None
_DISK_ENABLED: Optional[bool] = None  # None = follow the environment

#: Latest cumulative telemetry snapshot per pool worker pid (see
#: :func:`worker_telemetry`).  Pool workers are long-lived, so each
#: :func:`_worker_run` ships a *cumulative* snapshot of its
#: process-global instruments; only the newest one per worker is kept
#: (folding them would double count).
_WORKER_TELEMETRY: Dict[int, dict] = {}

#: One record per group this pool worker has run (workload, scale,
#: cells, pid, queue wait, wall time, and how many of its cells were
#: recorded, replayed or live-only), shipped inside every cumulative
#: snapshot.  Only :func:`_worker_run` appends, so the parent's list
#: stays empty.
_GROUPS: List[dict] = []


#: Persistent worker pool for :func:`run_many`.  Kept alive across
#: calls so the workers' process-global caches — assembled programs,
#: translated blocks, execution records — stay warm from one
#: figure's sweep to the next (a multi-figure grid revisits the same
#: workloads under different configs; tearing the pool down between
#: figures used to throw that warm state away each time).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _worker_init() -> None:
    """Pool initializer: a forked worker starts without the parent's
    disk-cache object, with empty harness metrics and with zeroed
    translation hit/miss counts, so its telemetry counts only its own
    work (see _worker_disk and _worker_run).  The inherited translated
    blocks stay: reusing them is exact."""
    global METRICS
    configure_disk_cache(False)
    METRICS = MetricsRegistry("harness.runner")
    _TRANSLATIONS.hits = 0
    _TRANSLATIONS.misses = 0


def _pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
        _POOL_WORKERS = workers
    return _POOL


def _shutdown_pool() -> None:
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(_shutdown_pool)


def configure_disk_cache(enabled: bool = True, root: Optional[os.PathLike] = None) -> None:
    """Enable/disable the persistent cache (and optionally relocate it).

    ``benchmarks/run_all.py --no-cache`` and the tests use this; by
    default the cache is on, rooted at ``.runcache/`` (or
    ``$REPRO_RUNCACHE_DIR``).
    """
    global _DISK, _DISK_ENABLED
    _DISK_ENABLED = enabled
    _DISK = DiskCache(root) if (enabled and root is not None) else None


def disk_cache() -> Optional[DiskCache]:
    """The active :class:`DiskCache`, or ``None`` when disabled."""
    global _DISK
    enabled = _DISK_ENABLED if _DISK_ENABLED is not None else enabled_by_env()
    if not enabled:
        return None
    if _DISK is None:
        _DISK = DiskCache()
    return _DISK


def resolve_config(config: ConfigLike) -> VirtualArchConfig:
    """Accept a preset name or a config object; return the object."""
    if isinstance(config, VirtualArchConfig):
        return config
    return PRESETS[config]


def _memo_key(workload: str, config: VirtualArchConfig, scale: float):
    return (workload, config.name, config_digest(config), scale)


def run_one(workload: str, config: ConfigLike, scale: float = 1.0) -> TimingRunResult:
    """Run ``workload`` under ``config`` (preset name or object), cached.

    Lookup order: in-process memo, then disk cache, then simulate (and
    populate both).
    """
    cfg = resolve_config(config)
    cached = _lookup(workload, cfg, scale)
    return cached if cached is not None else _simulate(workload, cfg, scale)


def _lookup(workload: str, cfg: VirtualArchConfig, scale: float) -> Optional[TimingRunResult]:
    """One cell from the memo, else from the disk cache; ``None`` on a miss.

    Counts a memo hit, or a memo miss and then a disk hit or miss.  A
    disk hit is memoized.
    """
    key = _memo_key(workload, cfg, scale)
    cached = _CACHE.get(key)
    if cached is not None:
        METRICS.bump("run_cache.hits")
        return cached
    METRICS.bump("run_cache.misses")
    disk = disk_cache()
    if disk is not None:
        loaded = disk.load(workload, cfg, scale)
        if loaded is not None:
            METRICS.bump("disk_cache.hits")
            _CACHE.put(key, loaded)
            return loaded
        METRICS.bump("disk_cache.misses")
    return None


def _simulate(workload: str, cfg: VirtualArchConfig, scale: float) -> TimingRunResult:
    """Run one cell and store the result in the memo and the disk cache.

    The first cell of a (workload, scale) in this process records the
    guest and later ones replay it (see :mod:`repro.vm.timing`); the
    ``replay.*`` counters say how many of each there were, and the
    ``jit.*`` counters what the block JIT did in the live runs."""
    with prof.active().phase("run"):
        vm = TimingVM(
            _program(workload, scale), cfg,
            translation_cache=_TRANSLATIONS, program_key=(workload, scale),
        )
        result = vm.run()
    if vm.execution_mode in REPLAY_MODES:
        METRICS.bump(f"replay.{vm.execution_mode}")
    for name in JIT_COUNTERS:
        METRICS.bump("jit." + name, vm.jit_metrics[name])
    _CACHE.put(_memo_key(workload, cfg, scale), result)
    disk = disk_cache()
    if disk is not None:
        disk.store(workload, cfg, scale, result)
    return result


def _program(workload: str, scale: float) -> GuestProgram:
    """Assemble ``workload`` at ``scale``, memoized per process."""
    key = (workload, scale)
    program = _PROGRAMS.get(key)
    if program is None:
        METRICS.bump("program_cache.misses")
        program = build_workload(workload, scale=scale)
        _PROGRAMS.put(key, program)
    else:
        METRICS.bump("program_cache.hits")
    return program


def _worker_disk(enabled: bool, root: Optional[str]) -> Optional[DiskCache]:
    """This worker's disk cache for the parent's cache ``root``.

    Kept from group to group, so its counts and latency histograms are
    cumulative like the rest of the worker's telemetry; rebuilt only
    when the parent's root changes (or caching is turned off).
    """
    if not (enabled and _DISK is not None and str(_DISK.root.parent) == root):
        configure_disk_cache(enabled, root)
    return disk_cache()


def _row_pack_name(row: Tuple[str, float]) -> str:
    """The blob name of a row's pack."""
    workload, scale = row
    return f"rowpack_{workload}_{scale}".replace("/", "_")


def _load_row_pack(disk: DiskCache, name: str) -> Optional[Tuple[GuestProgram, Dict]]:
    """Read the row pack blob ``name`` and decode it (:func:`_unpack_row`).

    Counts ``rowpack.hits``, ``.misses`` (no blob, or one of another
    format) or ``.corrupt`` (a :class:`PackError`: the row is rebuilt),
    and the decode latency; returns the decoded pack, or ``None``.
    """
    data = disk.load_blob(name)
    if data is None:
        METRICS.bump("rowpack.misses")
        return None
    with prof.active().phase("jit.pack"):
        started = time.perf_counter_ns()
        try:
            value = _unpack_row(data)
        except PackError:
            value = None
            METRICS.bump("rowpack.corrupt")
        else:
            METRICS.bump("rowpack.misses" if value is None else "rowpack.hits")
        METRICS.observe("rowpack.unpack.us",
                        (time.perf_counter_ns() - started) / 1e3, IO_TIME_BUCKETS)
    return value


def _save_row_pack(disk: DiskCache, row: Tuple[str, float], program: GuestProgram) -> None:
    """Write ``row``'s pack and remember its stamp.  Packing is an
    optimization: a full or read-only cache directory must not fail the
    run, but it is counted as ``rowpack.save_failed``."""
    name = _row_pack_name(row)
    with prof.active().phase("jit.pack"):
        started = time.perf_counter_ns()
        try:
            disk.save_blob(name, _pack_row(program, _TRANSLATIONS.row_state(row)))
            saved = True
        except OSError:
            saved = False
        METRICS.bump("rowpack.saves" if saved else "rowpack.save_failed")
        METRICS.observe("rowpack.pack.us",
                        (time.perf_counter_ns() - started) / 1e3, IO_TIME_BUCKETS)
    if saved:
        _ROW_STAMPS[(str(disk.root), row)] = disk.blob_stamp(name)


def _row_size(row: Tuple[str, float]) -> int:
    """Translated blocks plus execution records held for ``row``: what
    a row pack grows by."""
    state = _TRANSLATIONS.row_state(row)
    return sum(map(len, state["spaces"].values())) + len(state["records"])


def _adopt_row_pack(disk: DiskCache, row: Tuple[str, float]) -> Optional[int]:
    """Merge ``row``'s pack into this process's caches if the pack
    changed since this process last read or wrote it.

    Returns the row's :func:`_row_size` afterwards, or ``None`` when
    the disk holds no usable pack (absent, undecodable or of another
    format), so the group's end writes one."""
    name = _row_pack_name(row)
    stamp = disk.blob_stamp(name)
    if stamp is None:
        METRICS.bump("rowpack.misses")
        return None
    seen = (str(disk.root), row)
    if _ROW_STAMPS.get(seen) != stamp:
        adopted = _load_row_pack(disk, name)
        if adopted is None:
            return None
        program, state = adopted
        if _PROGRAMS.peek(row) is None:
            _PROGRAMS.put(row, program)
        _TRANSLATIONS.adopt_row(row, state)
        _ROW_STAMPS[seen] = stamp
    return _row_size(row)


def _pack_row(program: GuestProgram, state: Dict) -> bytes:
    """A row pack: a row's assembled program and its
    :meth:`TranslationCache.row_state`."""
    return pickle.dumps((ROWPACK_FORMAT, program, state), protocol=pickle.HIGHEST_PROTOCOL)


def _unpack_row(data: bytes) -> Optional[Tuple[GuestProgram, Dict]]:
    """The ``(program, row state)`` of a :func:`_pack_row` blob;
    ``None`` for another format, :class:`PackError` if undecodable."""
    payload = load_pack(data, ROWPACK_FORMAT)
    if payload is None:
        return None
    try:
        program, state = payload
        shaped = (isinstance(program, GuestProgram)
                  and isinstance(state["records"], dict)
                  and all(isinstance(space, dict) for space in state["spaces"].values()))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise PackError("malformed row pack: %r" % err) from err
    if not shaped:
        raise PackError("malformed row pack")
    return program, state


def _worker_run(cells: Sequence[Tuple[str, VirtualArchConfig, float]],
                disk_enabled: bool, disk_root: Optional[str], submitted_ns: int
                ) -> Tuple[List[TimingRunResult], Dict[str, int], dict]:
    """Execute a group of cells in a worker process (module-level: picklable).

    Groups are one workload each (see :func:`run_many`), so the worker's
    program memo and translation cache stay warm across its cells.
    Before the cells the worker adopts the row's pack from the disk
    cache, and after them it saves the pack if the row grew.
    ``submitted_ns`` is the parent's ``perf_counter_ns()`` at submission
    (a system-wide clock), from which the group's queue wait is taken.

    Returns the results, this call's cache-activity *deltas* (disk
    stores, translation hits/misses) — counted from a snapshot, because
    the pool reuses worker processes and the worker-global caches carry
    counts across calls (without this the parent's reports showed zero
    stores for work the workers did) — and the worker's *cumulative*
    telemetry snapshot: its metrics registry, phase profile, cache
    stats and group records, which the parent folds via
    :func:`worker_telemetry`.
    """
    started_ns = time.perf_counter_ns()
    disk = _worker_disk(disk_enabled, disk_root)
    profiler = prof.active()
    stores_before = disk.stores if disk is not None else 0
    hits_before = _TRANSLATIONS.hits
    misses_before = _TRANSLATIONS.misses
    modes_before = {mode: METRICS["replay." + mode] for mode in REPLAY_MODES}
    workload, _, scale = cells[0]
    row = (workload, scale)
    if disk is not None:
        row_before = _adopt_row_pack(disk, row)
    results = [run_one(workload, config, scale) for workload, config, scale in cells]
    if disk is not None:
        # A long-lived worker may serve a cell from its in-process memo
        # (warmed by an earlier run_many against a different cache root)
        # without ever storing it here.  The parent only dispatched this
        # cell because the disk missed, so make sure it lands on disk.
        for (workload, config, scale), result in zip(cells, results):
            if not disk.has(workload, config, scale):
                disk.store(workload, config, scale, result)
        program = _PROGRAMS.peek(row)
        if program is not None and (row_before is None or _row_size(row) > row_before):
            _save_row_pack(disk, row, program)
    deltas = {
        "disk_stores": (disk.stores - stores_before) if disk is not None else 0,
        "translation_hits": _TRANSLATIONS.hits - hits_before,
        "translation_misses": _TRANSLATIONS.misses - misses_before,
    }
    _GROUPS.append({
        "workload": workload,
        "scale": scale,
        "cells": len(cells),
        "pid": os.getpid(),
        "queue_wait_s": round((started_ns - submitted_ns) / 1e9, 4),
        "wall_s": round((time.perf_counter_ns() - started_ns) / 1e9, 4),
        **{mode: METRICS["replay." + mode] - before for mode, before in modes_before.items()},
    })
    telemetry = {
        "pid": os.getpid(),
        "metrics": METRICS.snapshot(),
        "profile": profiler.snapshot(),
        "disk": disk.stats() if disk is not None else None,
        "translations": _TRANSLATIONS.stats(),
        "groups": list(_GROUPS),
    }
    return results, deltas, telemetry


def run_many(
    cells: Iterable[Cell], jobs: int = 1
) -> Dict[Tuple[str, str, float], TimingRunResult]:
    """Execute a work-list of grid cells, optionally in parallel.

    Cells already present in the memo or disk cache are served without
    simulation; the remaining misses fan out over a
    ``ProcessPoolExecutor`` with ``jobs`` workers (``jobs <= 1`` runs
    serially in-process).  Results land in the in-process memo *and*
    the disk cache, so subsequent :func:`run_one` calls — e.g. from the
    figure renderers — are hits.

    Returns ``{(workload, config name, scale): result}``.
    """
    resolved: List[Tuple[str, VirtualArchConfig, float]] = []
    seen = set()
    for workload, config, scale in cells:
        cfg = resolve_config(config)
        key = _memo_key(workload, cfg, scale)
        if key in seen:
            continue
        seen.add(key)
        resolved.append((workload, cfg, scale))

    results: Dict[Tuple[str, str, float], TimingRunResult] = {}
    misses: List[Tuple[str, VirtualArchConfig, float]] = []
    for workload, cfg, scale in resolved:
        cached = _lookup(workload, cfg, scale)
        if cached is None:
            misses.append((workload, cfg, scale))
        else:
            results[(workload, cfg.name, scale)] = cached

    if not misses:
        return results

    if jobs <= 1 or len(misses) == 1:
        for workload, cfg, scale in misses:
            results[(workload, cfg.name, scale)] = _simulate(workload, cfg, scale)
        return results

    disk = disk_cache()
    disk_enabled = disk is not None
    disk_root = None
    if disk is not None:
        # workers share the parent's cache directory (not the version
        # subdir — they recompute the same stamp from the same sources)
        disk_root = str(disk.root.parent)
    # Group cells by (workload, scale) and ship whole groups: the cells
    # of one group share an assembled program and its translations, so
    # splitting a group across workers would re-translate the same
    # blocks in each.  Grouping costs no parallelism at grid shape
    # (#workloads >= #workers) and keeps every worker's caches warm.
    groups: Dict[Tuple[str, float], List[Tuple[str, VirtualArchConfig, float]]] = {}
    for workload, cfg, scale in misses:
        groups.setdefault((workload, scale), []).append((workload, cfg, scale))
    grouped = list(groups.values())
    # sized from ``jobs`` alone: a pool sized to one call's group count
    # would be torn down (warm caches and all) by the next, wider call
    pool = _pool(jobs)
    futures = [
        (group, pool.submit(_worker_run, group, disk_enabled, disk_root,
                            time.perf_counter_ns()))
        for group in grouped
    ]
    for group, future in futures:
        group_results, deltas, telemetry = future.result()
        _WORKER_TELEMETRY[int(telemetry["pid"])] = telemetry
        for (workload, cfg, scale), result in zip(group, group_results):
            METRICS.bump("runs.parallel")
            _CACHE.put(_memo_key(workload, cfg, scale), result)
            results[(workload, cfg.name, scale)] = result
        # fold the workers' cache activity into the parent's books.
        # Stores fold into the disk object itself (it is the same
        # on-disk cache, just touched from another process); lookup
        # counts are NOT folded — the parent already recorded its
        # own miss for each shipped cell, and the workers' re-probe
        # of the same cells would double-count.
        if disk is not None:
            disk.stores += deltas["disk_stores"]
        for key in ("translation_hits", "translation_misses"):
            if deltas[key]:
                METRICS.bump("workers." + key, deltas[key])
    return results


def clear_cache() -> None:
    """Forget memoized runs, programs and translations (tests use this;
    the disk cache survives)."""
    _CACHE.clear()
    _PROGRAMS.clear()
    _TRANSLATIONS.clear()
    _ROW_STAMPS.clear()
    METRICS.bump("run_cache.clears")


def worker_telemetry() -> dict:
    """Per-worker and aggregate telemetry from the last pool activity.

    ``workers`` maps worker pid -> its latest cumulative snapshot
    (metrics registry, phase profile, disk/translation cache stats, and
    one record per group the worker ran: queue wait and wall time);
    ``aggregate`` folds them deterministically — workers are visited in
    sorted-pid order and both folds (:func:`merge_registry_snapshots`,
    :func:`repro.obs.prof.merge_profiles`) are order-independent, so
    the aggregate is bit-identical regardless of completion order.
    """
    workers = {pid: _WORKER_TELEMETRY[pid] for pid in sorted(_WORKER_TELEMETRY)}
    if not workers:
        return {"workers": {}, "aggregate": None}
    snapshots = [w.get("metrics") or {} for w in workers.values()]
    profiles = [w.get("profile") or {} for w in workers.values()]
    disk_totals = {"hits": 0, "misses": 0, "stores": 0}
    for worker in workers.values():
        disk = worker.get("disk")
        if disk:
            for key in disk_totals:
                disk_totals[key] += int(disk.get(key, 0))
    aggregate = {
        "worker_count": len(workers),
        "metrics": merge_registry_snapshots(snapshots, name="workers.aggregate"),
        "profile": prof.merge_profiles(profiles),
        "disk": disk_totals,
    }
    return {"workers": {str(pid): snap for pid, snap in workers.items()},
            "aggregate": aggregate}


#: The pack counters a sweep warns about, and what a nonzero count means.
PACK_FAILURES = {
    "rowpack.corrupt": "row pack(s) could not be decoded; their rows were built, "
                       "recorded and translated again",
    "rowpack.save_failed": "row pack(s) could not be written (full or read-only cache "
                           "directory?); later workers rebuild those rows",
}


def pack_warnings(telemetry: dict) -> List[str]:
    """One warning line per :data:`PACK_FAILURES` counter that the pool
    workers bumped, summed over :func:`worker_telemetry`'s aggregate.

    A pack failure costs only speed — results stay bit-identical — so
    without these lines a corrupt or unwritable pack directory would
    show up only as a slower sweep."""
    aggregate = telemetry.get("aggregate") or {}
    counters = (aggregate.get("metrics") or {}).get("counters") or {}
    disk = _DISK
    where = f" in {disk.root}" if disk is not None else ""
    return [
        f"warning: {name} = {counters[name]}{where}: {meaning}"
        for name, meaning in PACK_FAILURES.items()
        if counters.get(name)
    ]


def clear_worker_telemetry() -> None:
    """Forget recorded worker snapshots (tests and fresh sweeps)."""
    _WORKER_TELEMETRY.clear()


def cache_stats() -> dict:
    """Snapshot of every cache level's effectiveness (for run reports)."""
    disk = _DISK  # report only if instantiated; don't force creation
    out = {"size": len(_CACHE), "capacity": _CACHE.capacity, **METRICS.as_dict()}
    out["programs"] = len(_PROGRAMS)
    out["translations"] = _TRANSLATIONS.stats()
    if disk is not None:
        out["disk"] = disk.stats()
    return out


class RunGrid:
    """A (workloads x configs) grid of timing runs."""

    def __init__(
        self,
        workloads: Iterable[str],
        config_names: Iterable[str],
        scale: float = 1.0,
    ) -> None:
        self.workloads: List[str] = list(workloads)
        self.config_names: List[str] = list(config_names)
        self.scale = scale

    def cells(self) -> List[Cell]:
        """The grid's work-list, row-major."""
        return [
            (workload, config, self.scale)
            for workload in self.workloads
            for config in self.config_names
        ]

    def materialize(self, jobs: int = 1) -> "RunGrid":
        """Compute every cell (fanning out over ``jobs`` workers), so
        subsequent :meth:`row`/:meth:`column` calls are cache hits."""
        run_many(self.cells(), jobs=jobs)
        return self

    def result(self, workload: str, config_name: str) -> TimingRunResult:
        return run_one(workload, config_name, self.scale)

    def column(self, config_name: str) -> List[TimingRunResult]:
        return [self.result(w, config_name) for w in self.workloads]

    def row(self, workload: str) -> List[TimingRunResult]:
        return [self.result(workload, c) for c in self.config_names]
