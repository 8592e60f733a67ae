"""Durable on-disk result cache for timing runs.

Real DBT systems (FX!32, DynamoRIO) ship persistent translation caches
so that work survives process exit; this module applies the same idea
to the simulator's own experiment grid.  Each (workload, config, scale)
cell is one JSON file under ``.runcache/``, keyed by a content hash of
the workload name + scale, every :class:`VirtualArchConfig` field, and
a *code-version stamp* — a hash over the ``repro`` package sources — so
entries written by an older revision of the simulator self-invalidate
instead of serving stale timing numbers.

The cache is safe under concurrent writers (``run_many`` worker
processes): files are written to a temp name and atomically renamed
(``tempfile.mkstemp`` + ``os.replace``), and two workers racing on the
same cell write identical content because every run is deterministic.
Readers independently verify every document's stamp fields (format,
code version, workload, scale, full config) against the request before
serving it, so a hash collision, a foreign file at the cell path, or a
corrupted document degrades to a miss instead of a wrong result — the
``diskcache-stamp-match`` invariant of the protocol model in
:mod:`repro.verify.protocol.models`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.morph.config import VirtualArchConfig
from repro.obs import prof
from repro.obs.metrics import IO_TIME_BUCKETS, MetricsRegistry
from repro.vm.timing import TimingRunResult

#: Default cache directory (repo/cwd-relative), overridable via env.
DEFAULT_ROOT = ".runcache"

#: Environment variable naming the cache directory.
ROOT_ENV = "REPRO_RUNCACHE_DIR"

#: Set to ``0``/``off``/``no`` to disable the disk cache entirely.
ENABLE_ENV = "REPRO_RUNCACHE"

#: Bumped when the serialized result format changes incompatibly.
FORMAT_VERSION = 1

_version_stamp: Optional[str] = None


def code_version_stamp() -> str:
    """Hash of every ``repro`` source file (cached per process).

    Any edit to the simulator — cost model, workload generator,
    interpreter — changes the stamp, so cached results can never
    outlive the code that produced them.
    """
    global _version_stamp
    if _version_stamp is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _version_stamp = digest.hexdigest()[:16]
    return _version_stamp


def config_digest(config: VirtualArchConfig) -> str:
    """Stable content hash of every field of ``config``.

    This (not the preset *name*) is what cache keys carry, so a mutated
    or custom configuration can never alias a preset's cached result.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_to_dict(result: TimingRunResult) -> dict:
    """Serialize a run result to plain JSON-safe data."""
    return dataclasses.asdict(result)


def result_from_dict(data: dict) -> TimingRunResult:
    """Rebuild a :class:`TimingRunResult` from :func:`result_to_dict`."""
    return TimingRunResult(**data)


class DiskCache:
    """JSON-per-cell persistent store for :class:`TimingRunResult`.

    Layout: ``<root>/v<FORMAT_VERSION>-<code stamp>/<cell key>.json``.
    A new code version gets a fresh subdirectory, which is how stale
    entries self-invalidate (old subdirectories are never read, and
    :meth:`prune_stale_versions` deletes them).
    """

    def __init__(self, root: Optional[os.PathLike] = None, version: Optional[str] = None) -> None:
        base = Path(root if root is not None else os.environ.get(ROOT_ENV, DEFAULT_ROOT))
        self.version = version if version is not None else code_version_stamp()
        self.root = base / f"v{FORMAT_VERSION}-{self.version}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: per-instance I/O latency distributions (load.us / store.us),
        #: shipped in worker telemetry
        self.metrics = MetricsRegistry("harness.diskcache")
        self.profiler = prof.active()

    # -- keys -------------------------------------------------------------

    def cell_key(self, workload: str, config: VirtualArchConfig, scale: float) -> str:
        """Filename stem for one grid cell (readable prefix + hash)."""
        digest = hashlib.sha256(
            json.dumps([workload, scale, config_digest(config)]).encode()
        ).hexdigest()[:20]
        safe = f"{workload}_{config.name}".replace("/", "_")
        return f"{safe}_{digest}"

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """Stage ``data`` in a temp file beside ``path``, then rename it
        over ``path``: a concurrent reader sees the old file or the new
        one, never a torn write."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- access -----------------------------------------------------------

    def has(self, workload: str, config: VirtualArchConfig, scale: float) -> bool:
        """Whether a cell's entry exists (no read, just a stat)."""
        return self._path(self.cell_key(workload, config, scale)).exists()

    def load(
        self, workload: str, config: VirtualArchConfig, scale: float
    ) -> Optional[TimingRunResult]:
        """Return the cached result for a cell, or ``None``."""
        with self.profiler.phase("cache.io"):
            started = time.perf_counter_ns()
            result = self._load(workload, config, scale)
            self.metrics.observe(
                "load.us", (time.perf_counter_ns() - started) / 1e3, IO_TIME_BUCKETS
            )
        return result

    def _load(
        self, workload: str, config: VirtualArchConfig, scale: float
    ) -> Optional[TimingRunResult]:
        path = self._path(self.cell_key(workload, config, scale))
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not self._stamp_matches(doc, workload, config, scale):
            self.misses += 1
            return None
        try:
            result = result_from_dict(doc["result"])
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _stamp_matches(
        self, doc: object, workload: str, config: VirtualArchConfig, scale: float
    ) -> bool:
        """Whether a loaded document really belongs to the requested cell.

        The path already encodes the key, but the reader must not trust
        the filesystem: mismatched-stamp documents read as misses.
        """
        if not isinstance(doc, dict):
            return False
        return (
            doc.get("format") == FORMAT_VERSION
            and doc.get("version") == self.version
            and doc.get("workload") == workload
            and doc.get("scale") == scale
            and doc.get("config") == dataclasses.asdict(config)
        )

    def store(
        self, workload: str, config: VirtualArchConfig, scale: float, result: TimingRunResult
    ) -> Path:
        """Persist one cell atomically; returns the file path."""
        with self.profiler.phase("cache.io"):
            started = time.perf_counter_ns()
            path = self._store(workload, config, scale, result)
            self.metrics.observe(
                "store.us", (time.perf_counter_ns() - started) / 1e3, IO_TIME_BUCKETS
            )
        return path

    def _store(
        self, workload: str, config: VirtualArchConfig, scale: float, result: TimingRunResult
    ) -> Path:
        path = self._path(self.cell_key(workload, config, scale))
        doc = {
            "format": FORMAT_VERSION,
            "version": self.version,
            "workload": workload,
            "config": dataclasses.asdict(config),
            "scale": scale,
            "result": result_to_dict(result),
        }
        self._write_atomic(path, json.dumps(doc, sort_keys=True).encode())
        self.stores += 1
        return path

    # -- perfbench shim ----------------------------------------------------

    def load_blob(self, name: str) -> Optional[bytes]:
        """The bytes of ``<name>.bin`` in the versioned directory, or
        ``None``.  Nothing writes such files any more; kept only because
        ``perfbench/child.py``'s traced ``pooled_layers`` still calls it,
        and it goes with that call."""
        try:
            return (self.root / f"{name}.bin").read_bytes()
        except OSError:
            return None

    # -- housekeeping -----------------------------------------------------

    def prune_stale_versions(self) -> int:
        """Delete the directories of other code versions beside :attr:`root`.

        Only directories named ``v<FORMAT_VERSION>-<16 hex digits>``
        go; every other file under the cache root stays.  A directory
        that vanishes meanwhile (another process pruning it) is not an
        error.  Returns how many directories were removed.  Only the
        owner of a whole sweep may call this (``benchmarks/run_all.py``
        does, before its sweep): a concurrent process of another code
        version may still be using its directory.
        """
        stale = re.compile(r"v%d-[0-9a-f]{16}" % FORMAT_VERSION)
        try:
            siblings = list(self.root.parent.iterdir())
        except FileNotFoundError:
            return 0
        removed = 0
        for path in siblings:
            if (path.name != self.root.name and stale.fullmatch(path.name)
                    and path.is_dir() and not path.is_symlink()):
                shutil.rmtree(path, onerror=_vanished_is_fine)
                removed += 1
        return removed

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict:
        """Hit/miss/store counts, the derived hit rate, and latencies."""
        looked = self.hits + self.misses
        out = {
            "root": str(self.root),
            "version": self.version,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hits / looked if looked else 0.0,
        }
        latency = {}
        for key, hist in self.metrics.histograms().items():
            if hist.count:
                latency[key] = hist.track.as_dict()
        if latency:
            out["latency_us"] = latency
        return out


def _vanished_is_fine(function, path, exc_info) -> None:
    """``shutil.rmtree`` error handler: re-raise all but a missing file."""
    if not issubclass(exc_info[0], FileNotFoundError):
        raise exc_info[1]


def enabled_by_env() -> bool:
    """Whether the environment allows disk caching (default: yes)."""
    return os.environ.get(ENABLE_ENV, "1").strip().lower() not in ("0", "off", "no", "false")
