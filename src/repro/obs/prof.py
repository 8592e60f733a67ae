"""Phase-attributed host-time profiler: where do the sweep's seconds go?

The paper reports *where cycles go* (translation vs execution vs
reconfiguration); this module answers the same question about the
simulator's own wall-clock, attributing host time to simulator phases —
``decode``, ``frontend``, ``optimizer`` (with per-pass children),
``codegen``, ``schedule``, ``verify``, ``jit.compile``, ``jit.run``,
``jit.pack``, ``interpreter``, ``memsys``, ``morph``, ``vm.fetch``,
``vm.spec``, ``cache.io`` and the harness-level ``run`` — so the next
optimization knows which 2x to chase.

Design mirrors :data:`~repro.obs.events.NULL_TRACER`:

* off by default — every instrumented component resolves
  :func:`active` once at construction and gets :data:`NULL_PROFILER`,
  whose ``enabled`` flag is ``False``.  Hot loops guard with a single
  local boolean, cool paths use ``with profiler.phase(name):`` whose
  null form is a shared no-op context manager; either way a
  non-profiled run pays an attribute load and nothing else (asserted by
  the test suite and the perf-smoke gate);
* enabled via ``REPRO_PROF=1`` in the environment (inherited by
  ``run_many`` worker processes, so pooled sweeps profile per worker)
  or programmatically via :func:`enable` / ``--profile`` flags;
* measured with ``time.perf_counter_ns`` — a monotonic interval clock,
  which the determinism lint explicitly permits (profile data never
  feeds simulation results; :class:`~repro.vm.timing.TimingRunResult`
  stays bit-identical profiled or not).

Attribution is *path-keyed*: a phase entered while another is open
records under the concatenated path (``run;interpreter;memsys``), so
snapshots render directly as collapsed stacks (`speedscope
<https://speedscope.app>`_ / FlameGraph format, see
:func:`collapsed_stacks` and ``python -m repro.obs flame``) and obey
the conservation law :func:`conservation_violations` checks: the sum
of a path's children never exceeds the path's own time.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Set to ``1`` (anything but ``0``/``off``/``no``/``false``/empty) to
#: profile every process that imports this module.
ENABLE_ENV = "REPRO_PROF"

#: The phase names the simulator is instrumented with (free-form names
#: are allowed; these are the documented taxonomy).
PHASES = (
    "run",          # one harness-level timing run (parent of everything below)
    "translate",    # the DBT pipeline (parent of decode..verify)
    "decode",       # guest basic-block scan
    "frontend",     # VX86 -> UCode lowering
    "optimizer",    # IR passes (per-pass children when profiling)
    "codegen",      # UCode -> R32 emission
    "schedule",     # list scheduling
    "verify",       # checked-mode verifiers
    "jit.compile",  # block JIT closure compilation
    "jit.run",      # executing compiled closures
    "jit.pack",     # row pack (un)pickling (perfbench reads this name)
    "interpreter",  # reference-interpreter block execution
    "memsys",       # timing memory-system accesses
    "morph",        # reconfiguration controller
    "vm.fetch",     # code-cache fetch: L1, L1.5 banks, manager (parent of a demand translate)
    "vm.spec",      # speculative-translation slave timeline (parent of its translates)
    "cache.io",     # persistent disk-cache reads/writes
)

_SEPARATOR = ";"


class _NullPhase:
    """Shared no-op context manager returned by the null profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullProfiler:
    """The do-nothing default: ``enabled`` is False, every op is a no-op.

    Shared and stateless, like :data:`~repro.obs.events.NULL_TRACER`:
    "is profiling on?" is a single attribute load.
    """

    enabled: bool = False

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def enter(self, name: str) -> None:
        return None

    def exit(self) -> None:
        return None

    def add(self, name: str, elapsed_ns: int, count: int = 1) -> None:
        return None

    def snapshot(self) -> Dict[str, object]:
        return {}


#: The shared default sink.
NULL_PROFILER = NullProfiler()


class _Phase:
    """Reusable context manager for one phase name on one profiler."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Phase":
        self._profiler.enter(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler.exit()


class PhaseProfiler:
    """Scoped wall-clock timers accumulating per-phase-path totals.

    >>> clock = iter(range(0, 1000, 10)).__next__
    >>> p = PhaseProfiler(clock=clock)
    >>> with p.phase("run"):
    ...     with p.phase("decode"):
    ...         pass
    >>> sorted(p.snapshot()["paths"])
    ['run', 'run;decode']
    """

    enabled: bool = True

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        #: open-phase stack: parallel lists of start timestamps and the
        #: path tuple active *after* each enter (cheap push/pop).
        self._starts: List[int] = []
        self._paths: List[Tuple[str, ...]] = []
        #: current path tuple ("" root is implicit, not stored).
        self._path: Tuple[str, ...] = ()
        #: path tuple -> [total_ns, calls]
        self._acc: Dict[Tuple[str, ...], List[int]] = {}
        self._ctxs: Dict[str, _Phase] = {}

    # -- recording --------------------------------------------------------

    def phase(self, name: str) -> _Phase:
        """A reusable ``with``-able scope for ``name`` (cached per name)."""
        ctx = self._ctxs.get(name)
        if ctx is None:
            ctx = self._ctxs[name] = _Phase(self, name)
        return ctx

    def enter(self, name: str) -> None:
        """Open phase ``name``; nests under any open phase."""
        self._path = self._path + (name,)
        self._paths.append(self._path)
        self._starts.append(self._clock())

    def exit(self) -> None:
        """Close the innermost open phase and book its elapsed time."""
        elapsed = self._clock() - self._starts.pop()
        path = self._paths.pop()
        entry = self._acc.get(path)
        if entry is None:
            self._acc[path] = [elapsed, 1]
        else:
            entry[0] += elapsed
            entry[1] += 1
        self._path = self._paths[-1] if self._paths else ()

    def add(self, name: str, elapsed_ns: int, count: int = 1) -> None:
        """Book pre-measured time under ``name`` below the current path.

        The cheap form for per-access hot spots (the memory system): the
        caller reads the clock itself and this call is one dict update —
        no stack push/pop, no extra clock reads.
        """
        path = self._path + (name,)
        entry = self._acc.get(path)
        if entry is None:
            self._acc[path] = [elapsed_ns, count]
        else:
            entry[0] += elapsed_ns
            entry[1] += count

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serializable cumulative state: ``{"paths": {"a;b": {...}}}``.

        Open phases are *not* flushed — a snapshot taken mid-run covers
        completed scopes only, so totals are exact, never estimated.
        """
        return {
            "clock": "perf_counter_ns",
            "paths": {
                _SEPARATOR.join(path): {"ns": entry[0], "calls": entry[1]}
                for path, entry in sorted(self._acc.items())
            },
        }

    def clear(self) -> None:
        """Forget accumulated totals (open-phase stack must be empty)."""
        if self._starts:
            raise RuntimeError("cannot clear a profiler with open phases")
        self._acc.clear()


# -- process-global active profiler ---------------------------------------


def enabled_by_env() -> bool:
    """Whether the environment asks for profiling (default: no)."""
    value = os.environ.get(ENABLE_ENV, "").strip().lower()
    return value not in ("", "0", "off", "no", "false")


def _initial_profiler():
    return PhaseProfiler() if enabled_by_env() else NULL_PROFILER


#: The process-wide profiler every instrumented component binds at
#: construction.  Workers spawned by ``run_many`` inherit ``REPRO_PROF``
#: through the environment, so this resolves consistently per process.
_ACTIVE = _initial_profiler()


def active():
    """The process-wide profiler (:data:`NULL_PROFILER` when off)."""
    return _ACTIVE


def set_profiler(profiler) -> object:
    """Install ``profiler`` as the process-wide sink; returns the old one.

    Components bind the active profiler at *construction* — install
    before building the VM / translator / harness you want profiled.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    return previous


def enable() -> PhaseProfiler:
    """Install (and return) a fresh :class:`PhaseProfiler`."""
    profiler = PhaseProfiler()
    set_profiler(profiler)
    return profiler


def disable() -> None:
    """Restore the zero-cost null profiler."""
    set_profiler(NULL_PROFILER)


# -- snapshot algebra ------------------------------------------------------


def merge_profiles(snapshots: Iterable[Mapping]) -> Dict[str, object]:
    """Fold profile snapshots into one aggregate, order-independently.

    Totals are integer nanoseconds, so addition is exact and any
    permutation of ``snapshots`` produces a bit-identical aggregate
    (asserted by the metrics-merge property tests).
    """
    merged: Dict[str, List[int]] = {}
    for snap in snapshots:
        for path, entry in (snap.get("paths") or {}).items():
            slot = merged.get(path)
            if slot is None:
                merged[path] = [int(entry["ns"]), int(entry["calls"])]
            else:
                slot[0] += int(entry["ns"])
                slot[1] += int(entry["calls"])
    return {
        "clock": "perf_counter_ns",
        "paths": {
            path: {"ns": entry[0], "calls": entry[1]}
            for path, entry in sorted(merged.items())
        },
    }


def _children(snapshot: Mapping) -> Dict[str, List[Tuple[str, Dict]]]:
    """Group path entries under their parent path ("" = roots)."""
    groups: Dict[str, List[Tuple[str, Dict]]] = {}
    for path, entry in sorted((snapshot.get("paths") or {}).items()):
        parent, _, _leaf = path.rpartition(_SEPARATOR)
        groups.setdefault(parent, []).append((path, dict(entry)))
    return groups


def self_times(snapshot: Mapping) -> Dict[str, int]:
    """Per-path *self* nanoseconds: own total minus the children's.

    Clamped at zero — scoped-timer overhead can make children measure a
    hair past the parent; the clamp keeps flame exports well-formed.
    """
    paths = snapshot.get("paths") or {}
    groups = _children(snapshot)
    out: Dict[str, int] = {}
    for path, entry in paths.items():
        child_ns = sum(c["ns"] for _, c in groups.get(path, ()))
        out[path] = max(0, int(entry["ns"]) - child_ns)
    return out


def collapsed_stacks(snapshot: Mapping) -> str:
    """Render a snapshot in Brendan Gregg collapsed-stack format.

    One ``path;leaf value`` line per path with nonzero self time, value
    in integer microseconds — directly loadable by speedscope and
    ``flamegraph.pl``.
    """
    lines = []
    for path, ns in sorted(self_times(snapshot).items()):
        micros = ns // 1000
        if micros > 0:
            lines.append(f"{path} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def conservation_violations(
    snapshot: Mapping, relative: float = 0.01, slack_ns: int = 50_000
) -> List[str]:
    """Paths whose children's summed time exceeds the parent's own.

    Scoped timers guarantee children close inside their parent, so for
    every parent ``sum(child ns) <= parent ns`` up to timer-overhead
    noise (``relative`` fraction plus ``slack_ns`` absolute).  A
    violation means double counting — the property the phase-time
    conservation test pins.
    """
    paths = snapshot.get("paths") or {}
    problems = []
    for parent, children in _children(snapshot).items():
        if not parent:
            continue  # roots have no enclosing budget
        parent_entry = paths.get(parent)
        if parent_entry is None:
            problems.append(f"orphan children under missing parent {parent!r}")
            continue
        budget = int(parent_entry["ns"]) * (1.0 + relative) + slack_ns
        child_ns = sum(int(c["ns"]) for _, c in children)
        if child_ns > budget:
            problems.append(
                f"{parent!r}: children sum to {child_ns}ns "
                f"> parent {parent_entry['ns']}ns (+tolerance)"
            )
    return problems


def phase_totals(snapshot: Mapping) -> Dict[str, Dict[str, int]]:
    """Per-*leaf* totals across all paths (perfbench's per-layer view).

    ``{"memsys": {"ns": ..., "calls": ...}, ...}`` — a leaf appearing
    under several parents (``interpreter;memsys`` and ``jit.run;memsys``)
    is summed.
    """
    totals: Dict[str, List[int]] = {}
    for path, entry in (snapshot.get("paths") or {}).items():
        leaf = path.rpartition(_SEPARATOR)[2]
        slot = totals.get(leaf)
        if slot is None:
            totals[leaf] = [int(entry["ns"]), int(entry["calls"])]
        else:
            slot[0] += int(entry["ns"])
            slot[1] += int(entry["calls"])
    return {
        leaf: {"ns": entry[0], "calls": entry[1]}
        for leaf, entry in sorted(totals.items())
    }


def render_profile(snapshot: Mapping, limit: int = 30) -> str:
    """Human-readable profile table (CLI + reports), hottest first."""
    paths = snapshot.get("paths") or {}
    if not paths:
        return "(no profile data — was profiling enabled?)"
    selfs = self_times(snapshot)
    total_self = sum(selfs.values()) or 1
    rows = sorted(paths.items(), key=lambda kv: -int(kv[1]["ns"]))
    lines = [f"{'phase path':<44} {'total ms':>10} {'self ms':>10} {'self %':>7} {'calls':>10}"]
    for path, entry in rows[:limit]:
        lines.append(
            f"{path:<44} {int(entry['ns']) / 1e6:>10.2f} "
            f"{selfs.get(path, 0) / 1e6:>10.2f} "
            f"{100.0 * selfs.get(path, 0) / total_self:>6.1f}% "
            f"{int(entry['calls']):>10}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more paths")
    return "\n".join(lines)
