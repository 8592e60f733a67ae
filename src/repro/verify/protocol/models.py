"""Small-scope models of the simulator's three stateful protocols.

Each model abstracts one protocol the code implements:

``SmcModel``
    Self-modifying-code invalidation: text writes bump the translation
    generation (``TimingVM.code_writes`` / ``CachingTranslator``) and
    mark pages pending, and the block boundary that handles the pending
    pages (``TimingVM._invalidate_smc_pages``) drops every compiled
    closure (``BlockJit.invalidate``) before the next dispatch.  The
    dispatch loop looks every block up afresh, so no closure reference
    survives that boundary.

``MorphModel``
    The morph controller FSM (``morph/controller.py``): a queue-length
    policy flips the tile allocation between translation-heavy and
    memory-heavy shapes with hysteresis; shrinking the slave pool must
    not lose in-flight work.

``DiskCacheModel``
    Concurrent ``harness/diskcache.py`` writers sharing one cache dir:
    the stage-to-``*.tmp``-then-``os.replace`` protocol keeps partial
    writes invisible, and the reader's stamp check rejects cells from a
    different format/code version.

Every model takes ``buggy_*`` knobs that re-introduce a specific,
historically plausible bug; checking the buggy variant must produce a
counterexample trace naming the violated invariant (the planted-bug
tests pin this).  All state components are small tuples so the full
reachable space closes in well under a second.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .mc import Model, State

# ---------------------------------------------------------------------------
# Model 1: SMC invalidation generations
# ---------------------------------------------------------------------------


class SmcModel(Model):
    """Generation protocol for self-modifying code.

    State: ``(gen, pending, tc, jit, err)``

    - ``gen``: translation generation (bumped per text write)
    - ``pending``: a text write happened inside the current block and
      the boundary invalidation has not run yet; no dispatch can occur
      while it is set (the writing block runs to its boundary first)
    - ``tc``: translation-cache contents as ``(generation, pc)`` keys
    - ``jit``: the block table's compiled closures as ``(generation,
      pc)``, stamped with the generation they were compiled in; at
      most one per pc, and ``BlockJit.invalidate`` clears them all
    - ``err``: the invariant an action just violated, or ``None``
    """

    name = "smc"
    invariants = ("smc-no-stale-translation", "smc-no-stale-closure")

    def __init__(
        self,
        pcs: int = 2,
        max_writes: int = 2,
        buggy_unkeyed_lookup: bool = False,
        buggy_dispatch_before_invalidate: bool = False,
        buggy_boundary_keeps_closures: bool = False,
    ) -> None:
        self.pcs = pcs
        self.max_writes = max_writes
        self.buggy_unkeyed_lookup = buggy_unkeyed_lookup
        self.buggy_dispatch_before_invalidate = buggy_dispatch_before_invalidate
        self.buggy_boundary_keeps_closures = buggy_boundary_keeps_closures

    def initial_states(self) -> Iterable[State]:
        yield (0, False, frozenset(), frozenset(), None)

    def violations(self, state: State) -> Iterable[str]:
        err = state[4]
        return (err,) if err else ()

    def actions(self, state: State) -> Iterable[Tuple[str, State]]:
        gen, pending, tc, jit, err = state
        assert err is None  # violating states are sinks

        # Translate / compile can proceed any time (slave tiles work
        # asynchronously); both stamp the *current* generation.
        compiled = {pc for _, pc in jit}
        for pc in range(self.pcs):
            if (gen, pc) not in tc:
                yield (f"translate(p{pc})", (gen, pending, tc | {(gen, pc)}, jit, None))
            if pc not in compiled:
                yield (f"jit-compile(p{pc})", (gen, pending, tc, jit | {(gen, pc)}, None))

        dispatch_ok = (not pending) or self.buggy_dispatch_before_invalidate
        if dispatch_ok:
            # Execute a cached translation: the lookup key includes the
            # generation, so only current-generation entries are
            # reachable — unless the planted bug drops the key.
            for g, pc in sorted(tc):
                if g == gen:
                    yield (f"exec-translation(p{pc})", state)
                elif self.buggy_unkeyed_lookup or pending:
                    # ``pending`` here is only reachable via the
                    # dispatch-before-invalidate bug: the entry was
                    # translated from the bytes the write just changed.
                    yield (
                        f"exec-stale-translation(p{pc}@g{g})",
                        (gen, pending, tc, jit, "smc-no-stale-translation"),
                    )
            # Execute the table's closure: one compiled before the
            # latest text write runs the old bytes.
            for g, pc in sorted(jit):
                if g == gen:
                    yield (f"exec-jit(p{pc})", state)
                else:
                    yield (
                        f"exec-stale-jit(p{pc}@g{g})",
                        (gen, pending, tc, jit, "smc-no-stale-closure"),
                    )

        # A guest store hits the text section mid-block: bump the
        # generation and mark the boundary invalidation pending.
        if gen < self.max_writes and not pending:
            yield ("write-text", (gen + 1, True, tc, jit, None))

        # Block boundary with a pending SMC page: invalidate the JIT
        # table, dropping every compiled closure.
        if pending:
            kept = jit if self.buggy_boundary_keeps_closures else frozenset()
            yield ("boundary-invalidate", (gen, False, tc, kept, None))

    def describe(self, state: State) -> str:
        gen, pending, tc, jit, err = state
        return f"gen={gen} pending={pending} tc={sorted(tc)} jit={sorted(jit)} err={err}"


# ---------------------------------------------------------------------------
# Model 2: morph controller FSM
# ---------------------------------------------------------------------------


class MorphModel(Model):
    """Queue-length morphing with hysteresis and in-flight work.

    State: ``(shape, t, last_change, q, inflight, done, produced, err)``
    with shapes ``"trans"`` (more translation slaves) and ``"mem"``
    (fewer slaves, more cache banks), mirroring
    ``SHAPE_TRANSLATION_HEAVY`` / ``SHAPE_MEMORY_HEAVY``.
    """

    name = "morph"
    invariants = ("morph-no-lost-blocks", "morph-hysteresis", "morph-no-deadlock")
    deadlock_invariant = "morph-no-deadlock"

    def __init__(
        self,
        qmax: int = 2,
        produce_max: int = 3,
        tmax: int = 6,
        hysteresis: int = 2,
        threshold: int = 1,
        buggy_drop_inflight: bool = False,
        buggy_no_hysteresis: bool = False,
        buggy_zero_slaves: bool = False,
    ) -> None:
        self.qmax = qmax
        self.produce_max = produce_max
        self.tmax = tmax
        self.hysteresis = hysteresis
        self.threshold = threshold
        self.buggy_drop_inflight = buggy_drop_inflight
        self.buggy_no_hysteresis = buggy_no_hysteresis
        self.buggy_zero_slaves = buggy_zero_slaves
        self.slaves: Dict[str, int] = {
            "trans": 2,
            "mem": 0 if buggy_zero_slaves else 1,
        }

    def initial_states(self) -> Iterable[State]:
        # last_change = -hysteresis models the controller's initial
        # reconfig being free of the hysteresis gate.
        yield ("trans", 0, -self.hysteresis, 0, 0, 0, 0, None)

    def violations(self, state: State) -> Iterable[str]:
        shape, t, last_change, q, inflight, done, produced, err = state
        out: List[str] = []
        if err:
            out.append(err)
        if q + inflight + done != produced:
            out.append("morph-no-lost-blocks")
        return out

    def is_quiescent(self, state: State) -> bool:
        _, _, _, q, inflight, _, _, _ = state
        return q == 0 and inflight == 0

    def actions(self, state: State) -> Iterable[Tuple[str, State]]:
        shape, t, last_change, q, inflight, done, produced, err = state

        if produced < self.produce_max and q < self.qmax:
            yield ("produce", (shape, t, last_change, q + 1, inflight, done, produced + 1, None))
        if q > 0 and inflight < self.slaves[shape]:
            yield ("start", (shape, t, last_change, q - 1, inflight + 1, done, produced, None))
        if inflight > 0:
            yield ("complete", (shape, t, last_change, q, inflight - 1, done + 1, produced, None))
        if t < self.tmax:
            yield ("tick", (shape, t + 1, last_change, q, inflight, done, produced, None))

        # Controller sample: the queue-length policy picks a desired
        # shape; a flip is gated by the hysteresis window.
        desired = "trans" if q > self.threshold else "mem"
        if desired != shape:
            gate_open = (t - last_change) >= self.hysteresis
            if gate_open or self.buggy_no_hysteresis:
                new_err = None if gate_open else "morph-hysteresis"
                new_inflight = inflight
                if self.buggy_drop_inflight and desired == "mem":
                    # Shrinking the slave pool discards work beyond the
                    # new pool size instead of letting it complete.
                    new_inflight = min(inflight, self.slaves["mem"])
                yield (
                    f"morph({shape}->{desired})",
                    (desired, t, t, q, new_inflight, done, produced, new_err),
                )

    def describe(self, state: State) -> str:
        shape, t, last_change, q, inflight, done, produced, err = state
        return (
            f"shape={shape} t={t} last_change={last_change} q={q} "
            f"inflight={inflight} done={done} produced={produced} err={err}"
        )


# ---------------------------------------------------------------------------
# Model 3: concurrent disk-cache writers
# ---------------------------------------------------------------------------


class DiskCacheModel(Model):
    """Two writers and a reader racing on one cache cell.

    State: ``(cell, writer_pcs, err)`` where ``cell`` is one of
    ``("absent",)``, ``("stale",)`` (a complete cell written by a
    different code version), ``("torn", w)`` (a partially-written cell
    — only reachable when the atomic-replace protocol is broken) or
    ``("ok", w)``; each writer pc is 0 (idle), 1 (staged to ``*.tmp``)
    or 2 (published).
    """

    name = "diskcache"
    invariants = (
        "diskcache-no-torn-read",
        "diskcache-stamp-match",
        "diskcache-converges",
    )

    def __init__(
        self,
        writers: int = 2,
        buggy_direct_write: bool = False,
        buggy_no_stamp_check: bool = False,
    ) -> None:
        self.writers = writers
        self.buggy_direct_write = buggy_direct_write
        self.buggy_no_stamp_check = buggy_no_stamp_check

    def initial_states(self) -> Iterable[State]:
        idle = (0,) * self.writers
        yield (("absent",), idle, None)
        # A pre-existing cell from an older code version: same path,
        # different stamp.
        yield (("stale",), idle, None)

    def violations(self, state: State) -> Iterable[str]:
        cell, pcs, err = state
        out: List[str] = []
        if err:
            out.append(err)
        if all(pc == 2 for pc in pcs) and cell[0] != "ok":
            # Every writer finished, yet the cell is not a complete
            # current-version document: the stores did not converge.
            out.append("diskcache-converges")
        return out

    def actions(self, state: State) -> Iterable[Tuple[str, State]]:
        cell, pcs, err = state
        assert err is None

        for w, pc in enumerate(pcs):
            if pc == 0:
                # Stage the document.  The atomic protocol writes to a
                # private ``*.tmp`` file, invisible to readers; the
                # buggy variant opens the final path directly, exposing
                # a torn cell until the write completes.
                new_cell = ("torn", w) if self.buggy_direct_write else cell
                yield (f"w{w}-stage", (new_cell, pcs[:w] + (1,) + pcs[w + 1 :], None))
            elif pc == 1:
                # Publish: os.replace is atomic, so the cell goes from
                # whatever it was straight to a complete document.
                yield (f"w{w}-publish", (("ok", w), pcs[:w] + (2,) + pcs[w + 1 :], None))

        # A concurrent reader can observe the cell at any time.
        if cell[0] == "torn":
            yield ("read-torn", (cell, pcs, "diskcache-no-torn-read"))
        elif cell[0] == "stale":
            if self.buggy_no_stamp_check:
                # Reader consumes the old-version cell as a hit.
                yield ("read-stale-hit", (cell, pcs, "diskcache-stamp-match"))
            else:
                yield ("read-miss", (cell, pcs, None))
        elif cell[0] == "ok":
            yield ("read-hit", (cell, pcs, None))
        else:
            yield ("read-miss", (cell, pcs, None))

    def describe(self, state: State) -> str:
        cell, pcs, err = state
        return f"cell={cell} writers={pcs} err={err}"


#: Registry used by the CLI and tests; order is the reporting order.
MODELS = {
    "smc": SmcModel,
    "morph": MorphModel,
    "diskcache": DiskCacheModel,
}

#: One planted bug per model (the acceptance criterion's demonstration
#: that each checker actually catches its protocol's failure mode),
#: mapping a variant name to (constructor kwargs, expected invariant).
PLANTED_BUGS = {
    "smc-unkeyed-lookup": ("smc", {"buggy_unkeyed_lookup": True}, "smc-no-stale-translation"),
    "smc-dispatch-before-invalidate": (
        "smc",
        {"buggy_dispatch_before_invalidate": True},
        "smc-no-stale-closure",
    ),
    "smc-boundary-keeps-closures": (
        "smc",
        {"buggy_boundary_keeps_closures": True},
        "smc-no-stale-closure",
    ),
    "morph-drop-inflight": ("morph", {"buggy_drop_inflight": True}, "morph-no-lost-blocks"),
    "morph-no-hysteresis": ("morph", {"buggy_no_hysteresis": True}, "morph-hysteresis"),
    "morph-zero-slaves": ("morph", {"buggy_zero_slaves": True}, "morph-no-deadlock"),
    "diskcache-direct-write": (
        "diskcache",
        {"buggy_direct_write": True},
        "diskcache-no-torn-read",
    ),
    "diskcache-no-stamp-check": (
        "diskcache",
        {"buggy_no_stamp_check": True},
        "diskcache-stamp-match",
    ),
}
