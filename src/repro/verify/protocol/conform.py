"""Trace conformance: replay real event streams against the models.

The models in :mod:`repro.verify.protocol.models` are hand-written, so
they could silently drift from the code they abstract.  This module
closes that gap: it replays a real :mod:`repro.obs` event stream (from
a live :class:`~repro.obs.events.Tracer` or a ``--raw`` JSON export)
through per-protocol conformance checkers that enforce the same
invariants on the *actual* emission order — queue-length bookkeeping
for ``specq``, start/end pairing per slave tile for ``translate``,
shape alternation plus hysteresis for ``morph`` reconfigs, and
generation/page discipline for the ``smc`` events.

The tracer is a bounded ring buffer, so a long run's stream may be
missing its oldest prefix (``dropped > 0``).  Conformance therefore
runs in one of two modes: *strict* (no drops — stateful checks apply
from the very first event) or *windowed* (drops occurred — each
checker adopts the first observation as its baseline and unmatched
leading ends are forgiven, because their openers fell off the ring).

:func:`conform_vm` additionally audits what the events can't see: the
translation cache's generation keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.verify.findings import Finding, Severity

#: Valid code-cache levels (``CodeCacheHierarchy``).
CODECACHE_LEVELS = ("l1", "l1.5", "l2")

#: Valid morph shapes (``repro.morph.policy``).
MORPH_SHAPES = ("trans", "mem")


@dataclass
class ConformReport:
    """What one conformance replay established."""

    events: int = 0
    dropped: int = 0
    checks: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "dropped": self.dropped,
            "strict": self.dropped == 0,
            "checks": self.checks,
            "counts": dict(self.counts),
            "violations": [str(f) for f in self.findings],
            "ok": self.ok,
        }

    def __str__(self) -> str:
        mode = "strict" if self.dropped == 0 else f"windowed (dropped {self.dropped})"
        status = "ok" if self.ok else "VIOLATED"
        return (
            f"conform: {self.events} events ({mode}), {self.checks} checks, "
            f"{len(self.findings)} violations [{status}]"
        )


class ConformanceChecker:
    """Streaming conformance over one event sequence.

    Feed events in emission order (the tracer's order); call
    :meth:`finish` for the report.  ``strict`` means the stream is
    complete from cycle 0 (no ring-buffer drops).
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.report = ConformReport()
        # specq: expected queue length after the previous event
        self._qlen: Optional[int] = 0 if strict else None
        # translate: per-tile open translation (pc, start cycle)
        self._open_translations: Dict[str, Tuple[int, int]] = {}
        self._tiles_seen_start: set = set()
        # morph: previous reconfig's new shape / cycle of the last flip
        self._morph_prev: Optional[str] = None
        self._morph_last_cycle: Optional[int] = None
        self._morph_last_flip: Optional[int] = None
        self._morph_seen = 0
        # smc: generation discipline + written-but-not-invalidated pages
        self._smc_write_gen: Optional[int] = None
        self._smc_invalidate_gen: Optional[int] = None
        self._smc_pending_pages: set = set()

    # -- plumbing ----------------------------------------------------------

    def _violate(self, code: str, message: str, event, index: int) -> None:
        self.report.findings.append(
            Finding(
                analyzer="protocol",
                severity=Severity.ERROR,
                code=code,
                message=f"event {index} (cycle {event.cycle}, {event.category}.{event.name}): {message}",
                stage="conform",
            )
        )

    def _check(self, ok: bool, code: str, message: str, event, index: int) -> bool:
        self.report.checks += 1
        if not ok:
            self._violate(code, message, event, index)
        return ok

    # -- per-category rules ------------------------------------------------

    def feed(self, event, index: int) -> None:
        self.report.events += 1
        category = event.category
        self.report.counts[category] = self.report.counts.get(category, 0) + 1
        self._check(
            isinstance(event.cycle, int) and event.cycle >= 0,
            "conform-bad-cycle", f"non-negative integer cycle expected, got {event.cycle!r}",
            event, index,
        )
        handler = getattr(self, "_feed_" + category.replace(".", "_"), None)
        if handler is not None:
            handler(event, index)

    @staticmethod
    def _args(event) -> dict:
        return event.args or {}

    def _feed_specq(self, event, index: int) -> None:
        args = self._args(event)
        qlen = args.get("qlen")
        if not self._check(
            isinstance(qlen, int) and qlen >= 0,
            "specq-bad-qlen", f"qlen must be a non-negative int, got {qlen!r}",
            event, index,
        ):
            return
        delta = {"enqueue": 1, "dequeue": -1}.get(event.name)
        if not self._check(
            delta is not None, "specq-unknown-event", f"unknown specq event {event.name!r}",
            event, index,
        ):
            return
        if self._qlen is None:
            # windowed mode: adopt the first observation as the baseline
            self._qlen = qlen
            return
        self._check(
            qlen == self._qlen + delta,
            "specq-qlen-mismatch",
            f"{event.name} reported qlen {qlen}, expected {self._qlen + delta} "
            f"(previous length {self._qlen})",
            event, index,
        )
        self._qlen = qlen

    def _feed_translate(self, event, index: int) -> None:
        args = self._args(event)
        tile = event.tile
        pc = args.get("pc")
        open_entry = self._open_translations.get(tile)
        if event.name == "start":
            self._check(
                open_entry is None,
                "translate-overlapping-start",
                f"tile {tile} started pc={pc!r} while pc={open_entry[0]!r} is still running"
                if open_entry is not None else "",
                event, index,
            )
            self._open_translations[tile] = (pc, event.cycle)
            self._tiles_seen_start.add(tile)
        elif event.name == "end":
            if open_entry is None:
                # a leading end whose start fell off the ring is fine in
                # windowed mode; in strict mode it is an orphan
                forgivable = not self.strict and tile not in self._tiles_seen_start
                self._check(
                    forgivable, "translate-unpaired-end",
                    f"tile {tile} ended a translation that never started",
                    event, index,
                )
                return
            start_pc, start_cycle = open_entry
            self._check(
                pc == start_pc, "translate-pc-mismatch",
                f"tile {tile} ended pc={pc!r} but started pc={start_pc!r}",
                event, index,
            )
            self._check(
                event.cycle >= start_cycle, "translate-negative-duration",
                f"tile {tile} ended at cycle {event.cycle} before its start at {start_cycle}",
                event, index,
            )
            del self._open_translations[tile]
        else:
            self._violate("translate-unknown-event", f"unknown translate event {event.name!r}", event, index)

    def _feed_morph(self, event, index: int) -> None:
        args = self._args(event)
        if not self._check(
            event.name == "reconfig", "morph-unknown-event",
            f"unknown morph event {event.name!r}", event, index,
        ):
            return
        self._morph_seen += 1
        old = args.get("old")
        new = args.get("new")
        self._check(
            new in MORPH_SHAPES, "morph-unknown-shape", f"reconfig to unknown shape {new!r}",
            event, index,
        )
        if self._morph_last_cycle is not None:
            self._check(
                event.cycle >= self._morph_last_cycle,
                "morph-time-regression",
                f"reconfig at cycle {event.cycle} after one at {self._morph_last_cycle}",
                event, index,
            )
        self._morph_last_cycle = event.cycle
        if old == "(initial)":
            self._check(
                self._morph_seen == 1 and (self.strict or self._morph_prev is None),
                "morph-initial-not-first", "initial reconfig after other reconfigs",
                event, index,
            )
            self._morph_prev = new
            return
        self._check(
            old in MORPH_SHAPES, "morph-unknown-shape", f"reconfig from unknown shape {old!r}",
            event, index,
        )
        self._check(
            old != new, "morph-noop-reconfig", f"reconfig {old} -> {new} changes nothing",
            event, index,
        )
        if self._morph_prev is not None:
            self._check(
                old == self._morph_prev, "morph-alternation-broken",
                f"reconfig claims old={old} but the previous shape was {self._morph_prev}",
                event, index,
            )
        hysteresis = args.get("hysteresis")
        if isinstance(hysteresis, int) and self._morph_last_flip is not None:
            self._check(
                event.cycle - self._morph_last_flip >= hysteresis,
                "morph-hysteresis-violated",
                f"flips {self._morph_last_flip} -> {event.cycle} are only "
                f"{event.cycle - self._morph_last_flip} cycles apart (hysteresis {hysteresis})",
                event, index,
            )
        self._morph_last_flip = event.cycle
        self._morph_prev = new

    def _feed_smc(self, event, index: int) -> None:
        args = self._args(event)
        gen = args.get("gen")
        if not self._check(
            isinstance(gen, int) and gen >= 0,
            "smc-bad-generation", f"generation must be a non-negative int, got {gen!r}",
            event, index,
        ):
            return
        if event.name == "write":
            if self._smc_write_gen is not None:
                self._check(
                    gen >= self._smc_write_gen, "smc-gen-regression",
                    f"write generation {gen} after {self._smc_write_gen}",
                    event, index,
                )
            self._smc_write_gen = gen
            self._smc_pending_pages.add(args.get("page"))
        elif event.name == "invalidate":
            if self._smc_write_gen is not None:
                self._check(
                    gen >= self._smc_write_gen, "smc-invalidate-gen-regression",
                    f"invalidation at generation {gen} behind the last write ({self._smc_write_gen})",
                    event, index,
                )
            elif self.strict:
                self._violate(
                    "smc-invalidate-without-write",
                    "page invalidation with no preceding text write", event, index,
                )
            if self._smc_invalidate_gen is not None:
                self._check(
                    gen >= self._smc_invalidate_gen, "smc-invalidate-gen-regression",
                    f"invalidation generation {gen} after {self._smc_invalidate_gen}",
                    event, index,
                )
            self._smc_invalidate_gen = gen
            page = args.get("page")
            if self.strict and self._smc_write_gen is not None:
                self._check(
                    page in self._smc_pending_pages,
                    "smc-invalidate-unwritten-page",
                    f"page {page!r} invalidated without a recorded write",
                    event, index,
                )
            self._smc_pending_pages.discard(page)
        else:
            self._violate("smc-unknown-event", f"unknown smc event {event.name!r}", event, index)

    def _feed_codecache(self, event, index: int) -> None:
        args = self._args(event)
        self._check(
            event.name in ("hit", "miss"),
            "codecache-unknown-event", f"unknown codecache event {event.name!r}",
            event, index,
        )
        level = args.get("level")
        self._check(
            level in CODECACHE_LEVELS,
            "codecache-unknown-level", f"unknown code-cache level {level!r}",
            event, index,
        )

    # -- wrap-up -----------------------------------------------------------

    def finish(self) -> ConformReport:
        # an open translation at end-of-stream is fine (the run may have been snapshotted mid-flight), so the
        # only end-of-stream rule is structural bookkeeping consistency,
        # which the streaming checks already maintained
        return self.report


class _DictEvent:
    """Adapter so raw-JSON event dicts replay like TraceEvent objects."""

    __slots__ = ("cycle", "category", "name", "tile", "args")

    def __init__(self, doc: dict) -> None:
        self.cycle = doc.get("cycle")
        self.category = doc.get("category", "")
        self.name = doc.get("name", "")
        self.tile = doc.get("tile", "")
        self.args = doc.get("args")


def conform_events(events: Iterable, dropped: int = 0) -> ConformReport:
    """Replay ``events`` (TraceEvents or raw dicts) through the checkers."""
    checker = ConformanceChecker(strict=dropped == 0)
    checker.report.dropped = dropped
    for index, event in enumerate(events):
        if isinstance(event, dict):
            event = _DictEvent(event)
        checker.feed(event, index)
    return checker.finish()


def audit_vm(vm) -> List[Finding]:
    """Structural protocol audits over a live :class:`TimingVM`.

    Covers what the event stream cannot see: the translation cache's
    generation keys.
    """
    findings: List[Finding] = []

    translator = vm.subsystem.translator
    audit = getattr(translator, "audit", None)
    if audit is not None:
        counts = audit()
        if counts["future"]:
            findings.append(
                Finding(
                    analyzer="protocol",
                    severity=Severity.ERROR,
                    code="transcache-future-generation",
                    message=(
                        f"{counts['future']} cached translations are keyed to a "
                        "generation newer than the VM's code-write counter"
                    ),
                    stage="transcache",
                )
            )
    return findings


def conform_vm(vm) -> ConformReport:
    """Conformance over a live VM: its event stream + structural audits."""
    tracer = vm.tracer
    report = conform_events(tracer.events(), dropped=tracer.dropped)
    report.findings.extend(audit_vm(vm))
    return report
