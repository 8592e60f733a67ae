"""Cross-run translation reuse — the FX!32 idea applied to the sweep.

The figure grid runs the *same workload* under many virtual-architecture
configurations, and almost none of those knobs (tile counts, bank
counts, morphing thresholds) change what the translator produces — they
only change where and when translations happen.  Production DBT systems
(FX!32, DynamoRIO) persist translations across runs for exactly this
reason; here the :class:`TranslationCache` does it across the cells of
one harness process.

Soundness:

* The cache key is ``(program key, translator knobs, code generation,
  guest pc)``.  The knobs tuple covers every :class:`TranslationConfig`
  field that affects output (``optimize``, ``load_latency``,
  ``load_occupancy``, ``checked``), so e.g. Figure 8's
  optimization ablation and the hardware-MMU presets get their own
  namespaces.
* ``generation`` is a caller-supplied counter of guest stores into
  executable sections or onto pages holding translated blocks (see
  ``TimingVM.code_writes``).  Any write that could change bytes the
  translator reads bumps it, so self-modifying code can never be served
  a stale translation.
* The translator is deterministic, so a cache hit returns a block
  field-for-field identical to what a fresh translation would produce,
  and :meth:`CachingTranslator.translate` replays the exact stats bumps
  of the uncached path — timing results with the cache on are
  bit-identical to results with it off (asserted by the test suite).

Blocks are stored pristine (straight out of the pipeline) and handed
out as shallow clones: nothing in the timing path mutates a
``TranslatedBlock`` after translation, but the clone keeps the cache
immune to callers (like ``FunctionalVM``) that stamp placement state
onto block objects.  A clone shares its master's sealed facts (host
words, transfer cycles, chain targets, predictions), so every cell that
reuses a translation reuses them too.

The cache also keeps each program's guest execution record (see
:mod:`repro.vm.timing`) under the same capacity, so every holder of a
cache — a harness process, a pool worker, a benchmark row — records a
program once and replays it for every other config.  :meth:`TranslationCache.row_state` and
:meth:`TranslationCache.adopt_row` move one program's namespaces and
records into another process's cache (the harness's row packs).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro.common.lru import LruDict
from repro.dbt.block import TranslatedBlock
from repro.dbt.frontend import CodeReader
from repro.dbt.translator import TranslationConfig, Translator

#: Distinct (program, knobs) namespaces kept live.  The harness's
#: persistent worker pool accumulates every workload of a multi-figure
#: grid (11 workloads x up to a few knob variants each), so the bound
#: must comfortably exceed that product while still capping worst-case
#: footprint for long-lived processes sweeping many scales.
NAMESPACE_CAPACITY = 64

#: The execution-record entry of a program that writes its own text
#: section: its runs stay live, and none of them records again.
LIVE_ONLY = "live-only"


def translator_knobs(config: TranslationConfig) -> Tuple:
    """The :class:`TranslationConfig` fields that affect translator output."""
    return (
        config.optimize,
        config.load_latency,
        config.load_occupancy,
        config.checked,
    )


class TranslationCache:
    """Process-wide store of translated blocks, namespaced per program."""

    def __init__(self, capacity: int = NAMESPACE_CAPACITY) -> None:
        self._spaces: "LruDict[Hashable, Dict]" = LruDict(capacity)
        self._records: "LruDict[Hashable, object]" = LruDict(capacity)
        self.hits = 0
        self.misses = 0

    def space(self, namespace: Hashable) -> Dict:
        """The ``(generation, pc) -> block`` map for one namespace."""
        space = self._spaces.get(namespace)
        if space is None:
            space = {}
            self._spaces.put(namespace, space)
        return space

    def execution_record(self, key: Hashable) -> Optional[object]:
        """The ``ExecutionRecord`` (or :data:`LIVE_ONLY`) stored under
        ``key``, a ``(program key, stdin)`` pair; ``None`` if absent."""
        return self._records.get(key)

    def store_execution_record(self, key: Hashable, record: object) -> None:
        self._records.put(key, record)

    def row_state(self, key: Hashable) -> Dict:
        """What this cache holds for program ``key``: ``{"spaces":
        {knobs: space}, "records": {stdin: record}}``, sharing the live
        maps (the harness pickles it into a row pack, see
        :mod:`repro.harness.runner`)."""
        return {
            "spaces": {ns[1]: self._spaces.peek(ns) for ns in self._spaces if ns[0] == key},
            "records": {rk[1]: self._records.peek(rk) for rk in self._records if rk[0] == key},
        }

    def adopt_row(self, key: Hashable, state: Dict) -> None:
        """Merge a :meth:`row_state` of program ``key`` into this cache.

        Entries already present win: the translator and the guest are
        deterministic, so an adopted block or record equals the one it
        would have produced."""
        for knobs, blocks in state["spaces"].items():
            space = self.space((key, knobs))
            for block_key, block in blocks.items():
                space.setdefault(block_key, block)
        for stdin, record in state["records"].items():
            if record == LIVE_ONLY:
                record = LIVE_ONLY  # readers test identity; unpickling copies
            if self._records.get((key, stdin)) is None:
                self._records.put((key, stdin), record)

    def blocks(self) -> Iterator[TranslatedBlock]:
        """Every cached block, across all translator namespaces."""
        for key in self._spaces:
            yield from self._spaces.peek(key).values()

    def clear(self) -> None:
        self._spaces.clear()
        self._records.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "namespaces": len(self._spaces),
            "blocks": sum(len(self._spaces.peek(key)) for key in self._spaces),
            # always 0: compiled closures are no longer cached here;
            # kept only for perfbench/child.py, its one reader
            "jit_blocks": 0,
            "records": sum(
                1 for key in self._records if self._records.peek(key) is not LIVE_ONLY
            ),
        }


class CachingTranslator(Translator):
    """A :class:`Translator` that reuses prior translations.

    On a hit it returns a shallow clone of the cached block and replays
    the stats bumps :meth:`Translator.translate` would have made, so a
    cached translation is observationally identical to a fresh one.
    """

    def __init__(
        self,
        read_code: CodeReader,
        config: TranslationConfig,
        cache: TranslationCache,
        namespace: Hashable,
        generation: Callable[[], int],
    ) -> None:
        super().__init__(read_code, config)
        self._cache = cache
        self._space = cache.space((namespace, translator_knobs(config)))
        self._generation = generation
        #: the translator counters a hit replays
        counter = self.stats.lazy_counter
        self._hit_blocks = counter("blocks_translated")
        self._hit_guest_instrs = counter("guest_instructions")
        self._hit_host_instrs = counter("host_instructions")
        self._hit_cycles = counter("translation_cycles")

    def audit(self) -> Dict[str, int]:
        """Classify the namespace's cached blocks by generation.

        ``live`` entries are keyed to the current generation, ``stale``
        ones to older generations (unreachable but harmlessly retained),
        and ``future`` ones to a generation newer than the counter —
        impossible unless the generation source regressed, so the
        protocol-conformance tier treats any ``future`` entry as an
        invariant violation.
        """
        current = self._generation()
        counts = {"live": 0, "stale": 0, "future": 0}
        for generation, _pc in self._space:
            if generation == current:
                counts["live"] += 1
            elif generation < current:
                counts["stale"] += 1
            else:
                counts["future"] += 1
        return counts

    def translate(self, guest_pc: int) -> TranslatedBlock:
        key = (self._generation(), guest_pc)
        master = self._space.get(key)
        if master is None:
            # failures (speculation into non-code bytes) propagate and
            # stay uncached; they are cheap scans and deterministic
            block = super().translate(guest_pc)
            self._cache.misses += 1
            self._space[key] = block.clone()
            return block
        self._cache.hits += 1
        self._hit_blocks.add()
        self._hit_guest_instrs.add(master.guest_instr_count)
        self._hit_host_instrs.add(master.host_words)
        self._hit_cycles.add(master.translation_cycles)
        return master.clone()
