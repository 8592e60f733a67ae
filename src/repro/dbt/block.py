"""Translated-block metadata.

A :class:`TranslatedBlock` is the unit stored in the code caches: the
relocatable host instruction sequence for one guest basic block plus
everything the runtime needs — exit stubs for chaining, static
successor addresses for speculative traversal, and the cycle cost the
timing model charges per execution.

The facts the code-cache hierarchy and the speculative translator read
on every fetch — host words, transfer cycles, chainable targets and the
static successor predictions — are fixed once the block's code is
final, so the translator records them once with
:meth:`TranslatedBlock.seal`.  Clones share them with their master.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.host.isa import ExitReason, HostInstr

#: Transfer cost: cycles per 4-byte word of block code moved.
TRANSFER_PER_WORD = 0.25


def pages_spanned(guest_address: int, guest_length: int) -> range:
    """Guest page numbers a block's bytes occupy (zero-length counts 1).

    Shared by the self-modifying-code bookkeeping of every fidelity tier
    — the functional VM's code-page residency sets, the timing VM's SMC
    invalidation, and the block JIT's share-range checks — so all of
    them agree on which pages "contain translated code".
    """
    first = guest_address >> 12
    last = (guest_address + max(1, guest_length) - 1) >> 12
    return range(first, last + 1)


@dataclass
class ExitStub:
    """One exit point of a translated block.

    ``offset_words`` is the index of the stub's first instruction
    within the block — after placement, ``block_host_address + 4 *
    offset_words`` is the patch site for chaining.  ``guest_target`` is
    the statically known destination (``None`` for indirect exits).
    """

    offset_words: int
    kind: ExitReason
    guest_target: Optional[int] = None

    @property
    def chainable(self) -> bool:
        """Direct branch exits can be patched into host jumps."""
        return self.kind is ExitReason.BRANCH and self.guest_target is not None

    @property
    def patch_offset_words(self) -> int:
        """Word index of the chaining patch site: the EXITB slot.

        Chains overwrite the stub's *third* word (the EXITB), keeping
        the ``lui/ori`` that materialize the guest target in ``$v0`` —
        so a chain can be severed at runtime (self-modifying code) and
        the dispatch loop still knows where execution was headed.
        """
        return self.offset_words + 2


@dataclass
class TranslatedBlock:
    """The output of translating one guest basic block."""

    guest_address: int
    guest_length: int
    guest_instr_count: int
    instrs: List[HostInstr]
    exit_stubs: List[ExitStub]
    call_return_address: Optional[int] = None
    exit_kind: str = "jump"  # terminator kind (ir.ExitKind value)
    cost_cycles: int = 0  # execution cost per visit (cache-hit timing)
    translation_cycles: int = 0  # what it cost a slave tile to produce
    optimized: bool = True

    # populated when the block is placed into a code cache level
    host_address: Optional[int] = None

    # fixed facts, recorded by :meth:`seal` when translation finishes
    host_words: int = 0
    transfer_cycles: int = 0
    chain_targets: FrozenSet[int] = frozenset()
    predictions: Tuple = ()  # of repro.dbt.predictor.Prediction

    def seal(self, predictions: Sequence) -> None:
        """Record the fixed facts once ``instrs`` and the stubs are final.

        ``predictions`` are the block's static successor predictions
        (:func:`repro.dbt.predictor.predict_successors`).  Every block
        ends in an exit stub, so ``host_words`` is at least 1.
        """
        self.host_words = len(self.instrs)
        self.transfer_cycles = max(1, int(self.host_words * TRANSFER_PER_WORD))
        self.chain_targets = frozenset(target for _, target in self.stub_patch_offsets())
        self.predictions = tuple(predictions)

    def clone(self) -> "TranslatedBlock":
        """A shallow copy: its own placement fields, shared code and facts."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    @property
    def host_size_bytes(self) -> int:
        """Bytes of host code (the code-cache footprint)."""
        return 4 * len(self.instrs)

    def direct_successors(self) -> Tuple[int, ...]:
        """Statically known guest successor addresses (for speculation)."""
        out = []
        for stub in self.exit_stubs:
            if stub.guest_target is not None and stub.kind is ExitReason.BRANCH:
                out.append(stub.guest_target)
        return tuple(out)

    def stub_patch_offsets(self) -> List[Tuple[int, int]]:
        """(patch-site word offset, guest target) per chainable stub."""
        return [(s.patch_offset_words, s.guest_target) for s in self.exit_stubs if s.chainable]
