"""Host-block cycle cost model.

Models a Raw tile's in-order single-issue pipeline well enough to price
a translated block per execution (timing mode charges this cost on
every cache-hit visit; data-cache misses are added on top by the memory
system).

Intrinsics follow the paper's Table 11: the emulator's L1-hit load has
latency 6 and occupancy 4 — the occupancy models the software-MMU
insert/extract sequence that real Raw needs because it has no hardware
MMU.  Independent work can be scheduled into the latency shadow, which
is what makes the list scheduler measurably useful (Figure 8).
"""

from __future__ import annotations

from typing import Iterable

from repro.host.isa import DEST, HostInstr, HostOp, LOAD_OPS, SOURCES, STORE_OPS

#: Table 11 ("Raw Emulator" column): L1 data-cache hit.
LOAD_LATENCY = 6
LOAD_OCCUPANCY = 4

#: Stores retire through the same software path but don't stall users.
STORE_OCCUPANCY = 2

#: HI/LO unit timings.
MULDIV_OCCUPANCY = 2
MULDIV_LATENCY = 4

#: Taken-branch bubble of the 8-stage tile pipeline.
BRANCH_OCCUPANCY = 1

_BRANCH_OPS = frozenset(
    {
        HostOp.BEQ,
        HostOp.BNE,
        HostOp.BLEZ,
        HostOp.BGTZ,
        HostOp.BLTZ,
        HostOp.BGEZ,
        HostOp.J,
        HostOp.JAL,
        HostOp.JR,
        HostOp.JALR,
    }
)

_HILO_WRITERS = frozenset({HostOp.MULT, HostOp.MULTU, HostOp.DIV, HostOp.DIVU})
_HILO_READERS = frozenset({HostOp.MFHI, HostOp.MFLO})


def _occupancy(op: HostOp) -> int:
    if op in LOAD_OPS:
        return LOAD_OCCUPANCY
    if op in STORE_OPS:
        return STORE_OCCUPANCY
    if op in _HILO_WRITERS:
        return MULDIV_OCCUPANCY
    if op in _BRANCH_OPS:
        return BRANCH_OCCUPANCY
    return 1


#: Per-opcode occupancy, precomputed: this sits on the scheduler's and
#: cost estimator's per-instruction paths.
OCCUPANCY: dict = {op: _occupancy(op) for op in HostOp}


def instruction_occupancy(instr: HostInstr) -> int:
    """Issue-slot cycles this instruction holds the pipeline."""
    return OCCUPANCY[instr.op]


#: Everything the estimator needs about an opcode, looked up once per
#: instruction: (source accessor, destination accessor or ``None``,
#: occupancy, is a load, reads HI/LO, writes HI/LO).
OP_COST: dict = {
    op: (
        SOURCES[op],
        DEST[op],
        OCCUPANCY[op],
        op in LOAD_OPS,
        op in _HILO_READERS,
        op in _HILO_WRITERS,
    )
    for op in HostOp
}


def estimate_block_cost(
    instrs: Iterable[HostInstr],
    load_latency: int = LOAD_LATENCY,
    load_occupancy: int = LOAD_OCCUPANCY,
) -> int:
    """Cycles to execute ``instrs`` once, in order, on one tile.

    In-order issue: an instruction stalls until its sources are ready;
    loads complete ``load_latency`` cycles after issue but only occupy
    the pipe for ``load_occupancy``.  Branches are costed as
    straight-line (taken/not-taken shape is charged by the runtime
    model, not here).

    The default load intrinsics are the paper's software-MMU values
    (Table 11).  The hardware-MMU ablation passes PIII-class ones.
    """
    # ready[$zero] stays 0 (writes to $zero are dropped), so reads of
    # $zero never stall and need no special case
    ready = [0] * 32
    hilo_ready = 0
    cycle = 0
    op_cost = OP_COST
    for instr in instrs:
        sources, dest, occupancy, is_load, reads_hilo, writes_hilo = op_cost[instr.op]
        start = cycle
        for src in sources(instr):
            if ready[src] > start:
                start = ready[src]
        if reads_hilo and hilo_ready > start:
            start = hilo_ready
        if is_load:
            cycle = start + load_occupancy
            done = start + load_latency
        else:
            cycle = done = start + occupancy
        if dest is not None:
            dst = dest(instr)
            if dst:  # not $zero
                ready[dst] = done
        if writes_hilo:
            hilo_ready = start + MULDIV_LATENCY
    return cycle
