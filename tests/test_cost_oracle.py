"""The table-driven cost estimator against the original as an oracle.

:func:`repro.dbt.cost.estimate_block_cost` reads a per-opcode table.
The reference below is the estimator as it was before that table: one
membership test per operand class for the registers an instruction
reads and writes, and the ``$zero`` special cases spelled out.  Every
block's ``cost_cycles`` feeds the timing model, so the two must agree
on every instruction sequence, for both load intrinsics the presets
use.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbt.cost import LOAD_LATENCY, LOAD_OCCUPANCY, MULDIV_LATENCY, OCCUPANCY
from repro.dbt.cost import estimate_block_cost
from repro.host.isa import (
    BRANCH1_OPS,
    BRANCH2_OPS,
    HostInstr,
    HostOp,
    HostReg,
    I_ALU_OPS,
    LOAD_OPS,
    R_TYPE_OPS,
    STORE_OPS,
)

_SHIFTS = (HostOp.SLL, HostOp.SRL, HostOp.SRA)
_HILO_WRITERS = (HostOp.MULT, HostOp.MULTU, HostOp.DIV, HostOp.DIVU)
_HILO_READERS = (HostOp.MFHI, HostOp.MFLO)


def reference_reads(instr):
    op = instr.op
    if op in R_TYPE_OPS or op in _HILO_WRITERS:
        return (instr.rs, instr.rt)
    if op in _SHIFTS:
        return (instr.rt,)
    if op in I_ALU_OPS or op in LOAD_OPS:
        return (instr.rs,)
    if op in STORE_OPS or op in BRANCH2_OPS:
        return (instr.rs, instr.rt)
    if op in BRANCH1_OPS or op in (HostOp.JR, HostOp.JALR):
        return (instr.rs,)
    if op is HostOp.EXITB:
        return (HostReg.V0,)
    return ()


def reference_writes(instr):
    op = instr.op
    if op in R_TYPE_OPS or op in _SHIFTS or op in _HILO_READERS or op is HostOp.JALR:
        return instr.rd
    if op in I_ALU_OPS or op is HostOp.LUI or op in LOAD_OPS:
        return instr.rt
    if op is HostOp.JAL:
        return HostReg.RA
    return None


def reference_block_cost(instrs, load_latency=LOAD_LATENCY, load_occupancy=LOAD_OCCUPANCY):
    """The estimator's in-order issue model, one instruction at a time."""
    ready = [0] * 32
    hilo_ready = 0
    cycle = 0
    zero = HostReg.ZERO
    for instr in instrs:
        op = instr.op
        is_load = op in LOAD_OPS
        start = cycle
        for src in reference_reads(instr):
            if src is not zero and ready[src] > start:
                start = ready[src]
        if op in _HILO_READERS and hilo_ready > start:
            start = hilo_ready
        cycle = start + (load_occupancy if is_load else OCCUPANCY[op])
        dst = reference_writes(instr)
        if dst is not None and dst is not zero:
            ready[dst] = start + load_latency if is_load else cycle
        if op in _HILO_WRITERS:
            hilo_ready = start + MULDIV_LATENCY
    return cycle


#: A few registers, $zero among them, so dependences and $zero
#: destinations are common rather than accidental.
_REGS = st.sampled_from([HostReg.ZERO, HostReg.V0, HostReg.T0, HostReg.T1, HostReg.RA])

_INSTRS = st.builds(
    HostInstr,
    op=st.sampled_from(list(HostOp)),
    rd=_REGS,
    rs=_REGS,
    rt=_REGS,
    imm=st.integers(min_value=-8, max_value=8),
    shamt=st.integers(min_value=0, max_value=31),
)

_HILO_PAIRS = st.tuples(
    st.builds(HostInstr, op=st.sampled_from(_HILO_WRITERS), rs=_REGS, rt=_REGS),
    st.builds(HostInstr, op=st.sampled_from(_HILO_READERS), rd=_REGS),
)

_EXIT_STUBS = st.tuples(
    st.builds(HostInstr, op=st.just(HostOp.LUI), rt=st.just(HostReg.V0)),
    st.builds(HostInstr, op=st.just(HostOp.EXITB)),
)

_BLOCKS = st.lists(
    st.one_of(_INSTRS.map(lambda instr: (instr,)), _HILO_PAIRS, _EXIT_STUBS),
    max_size=24,
).map(lambda chunks: [instr for chunk in chunks for instr in chunk])


@settings(max_examples=400, deadline=None)
@given(_BLOCKS)
def test_table_estimator_matches_reference(instrs):
    assert estimate_block_cost(instrs) == reference_block_cost(instrs)
    assert estimate_block_cost(instrs, load_latency=3, load_occupancy=1) == (
        reference_block_cost(instrs, load_latency=3, load_occupancy=1)
    )


@settings(max_examples=200, deadline=None)
@given(_INSTRS)
def test_register_accessors_match_reference(instr):
    assert instr.reads() == reference_reads(instr)
    assert instr.writes() == reference_writes(instr)


def test_every_op_is_priced_like_the_reference():
    for op in HostOp:
        instrs = [
            HostInstr(HostOp.LW, rt=HostReg.T0, rs=HostReg.T1),
            HostInstr(op, rd=HostReg.T1, rs=HostReg.T0, rt=HostReg.T0),
            HostInstr(HostOp.ADDU, rd=HostReg.T0, rs=HostReg.T1, rt=HostReg.RA),
        ]
        for intrinsics in ((6, 4), (3, 1)):
            assert estimate_block_cost(instrs, *intrinsics) == (
                reference_block_cost(instrs, *intrinsics)
            ), op
