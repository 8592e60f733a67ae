"""Load-latency-aware list scheduling of host code.

Runs after code generation.  The Raw tile is in-order single-issue with
a 6-cycle load-use latency (Table 11), so hoisting loads away from
their uses is worth real cycles.  The scheduler partitions the
instruction sequence into straight-line segments (boundaries at
branches, branch targets and EXITBs), builds a dependence DAG per
segment and list-schedules by critical-path priority.

Memory discipline: loads may reorder with loads; stores are ordered
with all other memory operations (no alias analysis at host level).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Set

from repro.host.isa import DEST, HostInstr, HostOp, HostReg, LOAD_OPS, SOURCES, STORE_OPS
from repro.dbt.cost import LOAD_LATENCY, OCCUPANCY

PASS_NAME = "scheduler"

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
        HostOp.EXITB,
    }
)

_HILO_OPS = frozenset(
    {HostOp.MULT, HostOp.MULTU, HostOp.DIV, HostOp.DIVU, HostOp.MFHI, HostOp.MFLO}
)

#: Result latency per opcode: the critical-path weight of an edge.
_LATENCY = {op: LOAD_LATENCY if op in LOAD_OPS else OCCUPANCY[op] for op in HostOp}


def _segment_boundaries(instrs: List[HostInstr], extra: Iterable[int]) -> List[int]:
    """Indices that start a new segment."""
    starts: Set[int] = {0}
    starts.update(extra)
    for index, instr in enumerate(instrs):
        if instr.op in _BRANCH_OPS:
            starts.add(index + 1)
            if instr.op not in (HostOp.J, HostOp.JAL, HostOp.JR, HostOp.JALR, HostOp.EXITB):
                starts.add(index + 1 + instr.imm)  # branch target
    return sorted(s for s in starts if 0 <= s <= len(instrs))


def schedule_block(instrs: List[HostInstr], pinned: Iterable[int] = ()) -> List[HostInstr]:
    """Return a semantics-preserving reordering of ``instrs``.

    ``pinned`` lists additional boundary indices — the code generator
    passes its exit-stub start offsets so that chaining patch sites
    never move.  Scheduling never moves instructions across segment
    boundaries and branches end segments in place, so all relative
    branch offsets remain valid (the pass permutes within segments
    only, preserving every segment's length and position).
    """
    boundaries = _segment_boundaries(instrs, pinned)
    out: List[HostInstr] = []
    for start, end in zip(boundaries, boundaries[1:] + [len(instrs)]):
        segment = instrs[start:end]
        if segment and segment[-1].op in _BRANCH_OPS:
            out.extend(_schedule_segment(segment[:-1]))
            out.append(segment[-1])
        else:
            out.extend(_schedule_segment(segment))
    return out


def _schedule_segment(segment: List[HostInstr]) -> List[HostInstr]:
    count = len(segment)
    if count <= 2:
        return list(segment)

    # each edge goes into its source's successor set once; ``indegree``
    # counts the distinct predecessors still unscheduled
    succs: List[Set[int]] = [set() for _ in range(count)]
    indegree = [0] * count

    last_writer: Dict[HostReg, int] = {}
    readers: Dict[HostReg, List[int]] = {}
    last_store = -1
    last_mem: List[int] = []
    last_hilo = -1

    zero = HostReg.ZERO
    for i, instr in enumerate(segment):
        op = instr.op
        for reg in SOURCES[op](instr):
            if reg is zero:
                continue
            writer = last_writer.get(reg)
            if writer is not None and i not in succs[writer]:
                succs[writer].add(i)  # RAW
                indegree[i] += 1
            readers.setdefault(reg, []).append(i)
        dest = DEST[op]
        dst = zero if dest is None else dest(instr)
        if dst is not zero:
            writer = last_writer.get(dst)
            if writer is not None and i not in succs[writer]:
                succs[writer].add(i)  # WAW
                indegree[i] += 1
            for reader in readers.get(dst, ()):
                if reader != i and i not in succs[reader]:
                    succs[reader].add(i)  # WAR
                    indegree[i] += 1
            readers[dst] = []
            last_writer[dst] = i
        if op in LOAD_OPS:
            if last_store >= 0 and i not in succs[last_store]:
                succs[last_store].add(i)
                indegree[i] += 1
            last_mem.append(i)
        elif op in STORE_OPS:
            for mem in last_mem:
                if i not in succs[mem]:
                    succs[mem].add(i)
                    indegree[i] += 1
            last_mem = [i]
            last_store = i
        if op in _HILO_OPS:
            if last_hilo >= 0 and i not in succs[last_hilo]:
                succs[last_hilo].add(i)
                indegree[i] += 1
            last_hilo = i

    # critical-path priority (latency-weighted height)
    height = [0] * count
    for i in range(count - 1, -1, -1):
        best = 0
        for succ in succs[i]:
            if height[succ] > best:
                best = height[succ]
        height[i] = best + _LATENCY[segment[i].op]

    # pick the ready instruction with the greatest height; break ties by
    # original order for determinism — a min-heap on (-height, index)
    # makes the same choice as sorting the ready list each step
    ready = [(-height[i], i) for i in range(count) if indegree[i] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        chosen = heapq.heappop(ready)[1]
        order.append(chosen)
        for succ in succs[chosen]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (-height[succ], succ))

    if len(order) != count:  # pragma: no cover - DAG by construction
        raise RuntimeError("scheduler failed to order segment")
    return [segment[i] for i in order]
