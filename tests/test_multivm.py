"""Tests for multi-VM fabric sharing (the Section 5 'virtual x86 SMP')."""

import dataclasses
import hashlib
import json

import pytest

from repro.guest.assembler import assemble
from repro.guest.interpreter import GuestInterpreter
from repro.vm.multivm import MultiVmResult, SharedFabric
from repro.workloads import build_workload

#: An I/O-bound guest: alternates bursts of arithmetic with system
#: calls (SYS_times), each of which blocks the VM on simulated I/O.
IO_HEAVY = """
_start:
    mov edi, 12          ; I/O operations to perform
io_loop:
    mov ecx, 40          ; small compute burst
burst:
    add esi, ecx
    dec ecx
    jnz burst
    mov eax, 43          ; SYS_times: proxied off-fabric
    int 0x80
    dec edi
    jnz io_loop
    mov eax, esi
    and eax, 255
    mov ebx, eax
    mov eax, 1
    int 0x80
"""


def _io_program():
    program = assemble(IO_HEAVY)
    program.name = "io_heavy"
    return program


def _compute_program():
    return build_workload("176.gcc", scale=0.4)


#: sha256 of the full dynamic-sharing MultiVmResult (every per-VM
#: TimingRunResult field, metrics included) — pins the stepped dispatch
#: path the fabric drives, block by block, to its recorded output.
DYNAMIC_RESULT_SHA256 = "ee605db229ce013e31015f590bc577b3b359a55e06388565d6526fc3d7ae2bea"


class TestSharedFabric:
    def test_needs_two_guests(self):
        with pytest.raises(ValueError):
            SharedFabric([_io_program()])

    def test_pool_must_cover_minimums(self):
        with pytest.raises(ValueError):
            SharedFabric([_io_program(), _io_program()], slave_pool=1)

    def test_both_guests_complete_correctly(self):
        golden_io = GuestInterpreter.for_program(_io_program()).run()

        fabric = SharedFabric([_io_program(), _compute_program()], dynamic=True)
        result = fabric.run()
        assert isinstance(result, MultiVmResult)
        assert result.per_vm[0].exit_code == golden_io
        golden_compute = GuestInterpreter.for_program(_compute_program()).run(3_000_000)
        assert result.per_vm[1].exit_code == golden_compute

    def test_io_stalls_are_charged(self):
        fabric = SharedFabric([_io_program(), _io_program()], dynamic=False)
        result = fabric.run()
        assert fabric.stats["io_stalls"] >= 22  # ~12 per guest, minus exits
        # the makespan includes the serialized stalls
        assert result.makespan > 12 * fabric.io_stall_cycles

    def test_dynamic_sharing_reallocates(self):
        fabric = SharedFabric([_io_program(), _compute_program()], dynamic=True)
        result = fabric.run()
        assert result.reallocations >= 2

    def test_static_sharing_never_reallocates(self):
        fabric = SharedFabric([_io_program(), _compute_program()], dynamic=False)
        result = fabric.run()
        assert result.reallocations == 0

    def test_dynamic_beats_static_on_mixed_pair(self):
        """The paper's claim: shrinking the I/O-stalled VM and growing
        the compute-bound one raises fabric utilization."""
        static = SharedFabric(
            [_io_program(), _compute_program()], dynamic=False
        ).run()
        dynamic = SharedFabric(
            [_io_program(), _compute_program()], dynamic=True
        ).run()
        assert dynamic.makespan <= static.makespan

    def test_interleaving_is_time_ordered(self):
        fabric = SharedFabric([_io_program(), _io_program()], dynamic=True)
        result = fabric.run()
        # both VMs advanced; neither starved
        assert all(r.cycles > 0 for r in result.per_vm)
        assert result.total_guest_instructions > 1000

    def test_dynamic_result_is_pinned(self):
        result = SharedFabric([_io_program(), _compute_program()], dynamic=True).run()
        doc = json.dumps(dataclasses.asdict(result), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == DYNAMIC_RESULT_SHA256
