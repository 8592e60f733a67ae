"""Multiple virtual machines sharing one tiled fabric (Section 5).

The paper's future-work vision: "a large tiled fabric running many
virtual x86's all at the same time ... If one of the x86 processors is
stalled waiting on I/O while the other is crunching numbers, the
stalled processor could be shrunk down to one tile while the
computationally bound x86 could use the remaining tiles to speed up its
execution."

:class:`SharedFabric` interleaves several :class:`TimingVM` instances
by their cycle counters and arbitrates a *shared pool of translation
slave tiles* between them: a VM blocked on (simulated) I/O shrinks to
the minimum allocation and the freed tiles accelerate its neighbors'
translation.  Each VM keeps its private fixed tiles (execution, MMU,
manager, syscall, caches); only the elastic slave pool moves — the same
simplification the single-VM morphing controller uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.stats import StatSet
from repro.guest.program import GuestProgram
from repro.morph.config import VirtualArchConfig
from repro.vm.timing import TimingRunResult, TimingVM

#: Cycles a guest system call blocks its VM on (simulated) external I/O.
DEFAULT_IO_STALL = 40_000

#: Minimum slave tiles a VM keeps even while blocked.
MIN_SLAVES_PER_VM = 1


@dataclass
class MultiVmResult:
    """Outcome of a shared-fabric run."""

    makespan: int  # cycles until the last VM finished
    per_vm: List[TimingRunResult] = field(default_factory=list)
    reallocations: int = 0

    @property
    def total_guest_instructions(self) -> int:
        return sum(r.guest_instructions for r in self.per_vm)


class SharedFabric:
    """Round-robin-by-time scheduler with an elastic slave pool."""

    def __init__(
        self,
        programs: List[GuestProgram],
        slave_pool: int = 12,
        dynamic: bool = True,
        io_stall_cycles: int = DEFAULT_IO_STALL,
        rebalance_interval: int = 20_000,
    ) -> None:
        if len(programs) < 2:
            raise ValueError("a shared fabric needs at least two guests")
        if slave_pool < MIN_SLAVES_PER_VM * len(programs):
            raise ValueError("slave pool too small for the guest count")
        self.dynamic = dynamic
        self.slave_pool = slave_pool
        self.io_stall_cycles = io_stall_cycles
        self.rebalance_interval = rebalance_interval
        self.stats = StatSet("shared_fabric")

        base_share = slave_pool // len(programs)
        config = VirtualArchConfig("shared_fabric_vm", translator_tiles=min(6, base_share))
        self.vms: List[TimingVM] = [TimingVM(program, config) for program in programs]
        for vm in self.vms:
            vm.subsystem.set_slave_count(base_share, now=0)
        self._blocked_until: Dict[int, int] = {i: 0 for i in range(len(self.vms))}
        self._shares: Dict[int, int] = {i: base_share for i in range(len(self.vms))}
        self._last_rebalance = 0

    # -- arbitration -----------------------------------------------------------

    def _rebalance(self, now: int) -> None:
        """Shift slave tiles from blocked VMs to runnable ones."""
        runnable = [
            i for i, vm in enumerate(self.vms)
            if not vm.finished and self._blocked_until[i] <= now
        ]
        blocked = [
            i for i, vm in enumerate(self.vms)
            if not vm.finished and self._blocked_until[i] > now
        ]
        if not runnable:
            return
        finished = [i for i, vm in enumerate(self.vms) if vm.finished]
        reserved = MIN_SLAVES_PER_VM * len(blocked)
        available = self.slave_pool - reserved - 0 * len(finished)
        share, remainder = divmod(available, len(runnable))
        new_shares = dict(self._shares)
        for index in blocked:
            new_shares[index] = MIN_SLAVES_PER_VM
        for position, index in enumerate(runnable):
            new_shares[index] = share + (1 if position < remainder else 0)
        for index, count in new_shares.items():
            if count != self._shares[index] and not self.vms[index].finished:
                self.vms[index].subsystem.set_slave_count(max(1, count), now)
                self.stats.bump("reallocations")
        self._shares = new_shares

    # -- the interleaved run ----------------------------------------------------

    def run(self, max_steps: int = 5_000_000) -> MultiVmResult:
        """Run every guest to completion; returns the combined result."""
        for _ in range(max_steps):
            candidates = [
                (max(vm.now, self._blocked_until[i]), i)
                for i, vm in enumerate(self.vms)
                if not vm.finished
            ]
            if not candidates:
                break
            wake_time, index = min(candidates)
            vm = self.vms[index]
            if vm.now < wake_time:
                vm.now = wake_time  # the VM slept through its I/O stall

            if self.dynamic and wake_time - self._last_rebalance >= self.rebalance_interval:
                self._rebalance(wake_time)
                self._last_rebalance = wake_time

            vm.step()
            if vm.last_exit_kind == "syscall" and not vm.finished:
                # the proxied call goes off-fabric: the VM blocks
                self._blocked_until[index] = vm.now + self.io_stall_cycles
                self.stats.bump("io_stalls")
                if self.dynamic:
                    self._rebalance(vm.now)
                    self._last_rebalance = vm.now
        else:
            raise RuntimeError(f"shared fabric exceeded {max_steps} scheduling steps")

        results = [vm.result() for vm in self.vms]
        return MultiVmResult(
            makespan=max(vm.now for vm in self.vms),
            per_vm=results,
            reallocations=self.stats["reallocations"],
        )
