"""Host-speed sampling: host time rescaled to a reference host speed.

The shared 2-core hosts this benchmark runs on change speed by 20-40%
over minutes, and the same pass of the same code slows down with them
(see README.md, *Isolation and noise*).  To cancel that, a pass times a
fixed pure-Python workload, the *probe*, every ``INTERVAL_S`` seconds of
wall time from a ``SIGALRM`` handler.  The handler runs between
bytecodes of whatever the pass is doing, so long cells are sampled
inside, not only between them.

``HostProbe.ref_seconds(start, end)`` is the host time of a window
minus the time spent probing inside it, times the mean of
``REF_PROBE_NS / probe time`` over the probes inside it: the time the
window would have taken on a host where the probe takes
``REF_PROBE_NS``.  The probe is defined here, not in the program under
test, so no change to the simulator moves it.

Only the process that starts a probe is sampled: interval timers are
not inherited across ``fork``, so pool workers run unprobed.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from typing import List

#: Seconds of wall time between two probes.  A probe takes ~1 ms, so
#: probing costs ~2% of the pass, which is subtracted again.
INTERVAL_S = 0.05
#: The reference host is one on which a probe takes this long; the probe
#: took 0.7-1.4 ms inside passes on the 2-core container the bounds
#: were set on.  It only sets the unit.
REF_PROBE_NS = 1_000_000
#: A window with fewer probes than this (2 s of them) is widened around
#: its middle until it has them or covers the whole run.
MIN_SAMPLES = 40


class _Machine:
    """A small register machine dispatching through a dict, touching a
    dict-backed memory and a 60k-object pointer chase: the kinds of work
    the simulator's dispatch, memsys and code caches do."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self.program = [(rng.choice(("add", "xor", "ld", "st", "jnz")), rng.randrange(8),
                         rng.randrange(8), rng.randrange(4096)) for _ in range(4096)]
        self.ops = {"add": self.add, "xor": self.xor, "ld": self.ld, "st": self.st,
                    "jnz": self.jnz}
        self.memory = {i * 4: i for i in range(16384)}
        self.regs = [0] * 8
        self.pc = 0
        count = 60_000
        self.chain = [((a * 7919) % count, a % 97) for a in range(count)]
        self.link = 0

    def add(self, a, b, imm):
        self.regs[a] = (self.regs[a] + self.regs[b] + imm) & 0xFFFFFFFF

    def xor(self, a, b, imm):
        self.regs[a] ^= self.regs[b] ^ imm

    def ld(self, a, b, imm):
        self.regs[a] = self.memory.get(((self.regs[b] + imm) * 4) & 0xFFFC, 0)

    def st(self, a, b, imm):
        self.memory[((self.regs[b] + imm) * 4) & 0xFFFC] = self.regs[a]

    def jnz(self, a, b, imm):
        if self.regs[a] & 1:
            self.pc = imm

    def run(self) -> None:
        self.regs = [1, 2, 3, 4, 5, 6, 7, 8]
        self.pc = 0
        program, ops = self.program, self.ops
        for _ in range(800):
            op, a, b, imm = program[self.pc]
            self.pc = (self.pc + 1) & 4095
            ops[op](a, b, imm)
        table, acc = {}, 0x12345
        for _ in range(1000):
            acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
            table[acc & 1023] = table.get(acc & 1023, 0) + (acc >> 16)
        chain, link, total = self.chain, self.link, 0
        for _ in range(1000):
            link, cost = chain[link]
            total += cost
        self.link = link


class HostProbe:
    """Probes the host every ``INTERVAL_S`` seconds between ``start`` and
    ``stop``; ``starts``/``times`` are each probe's ``perf_counter_ns``
    start and duration, in order."""

    def __init__(self) -> None:
        self.machine = _Machine()
        self.starts: List[int] = []
        self.times: List[int] = []

    def _probe(self, *_signal) -> None:
        started = time.perf_counter_ns()
        self.machine.run()
        self.starts.append(started)
        self.times.append(time.perf_counter_ns() - started)

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, start_ns: int, end_ns: int):
        return (bisect.bisect_left(self.starts, start_ns),
                bisect.bisect_left(self.starts, end_ns))

    def probing_ns(self, start_ns: int, end_ns: int) -> int:
        """Time spent probing inside the window."""
        lo, hi = self._span(start_ns, end_ns)
        return sum(self.times[lo:hi])

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean of ``REF_PROBE_NS / probe time`` over the window's probes
        (at least ``MIN_SAMPLES`` of them, widening the window)."""
        lo, hi = self._span(start_ns, end_ns)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = self.times[lo:hi]
        return sum(REF_PROBE_NS / ns for ns in window) / len(window)

    def ref_seconds(self, start_ns: int, end_ns: int) -> float:
        """The window's host time without probing, at the reference speed."""
        own_ns = end_ns - start_ns - self.probing_ns(start_ns, end_ns)
        return own_ns * self.speed(start_ns, end_ns) / 1e9
