"""Host-speed calibration of the benchmark's CPU times.

The benchmark measures CPU seconds, which leave out the time the
hypervisor of a shared host takes from its virtual CPUs.  What CPU
time does not leave out is the host's speed: with the other tenants'
load on the same cores and caches, the same Python code takes up to
twice the CPU time in one second as in the next.  Each batch is
therefore bracketed by a fixed calibration kernel, a small
discrete-event simulation written here (it shares no code with the
program, so no change to the program moves it), and its CPU seconds
are converted to *reference CPU seconds*:

    reference_s = cpu_s * REFERENCE_S / kernel_s

where ``kernel_s`` is the mean kernel CPU time measured just before
and just after the batch, in the benchmark process, and
``REFERENCE_S`` is the kernel's CPU time on the reference host (about
40 ms on a 2-vCPU Intel Xeon with CPython 3.11).  A slower program
moves the batch time and leaves the kernel time alone, so a regression
shows in full; a slower host moves both, and cancels.
"""

from __future__ import annotations

import heapq
import time

#: calibration-kernel CPU seconds on the reference host
REFERENCE_S = 0.040
#: events the kernel executes
KERNEL_EVENTS = 20000
#: kernel runs averaged per measurement
KERNEL_RUNS = 2


class _Node:
    __slots__ = ("count", "peers", "value")

    def __init__(self) -> None:
        self.count = 0
        self.peers = []
        self.value = "0"

    def fire(self, sim: "_Kernel", time_: int) -> None:
        self.count += 1
        self.value = "1" if self.value == "0" else "0"
        for peer in self.peers:
            sim.schedule(time_ + 1 + (self.count & 3), peer.fire)


class _Kernel:
    """A minimal event scheduler: a heap of (time, seq, action)."""

    def __init__(self) -> None:
        self.heap = []
        self.seq = 0

    def schedule(self, time_: int, action) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time_, self.seq, action))

    def run(self, limit: int) -> int:
        executed = 0
        while self.heap and executed < limit:
            time_, _, action = heapq.heappop(self.heap)
            action(self, time_)
            executed += 1
        return executed


def _kernel() -> None:
    sim = _Kernel()
    nodes = [_Node() for _ in range(32)]
    for index, node in enumerate(nodes):
        node.peers = [nodes[(index + 1) % 32]]
        if index % 5 == 0:
            node.peers.append(nodes[(index * 7) % 32])
    sim.schedule(0, nodes[0].fire)
    sim.run(KERNEL_EVENTS)


def kernel_seconds() -> float:
    """CPU seconds the calibration kernel takes right now, the mean of
    ``KERNEL_RUNS`` runs in this process."""
    start = time.process_time()
    for _ in range(KERNEL_RUNS):
        _kernel()
    return (time.process_time() - start) / KERNEL_RUNS


def to_reference(kernel_before: float, kernel_after: float) -> float:
    """The factor converting CPU seconds measured between the two
    kernel measurements into reference CPU seconds."""
    return 2.0 * REFERENCE_S / (kernel_before + kernel_after)
