"""What the host really gave us: a reference quantum and the steal counter.

This host is a 2-vCPU microVM on shared hardware, with no hardware
counters to read.  Two things make a wall-clock reading meaningless:

* *Slow regimes.*  Identical work runs 25 % slower for tens of seconds at
  a time, CPU time inflated as much as wall time.  Over 20 s windows the
  mean of the three fastest 0.2 s segments of ``sim_mixed`` still spreads
  19 % (interquartile range / median).
* *Steal.*  The hypervisor grants the second vCPU only in bursts and
  throttles even one: 12-54 % of a pinned CPU's time was stolen while
  these notes were taken, and 90 % with both vCPUs busy.  The live
  round trip swung 2.3x between back-to-back runs of the same code.

So the benchmark pins itself to one CPU, counts only the time that CPU
worked (process CPU time, or wall minus ``/proc/stat`` steal), and divides
by how slow a fixed quantum of reference work ran at that moment.  With
that, the same 20 s windows spread 2-3 % (sim) and 5 % (live).

The quantum is a toy discrete-event ping network: a heap of event
objects, dict and attribute lookups, closures, short-lived tuples, so
that cache and memory contention slow it the way they slow the program.
It imports nothing from the program.

FROZEN: every corrected metric is a multiple of this function's running
time.  Editing it, or ``NOMINAL_S``, rebases them all.
"""

from __future__ import annotations

import heapq
import os
import resource
import threading
from bisect import bisect_left
from time import process_time, thread_time, time

__all__ = ["NOMINAL_S", "quantum", "slowdown", "stolen_seconds", "children_cpu_seconds", "Sampler"]

#: Time of one quantum on this host in its quiet regime.  A corrected
#: second is a second of a host on which the quantum takes this long.
NOMINAL_S = 0.002

_HOPS = 2000


class _Event:
    __slots__ = ("time", "seq", "fn", "args")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _Node:
    def __init__(self, name):
        self.name = name
        self.inbox = []
        self.stats = {"rx": 0, "tx": 0}
        self.peers = {}


def quantum(clock=process_time) -> float:
    """Run the reference work once; returns the CPU seconds it took."""
    start = clock()
    heap: list[_Event] = []
    seq = 0
    now = 0.0
    delivered = 0
    nodes = [_Node(f"n{i}") for i in range(4)]
    for node in nodes:
        for peer in nodes:
            node.peers[peer.name] = peer

    def deliver(src, dst, size):
        nonlocal seq, delivered
        dst.stats["rx"] += 1
        dst.inbox.append((src.name, size))
        if len(dst.inbox) > 8:
            dst.inbox = dst.inbox[4:]
        delivered += 1
        if delivered < _HOPS:
            target = dst.peers[f"n{(delivered * 7) % 4}"]
            if target is dst:
                target = src
            seq += 1
            dst.stats["tx"] += 1
            heapq.heappush(heap, _Event(
                now + size * 1e-9 + 1e-6, seq, deliver,
                (dst, target, (size * 3 + 1) % 4096),
            ))

    for i in range(4):
        seq += 1
        heapq.heappush(heap, _Event(0.0, seq, deliver, (nodes[i], nodes[(i + 1) % 4], 64 + i)))
    while heap:
        event = heapq.heappop(heap)
        now = event.time
        event.fn(*event.args)
    return clock() - start


def slowdown(*quanta: float) -> float:
    """Host slowdown factor from the quanta measured around a timed region."""
    return sum(quanta) / len(quanta) / NOMINAL_S


def children_cpu_seconds() -> float:
    """User + system CPU of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def stolen_seconds() -> float:
    """Cumulative time the hypervisor withheld our CPU while it had work.

    "Our CPU" is the first one this process may run on; ``run.py`` pins
    the run to exactly that one.
    """
    cpu = min(os.sched_getaffinity(0))
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0  # no steal accounting here: wall time is all there is


def _children_peak_rss_kb() -> dict[int, int]:
    """Peak resident size of each live child of this process, by pid."""
    peaks = {}
    try:
        with open(f"/proc/self/task/{os.getpid()}/children", encoding="ascii") as fh:
            pids = fh.read().split()
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peaks[int(pid)] = int(line.split()[1])
                        break
    except (OSError, ValueError):
        pass  # a child exited between the two reads, or no such files here
    return peaks


class Sampler:
    """Background thread sampling the quantum, the steal counter and the
    peak memory of the child processes.

    For the live plane, whose work happens in peer processes pinned to
    the same CPU as this one: a 2 ms quantum every 50 ms is a 4 % load.
    The quantum is timed in thread CPU time, so waiting for the busy CPU
    is not counted.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.times: list[float] = []  #: ``time.time()`` of each sample
        self.quanta: list[float] = []
        self.stolen: list[float] = []
        #: Highest ``VmHWM`` seen per child pid (kB); a child's last 50 ms
        #: can be missed, its peak up to then cannot.
        self.child_peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        self.times.append(time())
        self.stolen.append(stolen_seconds())
        self.child_peak_kb.update(_children_peak_rss_kb())
        self.quanta.append(quantum(thread_time))

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def worked(self, start: float, end: float) -> float:
        """Corrected seconds of the ``time.time()`` interval [start, end]:
        wall minus steal, divided by the host slowdown in that interval."""
        lo = max(bisect_left(self.times, start) - 1, 0)
        hi = min(max(bisect_left(self.times, end), lo + 1), len(self.times) - 1)
        covered = self.times[hi] - self.times[lo]
        stolen_share = (self.stolen[hi] - self.stolen[lo]) / covered if covered > 0 else 0.0
        wall = end - start
        return wall * (1.0 - min(stolen_share, 0.99)) / slowdown(*self.quanta[lo:hi + 1])

    @property
    def stolen_frac(self) -> float:
        """Share of the sampled period the CPU was withheld."""
        return (self.stolen[-1] - self.stolen[0]) / (self.times[-1] - self.times[0])

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
