"""Wall times scaled to a fixed reference speed of the host.

The benchmark runs on shared virtual machines whose speed changes by up to
a factor of two within seconds (another tenant on the same physical core,
frequency changes); CPU time changes with it, so neither the wall time
nor the CPU time of one run compares with another run's. The benchmark
therefore times a short, fixed probe loop before a timed piece of work,
every ``SAMPLE_INTERVAL_S`` during it (from a ``SIGALRM`` handler) and
after it. The piece's wall time, less the time its in-flight probes took,
is multiplied by the mean of ``REFERENCE_S / probe time`` over those
probes: the result is the time the work would take on a host where the
probe takes ``REFERENCE_S``.

The probe uses only the standard library, never the program under test,
so a change to the program moves scaled times exactly as it moves wall
times. It does what the decoder does most, in pure Python: it parses
text lines into tuples, merges weights in a dict with ``log1p``/``exp``,
and pushes and pops heap entries that carry growing label tuples. On a
2-vCPU x86-64 VM, over a minute of decoding one lattice again and again,
the quartile spread of its decode time was 0.4-0.5 of the median
unscaled, 0.09 scaled on a depth-12 `ambig` lattice and 0.06 on a
depth-400 `deep` lattice; with probes only before and after each decode
the `deep` lattice's spread was 0.11, because the host's speed changes
within one of its decodes.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# the probe's time at the reference speed: about its time in the fast
# state of the 2-vCPU x86-64 VM (2.0 GHz, CPython 3.11) the benchmark was
# built on, where it took 0.19-0.41 ms
REFERENCE_S = 0.2e-3
# how often the host's speed is sampled while a timed piece of work runs
SAMPLE_INTERVAL_S = 0.02
# a timed block that starts this soon after the previous one ended reuses
# that block's closing probe as its opening probe
REUSE_S = 0.05

_LINES = [f"{i % 97} {(i * 31) % 101} {i % 5} {math.log1p(i)!r}"
          for i in range(100)]


def _probe_work() -> int:
    arcs = [line.split() for line in _LINES]
    arcs = [(int(s), int(t), int(lab), float(w)) for s, t, lab, w in arcs]
    table = {}
    for s, t, lab, w in arcs:
        key = (s % 13, lab)
        old = table.get(key)
        table[key] = w if old is None else \
            min(old, w) - math.log1p(math.exp(-abs(old - w)))
    heap = [(0.0, 0, ())]
    for s, t, lab, w in arcs:
        g, n, labels = heapq.heappop(heap)
        heapq.heappush(heap, (g + w, n + 1, labels + (lab,)))
        heapq.heappush(heap, (g + table[(t % 13, lab)], n, labels))
    return len(heap) + len(table)


def probe() -> float:
    """Wall time of one run of the probe loop, in seconds.

    The loop runs twice and only the second run is timed: a first run
    right after a large decode took up to 30% longer (the decode's memory
    had just gone back to the allocator), which would tie the scale to
    the program's memory use. The collector is off while the probe runs,
    so that no collection the program's garbage is due for lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work()
        started = perf_counter()
        _probe_work()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Timing:
    """What :meth:`HostSpeed.timing` measured: the block's wall time less
    its in-flight probes, and that time scaled to the reference speed."""

    __slots__ = ("seconds", "scaled")

    def __init__(self):
        self.seconds = self.scaled = 0.0


class HostSpeed:
    """Times blocks of work and scales their times to ``REFERENCE_S``.

    A block's opening probe is the previous block's closing probe when the
    block starts within ``REUSE_S`` of it, as between back-to-back decodes.
    Every probe time is also kept in :attr:`probes`, for the report."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        # interval 0 probes only before and after each block
        self.interval = interval
        self.probes = []
        self._block = []          # probe times of the block being timed
        self._spent = 0.0         # time the block's in-flight probes took
        self._closed = -math.inf  # when the last closing probe ended

    def _probe(self):
        self.probes.append(probe())
        self._block.append(self.probes[-1])

    def _on_alarm(self, signum, frame):
        started = perf_counter()
        self._probe()
        self._spent += perf_counter() - started

    @contextmanager
    def timing(self):
        """Time the ``with`` block; the yielded :class:`Timing` is filled
        in when the block ends, also when it raises."""
        timing = Timing()
        reuse = perf_counter() - self._closed < REUSE_S
        self._block = [self.probes[-1]] if reuse else []
        if not reuse:
            self._probe()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        started = perf_counter()
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval,
                             self.interval)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - started
            signal.signal(signal.SIGALRM, previous)
            self._probe()
            self._closed = perf_counter()
            timing.seconds = elapsed - self._spent
            timing.scaled = timing.seconds * statistics.fmean(
                REFERENCE_S / t for t in self._block)
