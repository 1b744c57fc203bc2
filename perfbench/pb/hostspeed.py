"""Host speed: scale measured times to a calm host.

The benchmark runs on shared hosts whose CPU speed switches between
states for stretches from under a second to over half a minute.  On a
2-vCPU KVM guest (Xeon, no steal time reported) a fixed pure-Python loop
took 1.5x longer in the slow state, and the median of its time over
15 s stretches spread 0.30 (IQR/median) -- more than the bound of any
metric, whatever the program does.

So the benchmark times a *probe* along every measured run: a fixed
piece of its own Python work (integer arithmetic, small objects, dict
and string operations -- the interpreter paths the program spends its
time in), never calling the program.  Each stretch of measured time
between two probes is scaled by ``NOMINAL_S / probe``, ``probe`` being
the mean of those two probes; the probes' own time is left out.  In a
200 s trace of the enforcement path, scaling cut the spread of its
per-15 s medians from 0.17 to 0.05.  A probe touching a large working
set (memory-bound) did not help (0.13), so the slow state is a slower
CPU, not slower memory.

A slower program still reads slower: the probe does not run the
program, so only the host's share of a change is divided out.  Times
read as they would on a host where one probe takes ``NOMINAL_S``,
about the probe's time in the fast state of the host above.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import time
from typing import Iterator, List, Tuple

perf = time.perf_counter

#: A probe's time in the fast state of a 2-vCPU Xeon KVM guest (the
#: fastest probes of five 20-60 s runs took 0.56-0.62 ms).
NOMINAL_S = 0.0006
#: Repeats per probe; the fastest is kept, so an interrupt inside one
#: repeat does not read as a slow host.
REPEATS = 3
#: Probe period of ``HostSpeed.ticking``: 1% of the time goes to probes.
TICK_S = 0.2


class _Item:
    __slots__ = ("index", "key", "pair")

    def __init__(self, index: int, key: str, pair: list) -> None:
        self.index = index
        self.key = key
        self.pair = pair


def _work() -> int:
    total = 0
    for i in range(4000):
        total += i * i % 7
    groups: dict = {}
    for i in range(600):
        key = f"key{i % 140}"
        groups.setdefault(key, []).append(_Item(i, key, [i, i + 1]))
    for key in sorted(groups):
        for item in groups[key]:
            total += item.index + len(item.pair) + len(item.key)
    return total


def probe() -> float:
    """Seconds of one probe (the fastest of ``REPEATS``).

    The garbage collector is off meanwhile: a collection the probe's
    allocations set off would scan the program's heap, and the probe
    would then read the program's memory, not the host (it read 50%
    slower beside the enforcement workload's objects with it on)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf()
            _work()
            best = min(best, perf() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """A timeline of probes along a run.

    Probes come from ``sample()`` (a loop probing where it can, such as
    the service client while no request is in flight), from ``scale()``
    (probe, and return the factor for the work since the previous
    probe), or from a timer inside ``ticking()``.  ``scaled(start, end)``
    is the host-scaled length of a measured interval."""

    def __init__(self) -> None:
        #: ``(start, end, probe seconds)`` per probe, in time order.
        self.timeline: List[Tuple[float, float, float]] = []
        self.last = self.sample()

    @property
    def probes(self) -> List[float]:
        return [p for _s, _e, p in self.timeline]

    def sample(self) -> float:
        """Probe now and remember when; returns the probe's seconds."""
        start = perf()
        seconds = probe()
        self.timeline.append((start, perf(), seconds))
        self.last = seconds
        return seconds

    def scale(self) -> float:
        previous = self.last
        return 2.0 * NOMINAL_S / (previous + self.sample())

    @contextlib.contextmanager
    def ticking(self) -> Iterator["HostSpeed"]:
        """Probe every ``TICK_S`` seconds from a SIGALRM timer (its handler
        runs in the main thread between bytecodes), and once more at the
        end, so that ``scaled`` can bracket every interval inside."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Host-scaled seconds of ``[start, end]``, probes left out.

        Every stretch between two probes is scaled by their mean; the
        stretches at the ends use the last probe begun before ``start``
        and the first begun after ``end`` (the nearest ones at the ends
        of the timeline)."""
        line = self.timeline
        i = bisect.bisect_right([s for s, _e, _p in line], start)
        previous = line[max(0, i - 1)][2]
        cursor = start
        total = 0.0
        while i < len(line) and line[i][0] < end:
            s, e, p = line[i]
            total += (s - cursor) * 2.0 * NOMINAL_S / (previous + p)
            cursor, previous = e, p
            i += 1
        after = line[min(i, len(line) - 1)][2]
        return total + (end - cursor) * 2.0 * NOMINAL_S / (previous + after)

    def factor(self, start: float, end: float) -> float:
        """One factor for ``[start, end]``: ``NOMINAL_S`` over the mean of
        the probes begun inside it and the nearest one on either side.
        For work that goes on while this process probes (a daemon's)."""
        line = self.timeline
        starts = [s for s, _e, _p in line]
        lo = max(0, bisect.bisect_right(starts, start) - 1)
        hi = min(len(line) - 1, bisect.bisect_left(starts, end))
        near = [p for _s, _e, p in line[lo:hi + 1]]
        return NOMINAL_S * len(near) / sum(near)
