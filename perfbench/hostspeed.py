"""Host-speed calibration for a shared machine.

On a small shared host the speed of one Python thread drifts by a fifth
or more within seconds, with the load of other tenants.  A fixed piece of
pure-Python work, run from a timer signal every ``EVERY_S`` seconds while
the ops run, tracks that drift, also in the middle of a long op.  A
stretch of time is reported without the calibrations inside it, each
piece multiplied by ``REFERENCE_S`` over the median of the calibrations
nearest to it: that is, in seconds of a host running at the reference
speed.  The calibration imports nothing from ``atlir``, so a change to
the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import signal
import statistics
from time import perf_counter

EVERY_S = 0.25
NEAREST = 4
# Median calibration time on the reference host: Python 3.11, 2 vCPUs.
REFERENCE_S = 0.025


def calibrate() -> int:
    """Integer arithmetic, then a frontier expansion over tuple histories
    with a successor memo and a JSON round trip.

    The arithmetic touches no memory and tracks the share of a CPU the
    host gives this process; the frontier walks about a megabyte and also
    feels other tenants' pressure on the caches.  The benchmark's ops lie
    between the two: scaled by either part alone, their pass times wander
    with the host's load more than scaled by the sum.
    """
    x = 0
    for i in range(150_000):
        x = (x * 31 + i) % 1000003
    memo: dict = {}
    frontier = [("s0",)]
    for _ in range(6):
        nxt: dict = {}
        for h in frontier:
            for combo in itertools.product(("a", "b", "c"), ("x", "y")):
                key = (h[-1], combo)
                t = memo.get(key)
                if t is None:
                    t = f"s{(len(h) * 7 + ord(combo[0]) + ord(combo[1])) % 9}"
                    memo[key] = t
                nxt[h + (t,)] = None
        frontier = sorted(nxt)[:1000]
    doc = json.dumps({"frontier": [list(h) for h in frontier]}, indent=2)
    return x + len(json.loads(doc)["frontier"])


class HostSpeed:
    def __init__(self):
        self._ends: list[float] = []
        self.seconds: list[float] = []
        self._sampling = False

    def sample(self) -> float:
        """Run one calibration; return the seconds it took.  The collector
        is off meanwhile, so the program's live heap cannot slow it."""
        gc.disable()
        try:
            start = perf_counter()
            calibrate()
            end = perf_counter()
        finally:
            gc.enable()
        self._ends.append(end)
        self.seconds.append(end - start)
        return end - start

    def _tick(self, signum, frame) -> None:
        if not self._sampling:
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def arm(self) -> None:
        """Calibrate every ``EVERY_S`` seconds until :meth:`disarm`."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale_at(self, t: float) -> float:
        """``REFERENCE_S`` over the median of the calibrations nearest ``t``."""
        i = bisect.bisect_left(self._ends, t)
        near = self.seconds[max(0, i - NEAREST // 2) : i + NEAREST // 2]
        return REFERENCE_S / statistics.median(near)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """The seconds from ``start`` to ``end`` without the calibrations
        inside: as measured, and scaled piece by piece."""
        first = bisect.bisect_right(self._ends, start)
        last = bisect.bisect_right(self._ends, end)
        pieces = []
        for k in range(first, last):
            pieces.append((start, self._ends[k] - self.seconds[k]))
            start = self._ends[k]
        pieces.append((start, end))
        measured = scaled = 0.0
        for begin, stop in pieces:
            if stop > begin:
                measured += stop - begin
                scaled += (stop - begin) * self.scale_at((begin + stop) / 2)
        return measured, scaled
