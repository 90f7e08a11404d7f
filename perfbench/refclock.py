"""Host-speed reference: latencies in milliseconds of a host of fixed speed.

On a shared host the vCPU is slowed in bursts of a few milliseconds, and the
share of time it is slowed changes from second to second and between
stretches of half a minute or more: the same work takes 1x to 1.8x its
fastest time, with CPU time equal to wall time.  No statistic of raw
latencies taken within one run can tell a slower program from a slower
stretch of the host.

So the worker runs a fixed reference loop every TICK_S of wall time, from a
timer signal, during the timed operations, and keeps the start and duration
of every loop.  Each operation's latency, less the loops that ran inside
it, is then scaled by REF_MS / (the mean reference-loop time during and
around the operation).  The mean, not the median: a latency adds up its
fast and slowed milliseconds, and so does the total time of the loops; the
median of short loops instead jumps once half of them are slowed.  The
reference loop is the same for every version of divconv, so a program that
does twice the work reads twice the time, while a slow stretch of the host
slows the operation and the loops during it alike.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

# One reference loop takes about REF_MS on average on the 2-vCPU host the
# benchmark was defined on (Python 3.11.7); the reported figures are in
# milliseconds of a host on which it takes exactly REF_MS.
REF_MS = 2.5
TICK_S = 0.02  # one reference loop every TICK_S: about 1/8 of the time
# The reference loops during an operation and within WINDOW_S of it scale
# it, and at least the WINDOW_MIN_LOOPS nearest ones.
WINDOW_S = 1.0
WINDOW_MIN_LOOPS = 31


def reference_loop() -> tuple:
    """Fixed pure-Python work of the three kinds divconv spends its time on:
    exact elimination over Fractions, products of truncated integer series,
    and a bounded depth-first search over exponent vectors."""
    n = 5
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    a = [(i * i + 3) % 17 - 8 for i in range(64)]
    b = [(i * 5 + 1) % 13 - 6 for i in range(64)]
    series = [0] * 64
    for i, x in enumerate(a):
        if x:
            for j in range(64 - i):
                series[i + j] += x * b[j] << 40
    hits = 0
    stack = [((), 0)]
    while stack:
        vec, total = stack.pop()
        if len(vec) == 4:
            hits += total % 3 == 0
            continue
        for e in range(-3, 4):
            stack.append((vec + (e,), total + e * (len(vec) + 1)))
    return m[0][-1], sum(series), hits


class RefClock:
    """Runs the reference loop every TICK_S of wall time, from a SIGALRM
    handler, so that the loops sample the host's speed during the timed
    operations themselves, however long they are.  `elapsed` is the time
    spent in those loops, to be taken off every latency measured across
    them."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.cumulative = [0.0]  # cumulative[i] = sum(times[:i])
        self.elapsed = 0.0
        self._busy = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self._loop()
            self._busy = False

    def _loop(self) -> float:
        t = perf_counter()
        reference_loop()
        now = perf_counter()
        self.starts.append(t)
        self.times.append(now - t)
        self.cumulative.append(self.cumulative[-1] + now - t)
        self.elapsed += now - t
        return now

    def burst(self, seconds: float) -> None:
        """Run reference loops back to back for about `seconds`, outside
        any timed operation."""
        self._busy = True
        end = perf_counter() + seconds
        while self._loop() < end:
            pass
        self._busy = False

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a latency measured over [t0, t1] into one on the
        reference host: REF_MS / the mean reference-loop time around it."""
        starts = self.starts
        lo = bisect.bisect_left(starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + WINDOW_S)
        while hi - lo < WINDOW_MIN_LOOPS and (lo > 0 or hi < len(starts)):
            # widen towards the nearer side first
            left = t0 - starts[lo - 1] if lo > 0 else float("inf")
            right = starts[hi] - t1 if hi < len(starts) else float("inf")
            if left <= right:
                lo -= 1
            else:
                hi += 1
        mean = (self.cumulative[hi] - self.cumulative[lo]) / (hi - lo)
        return REF_MS * 1e-3 / mean

    def mean_s(self) -> float:
        return self.cumulative[-1] / len(self.times)
