"""Correction of measured times for the machine's changing speed.

On a shared host the speed of a single Python thread can swing by 2x and
more, in phases that last from under a second to minutes, and the engine's
code slows down in step with any pure-Python loop.  So raw wall times of
one workload spread across runs by more than any useful bound.

While a `SpeedSampler` is on, a SIGALRM timer interrupts the process every
INTERVAL seconds and times one fixed reference chunk between two bytecodes
of whatever is running.  The chunk does what the engine spends its time on:
exact fractions, a dict keyed by tuples, a sort.  It touches no state of the
program, so outputs stay byte-identical.  A measured interval is then
converted to reference seconds: its wall time, minus the time of the chunks
run inside it, times the mean speed sampled over it relative to
REF_CHUNK_S.  The result is the time the interval would have taken on this
machine in its fast phase, where one chunk takes REF_CHUNK_S.
"""
from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.1
# scales corrected times to seconds: about one chunk's time while a 2.0 GHz
# Xeon vCPU (Python 3.11) runs at its fast phase, so that a corrected time
# is close to the raw wall time of a run made wholly in that phase
REF_CHUNK_S = 0.002
# an interval with fewer samples inside it (a short set-up) takes the
# speed from this many samples nearest to its middle
NEAREST = 5


def _chunk() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 500):
        x = Fraction(i % 13, i % 97 + 1)
        acc = acc + x if i % 64 else x
        table[(i % 211, i % 7)] = acc
        if i % 250 == 0:
            sorted(table.values())
    return acc


class SpeedSampler:
    """Samples the machine's speed while active (a context manager)."""

    def __init__(self):
        # (start, duration) of each timed chunk
        self.samples: list[tuple[float, float]] = []
        self._old_handler = None

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        _chunk()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        # one sample up front, so that every interval has a speed
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1] of perf_counter time."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        speed_from = inside
        if len(inside) < NEAREST:
            mid = (t0 + t1) / 2
            speed_from = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        busy = sum(d for _, d in inside)
        # uniform samples in time: the mean of 1/duration is the mean speed
        return (t1 - t0 - busy) * statistics.fmean(REF_CHUNK_S / d for _, d in speed_from)
