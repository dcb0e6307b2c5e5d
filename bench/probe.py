"""A fixed piece of pure-Python work that measures how fast the host runs now.

The benchmark shares its cores with other tenants, and their load makes the
same Python code run up to 1.8 times slower for seconds or minutes at a time,
with CPU time rising as much as wall time. No statistic taken over the
package's jobs alone removes that. So a timer interrupts the benchmark every
PERIOD_S seconds and times this probe, and the benchmark reports every time
scaled to a host on which the probe takes REFERENCE_S:

    reported seconds = seconds less probing * REFERENCE_S / median probe time

taking the median over the probes that fired during the timed interval, or
over a longer stretch around it when fewer than MIN_LOCAL did.

The probe does what the package spends its time on (arithmetic on a small
class of Fraction pairs, tuple slicing, dictionaries keyed by sorted tuples)
but uses only the standard library, so no change to the package changes it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction
from itertools import product

# A round figure near the median probe time on the host the bounds were set
# on (a shared 2-vCPU x86-64 container, Python 3.11). Only the scale of the
# reported seconds depends on it, not their spread.
REFERENCE_S = 0.002

# The timer period; probing costs about a twentieth of the run.
PERIOD_S = 0.05

# An interval is scaled by its own probes when at least this many fired in it.
MIN_LOCAL = 5


class _Pair:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __mul__(self, other):
        if self.im or other.im:
            return _Pair(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)
        return _Pair(self.re * other.re, self.im)

    def __add__(self, other):
        return _Pair(self.re + other.re, self.im + other.im)


_TERMS = [(tuple(sorted(random.Random(k).sample(range(30), 3))),
           _Pair(Fraction(k % 7 + 1, k % 5 + 1), Fraction(k % 3)))
          for k in range(12)]


def _work() -> int:
    out = {}
    for (ka, ca), (kb, cb) in product(_TERMS, _TERMS):
        c = ca * cb
        for i in range(len(ka)):
            key = tuple(sorted(ka[:i] + ka[i + 1:] + kb[:1]))
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return len(out)


def scale(local: list[float], around: list[float]) -> float:
    """Factor that turns seconds measured while the probes ``local`` fired
    into reported seconds; ``around`` are the probes of a longer stretch that
    holds it, used when too few fired inside."""
    return REFERENCE_S / statistics.median(local if len(local) >= MIN_LOCAL else around)


class Sampler:
    """Times the probe from a SIGALRM handler every PERIOD_S seconds, so that
    the probes fall inside the work in proportion to its length.

    ``samples`` holds the probe times in firing order; an interval's probes
    are the samples appended while it ran. ``clock()`` is perf_counter less
    the time spent probing, so intervals read by it leave the probes out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _fire(self, signum, frame) -> None:
        if self._busy:  # the host is so slow that the probe outlasted a period
            return
        self._busy = True
        started = time.perf_counter()
        _work()
        ended = time.perf_counter()
        self.samples.append(ended - started)
        self.spent += ended - started
        self._busy = False

    def clock(self) -> float:
        # perf_counter is read first: a probe that fires between the two reads
        # then lengthens the interval being read instead of shortening it
        now = time.perf_counter()
        return now - self.spent

    def start(self) -> None:
        for _ in range(5):  # pay the probe's first-call costs untimed
            _work()
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
