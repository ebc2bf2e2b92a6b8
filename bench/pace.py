"""Host pace: the speed of the host, sampled throughout a run.

On a shared 2-vCPU virtual machine the speed of the host changed by up to
2x over seconds to minutes (a fixed Fraction loop took 0.13-0.30 s within
one minute), so raw times of the same work differed by 22-33% between runs.
While a ``Pace`` is running, a SIGALRM handler times one reference unit
every ``PERIOD_S``.  A measured interval is then reported as

    (raw seconds - handler seconds inside it) * NOMINAL_UNIT_S
        / (mean unit time of the samples in and around the interval)

which reads as seconds on a host that runs one reference unit in
``NOMINAL_UNIT_S``.  The reference unit is a frozen copy of the kind of
work pbwkit does (sparse echelon insertion of dict rows with Fraction
coefficients), so it slows down with the host as pbwkit does; it calls
nothing in pbwkit, so no change to pbwkit moves it.
"""

from __future__ import annotations

import bisect
import random
import signal
from fractions import Fraction
from time import perf_counter

NOMINAL_UNIT_S = 0.005
PERIOD_S = 0.1
WINDOW_S = 0.5          # samples this close to an interval count for it
MIN_SAMPLES = 4

_rng = random.Random(7)
_ROWS = [{c: Fraction(_rng.choice((-2, -1, 1, 2, 3)), _rng.choice((1, 1, 2, 3)))
          for c in _rng.sample(range(40), 4)} for _ in range(30)]


def reference_unit():
    """Echelon insertion of 30 fixed sparse rows; returns the rank (30)."""
    pivots = {}
    for r in _ROWS:
        vec = dict(r)
        while vec:
            lead = min(vec)
            row = pivots.get(lead)
            if row is None:
                inv = 1 / vec[lead]
                pivots[lead] = {c: s * inv for c, s in vec.items()}
                break
            f = vec[lead]
            for c, s in row.items():
                t = vec.get(c)
                if t is None:
                    vec[c] = -(f * s)
                else:
                    t = t - f * s
                    if t:
                        vec[c] = t
                    else:
                        del vec[c]
    return len(pivots)


class Pace:
    """Samples the host while started; converts intervals afterwards."""

    def __init__(self):
        self.times = []        # sample end times
        self.unit_s = []       # seconds per reference unit, per sample
        self.spent = 0.0       # seconds spent in the handler so far
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_unit()
        t1 = perf_counter()
        self.times.append(t1)
        self.unit_s.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self):
        return perf_counter(), self.spent

    def since(self, mark):
        """(start, end, seconds without the handler's share) of the
        interval from ``mark`` to now."""
        t0, spent0 = mark
        t1 = perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent0)

    def normalize(self, interval):
        """Seconds on the nominal host for an interval from ``since``;
        call after stop(), when the samples around it exist."""
        t0, t1, seconds = interval
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        window = self.unit_s[lo:hi]
        return seconds * NOMINAL_UNIT_S * len(window) / sum(window)
