"""Host-speed normalisation of the benchmark's times.

A shared host's speed drifts.  On a 2-vCPU Xeon guest, strcat jobs and a
fixed kernel both ran up to twice as slow for stretches of seconds to
minutes, so the level of a whole run moved by more than any bound a
benchmark could keep, and medians within a run cannot remove a stretch
that outlasts it.  The benchmark therefore measures the host's speed while
it runs and reports every time at a fixed reference speed:

    normalised = (raw - probing) * REFERENCE_S / (trimmed mean probe time)

While a ``Speedometer`` is started, an interval timer interrupts the
program every ``INTERVAL_S`` and times ``probe``, a fixed kernel of about
a millisecond that does not call strcat.  The mean probe time over a job's
own span (widened to ``WINDOW_S`` on each side, so a query of a
millisecond still sees several probes), trimmed of its extremes, is the
host's slowness during that job, and the probing is subtracted from the
job's time.  A change to strcat moves the job's time and not the probe's,
so it moves the normalised time by the same share; a host that runs
everything slower moves both, and they cancel.  The probe does the two kinds of work strcat
does: elimination mod p by numpy row operations (the shape of
``linalg.rref``) and a loop of small-integer arithmetic in the
interpreter.  The raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

P = 32003
# Normalised times are in seconds at the host speed where the probe takes
# REFERENCE_S.  On the 2-vCPU Xeon guest the benchmark was tuned on (Python
# 3.11.7, numpy 2.4.6) the probe took about 0.6 ms in fast stretches and
# 1.2 ms in slow ones.
REFERENCE_S = 0.001
INTERVAL_S = 0.025  # between probes while started; ~4% of the time
WINDOW_S = 0.1      # probes this far outside a span still count for it
# Share of a span's probe times dropped at each end before averaging: a
# probe that the host pre-empts counts for far more than its share of the
# span, while the mean (not the median) follows slow and fast stretches
# that alternate within the span.
TRIM = 0.05
WARM_UP = 5         # untimed probes first, so that none is timed cold

_MATRIX = np.random.default_rng(12345).integers(0, P, size=(12, 20),
                                                dtype=np.int64)


def _eliminate(m: np.ndarray) -> int:
    m = m.copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        piv = hits[0] + r
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, P)) % P
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % P
        r += 1
    return int(m.sum())


def _arithmetic() -> int:
    s = 0
    for i in range(3000):
        s = (s * 31 + i) % P
    return s


def probe() -> int:
    """The reference kernel: a fixed amount of work, independent of strcat."""
    return _eliminate(_MATRIX) + _arithmetic()


class Speedometer:
    """Probe times taken through a run, and the normalisation they give.

    ``start``/``stop`` switch the interval timer, which calls ``sample``.  ``seconds(t0, t1)`` is the time between two clock readings,
    less the probing done in between, at the reference speed.
    """

    def __init__(self):
        self.began: list[float] = []  # when each probe started, ascending
        self.ended: list[float] = []
        self._busy = False
        self._previous = None
        for _ in range(WARM_UP):
            probe()

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        probe()
        t1 = clock()
        self.began.append(t0)
        self.ended.append(t1)
        self._busy = False

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probe_times(self) -> list[float]:
        return [e - b for b, e in zip(self.began, self.ended)]

    def probing(self, t0: float, t1: float) -> float:
        """Seconds spent probing between t0 and t1."""
        lo = max(bisect.bisect_left(self.began, t0) - 1, 0)
        hi = bisect.bisect_right(self.began, t1)
        return sum(max(min(e, t1) - max(b, t0), 0.0)
                   for b, e in zip(self.began[lo:hi], self.ended[lo:hi]))

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the trimmed mean probe time within WINDOW_S of
        [t0, t1] (of the nearest probe if there is none)."""
        lo = bisect.bisect_left(self.began, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.began, t1 + WINDOW_S)
        if hi == lo:
            mid = (t0 + t1) / 2
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(self.began))),
                     key=lambda i: abs(self.began[i] - mid))
            hi = lo + 1
        times = sorted(e - b for b, e in zip(self.began[lo:hi],
                                             self.ended[lo:hi]))
        cut = math.ceil(len(times) * TRIM)
        if len(times) > 2 * cut:
            times = times[cut:len(times) - cut]
        return REFERENCE_S / statistics.fmean(times)

    def seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0 - self.probing(t0, t1)) * self.factor(t0, t1)
