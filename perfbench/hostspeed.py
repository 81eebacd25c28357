"""Host-speed normalisation of wall times.

The benchmark runs on a few cores of a shared host whose speed changes
all the time: the same Thrifty call takes 85 ms for half a minute and
150 ms the next, and a 7 ms task alternates between 4.6 ms and 7.5 ms
from one call to the next.  CPU time tracks wall time throughout (the
process is not descheduled; every instruction is slower), so no
estimator over the calls of one run hides a slowdown that lasts as
long as the run.  Every time the benchmark reports is therefore scaled
by the host speed measured around it.

A *probe* runs a fixed reference task — an interpreter loop and
label-propagation sweeps over a fixed random graph, about equal in
time — a few times in a row and records each repetition.  Of the kinds
of work tried as the reference (interpreter loops, object-heavy Python,
small-array numpy calls, numpy sweeps), this pair tracked the measured
calls best: over 10-second windows it took the spread of the
Thrifty-on-RMAT, Thrifty-on-road and served-request times from 0.08,
0.09 and 0.10 (raw) down to 0.05, 0.07 and 0.07; small-array numpy
calls tracked none of them.  The loop probes between operations, at least
every ``PROBE_EVERY_S``, and each probe lasts ``PROBE_SHARE`` of the
time since the previous one, so the host is sampled evenly over time
whatever the length of the operations.  A measured interval is reported
as

    wall time x REFERENCE_MS / (mean repetition time near the interval)

i.e. in milliseconds of a host on which one repetition takes
``REFERENCE_MS``.  "Near" means within ``WINDOW_S`` of the interval.
The mean, not the median: an interval's wall time adds up the host's
slowness over its length, and so does the mean of evenly spread
repetitions.  The reference task is benchmark code: no change to the
program makes it faster or slower.
"""

from __future__ import annotations

from time import perf_counter as _clock

import numpy as np

#: Wall time of one repetition on the host the figures are scaled to.
REFERENCE_MS = 2.5
#: The loop probes at least this often (seconds).
PROBE_EVERY_S = 0.25
#: Share of wall time spent probing.
PROBE_SHARE = 0.05
#: Repetitions within this many seconds of an interval are pooled.
WINDOW_S = 10.0

_rng = np.random.default_rng(12345)
_N = 1 << 12
_DST = _rng.integers(0, _N, size=1 << 15)
_STARTS = np.searchsorted(np.sort(_rng.integers(0, _N, size=_DST.size)),
                          np.arange(_N)).clip(max=_DST.size - 1)


def reference_task() -> int:
    """Fixed work, about ``REFERENCE_MS`` on a calm host."""
    acc, table = 0, {}
    for i in range(6_500):                        # interpreter
        acc += i * 3 % 7
        table[i & 511] = acc
    labels = np.arange(_N)                        # LP sweeps
    for _ in range(5):
        labels = np.minimum(labels,
                            np.minimum.reduceat(labels[_DST], _STARTS))
    return acc + int(labels[0])


class HostClock:
    """Probe record of one run plus the scaling it implies."""

    def __init__(self) -> None:
        # Start and end (perf_counter s) of every repetition.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._last = None

    def probe(self) -> None:
        """Repeat the reference task for ``PROBE_SHARE`` of the time since
        the previous probe (at least once)."""
        t0 = _clock()
        budget = 0.0 if self._last is None else PROBE_SHARE * (t0 - self._last)
        while True:
            a = _clock()
            reference_task()
            b = _clock()
            self.starts.append(a)
            self.ends.append(b)
            if b - t0 >= budget:
                break
        self._last = b

    def maybe_probe(self) -> None:
        if self._last is None or _clock() - self._last >= PROBE_EVERY_S:
            self.probe()

    def normalised(self, t0, t1) -> np.ndarray:
        """Wall seconds of each interval ``[t0, t1]``, scaled to the
        reference host."""
        t0 = np.asarray(t0, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        starts = np.asarray(self.starts)
        took = np.asarray(self.ends) - starts
        cum = np.concatenate(([0.0], np.cumsum(took)))
        lo = np.searchsorted(starts, t0 - WINDOW_S, side="left")
        hi = np.searchsorted(starts, t1 + WINDOW_S, side="right")
        count = hi - lo
        # Every interval lies between two probes, so its window is never
        # empty; the run-wide mean stands in should one be.
        mean = np.where(count > 0, (cum[hi] - cum[lo]) / np.maximum(count, 1),
                        took.mean())
        return (t1 - t0) * (REFERENCE_MS * 1e-3 / mean)

    def busy_seconds(self, t0: float, t1: float) -> float:
        """Reference-host seconds of ``[t0, t1]``, probes left out."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        inside = (starts >= t0) & (ends <= t1)
        gap_t0 = np.concatenate(([t0], ends[inside]))
        gap_t1 = np.concatenate((starts[inside], [t1]))
        return float(self.normalised(gap_t0, gap_t1).sum())

    def probe_ms(self) -> float:
        """Mean raw repetition time: how fast the host ran (ms)."""
        return float(np.mean(np.subtract(self.ends, self.starts))) * 1e3
