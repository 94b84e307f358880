"""A clock that takes the speed of the machine out of the benchmark's times.

On a shared virtual machine the speed of a CPU drifts with what the
other guests of its host do: the same ``grasp_opt.evaluate`` call took
32 ms in one ten-second window and 57 ms a minute later on a 2-core
VM, with no steal time reported. A wall-clock time then says more about
the neighbours than about the program.

While it runs, ``RefClock`` times a fixed reference computation every
``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler; Python runs
the handler in the main thread between bytecodes, so the samples are
spread through the program's own calls. ``reference_time`` then maps a
``time.perf_counter`` reading to seconds at reference speed: the time
the program itself used up to that point (the samples are taken out),
with each stretch between two samples scaled by ``REFERENCE_S`` over
the median duration of the samples around it. A program that does more
work reads more reference seconds; a host that runs it slower does not.
The raw wall times stay in the run record.

The reference computation touches no program code and no shared state:
a Python integer loop, a few small matrix products and a small
broadcast distance computation, in the mix of the program's own hot
loops.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.05     # wall time between two reference samples
WINDOW = 25           # samples on each side of a stretch for its median
# nominal duration of one reference sample: a stretch read at that speed
# counts its wall time
REFERENCE_S = 0.0025

_MATRIX = np.random.default_rng(0).random((64, 64))
_POINTS = np.random.default_rng(1).random((48, 3))
_SITES = np.random.default_rng(2).random((64, 3))


def _reference():
    total = 0
    for i in range(10000):
        total += i * i
    for _ in range(20):
        _MATRIX @ _MATRIX
    for _ in range(12):
        d = _POINTS[:, None, :] - _SITES[None, :, :]
        total += np.sqrt(np.einsum("ijk,ijk->ij", d, d)).min(axis=1).sum()
    return total


class RefClock:
    """Reference samples taken between ``start`` and ``stop``."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.origin = None
        self._busy = False
        self._saved_handler = None
        self._table = None

    def start(self):
        self.origin = time.perf_counter()
        self._saved_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        if not self.starts:
            raise RuntimeError("the reference clock took no sample")
        self._table = self._build()

    def _sample(self, signum, frame):
        if self._busy:        # a signal that lands inside a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _reference()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        finally:
            self._busy = False

    def _build(self):
        """Reference time at the start of each stretch, and its rate.

        Stretch j runs from the end of sample j-1 (the origin for j = 0)
        to the start of sample j (open-ended for the last one).
        """
        starts, ends = np.array(self.starts), np.array(self.ends)
        durations = ends - starts
        n = len(durations)
        local = np.array([
            np.median(durations[max(0, k - WINDOW):k + WINDOW + 1])
            for k in range(n)])
        rate = REFERENCE_S / local[np.minimum(np.arange(n + 1), n - 1)]
        begin = np.concatenate([[self.origin], ends])
        cumulative = np.concatenate(
            [[0.0], np.cumsum((starts - begin[:-1]) * rate[:-1])])
        return starts, ends, begin, rate, cumulative

    def reference_time(self, t):
        """Reference seconds from the origin to the reading(s) ``t``."""
        starts, ends, begin, rate, cumulative = self._table
        t = np.maximum(np.asarray(t, dtype=float), self.origin)
        j = np.searchsorted(starts, t, side="right")
        inside = (j > 0) & (t < ends[np.maximum(j - 1, 0)])
        moving = cumulative[j] + (t - begin[j]) * rate[j]
        return np.where(inside, cumulative[j], moving)

    def seconds(self, t0, t1):
        """Reference seconds between two readings."""
        return float(self.reference_time(t1) - self.reference_time(t0))

    def summary(self):
        durations = np.array(self.ends) - np.array(self.starts)
        return {"samples": len(durations),
                "sample_ms_p50": float(np.median(durations) * 1e3),
                "sample_ms_p10": float(np.percentile(durations, 10) * 1e3),
                "sample_ms_p90": float(np.percentile(durations, 90) * 1e3),
                "share_of_wall": float(durations.sum()
                                       / (self.ends[-1] - self.origin))}
