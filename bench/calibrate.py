"""Host-speed correction: a fixed calibration loop sampled during the run.

The benchmark runs on a guest whose host is shared with other guests.
The speed of one fixed computation there swings by up to 2x within
seconds (see README.md), which no amount of averaging inside a 20 s run
removes.  So every run also measures the host's speed: a timer fires
``PERIOD_S`` of wall time after the previous sample, and its handler
times ``kernel()``, a
fixed mix of pure-Python and small numpy work that does not touch
witnesslab.  A command's corrected time is its wall time, less the time
spent in the handler, scaled by ``REFERENCE_KERNEL_S / kernel time`` of
the samples taken around it.  That is the time the command would take on
a host where the kernel takes ``REFERENCE_KERNEL_S``.

A change to witnesslab does not change the kernel, so it moves the
corrected times in the same proportion as the wall times.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: Wall seconds between two samples.
PERIOD_S = 0.025

#: Kernel seconds on the reference machine, unloaded; the scale of every
#: corrected time.
REFERENCE_KERNEL_S = 0.85e-3

_RNG = np.random.default_rng(20100524)
_SMALL = [(m + m.T) / 2 for m in _RNG.standard_normal((4, 12, 12))]
_MEDIUM = _RNG.standard_normal((40, 40))
_MEDIUM = (_MEDIUM + _MEDIUM.T) / 2
_VECTORS = _RNG.standard_normal((4, 6))


def kernel() -> float:
    """A fixed computation shaped like the workloads: Python loops, small linalg."""
    acc = 0.0
    for k in range(12):
        table = {j: j * k + 0.5 for j in range(40)}
        acc += sum(table.values())
        acc += float(np.linalg.eigh(_SMALL[k % 4])[0][0])
        acc += float(np.kron(_VECTORS[k % 4], _VECTORS[(k + 1) % 4]).sum())
    acc += float(np.linalg.eigh(_MEDIUM)[0][0])
    return acc


class Sampler:
    """Times ``kernel()`` from a SIGALRM handler, ``period`` seconds after the last sample."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._running = False

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        if self._running:
            # one-shot timer, re-armed after the sample: samples never nest
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def start(self) -> None:
        kernel()  # first call pays one-off costs
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        self._running = False  # before the timer stops, so no handler re-arms it
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def correct(self, intervals) -> np.ndarray:
        """Corrected seconds of each (start, end) wall interval.

        A handler runs between two bytecodes, so every sample lies wholly
        inside or wholly outside an interval whose ends were read with
        ``perf_counter``; the ones inside are taken off its wall time.
        The speed factor is the mean over the samples whose midpoints lie
        within one period of the interval, or else the nearest ones.
        """
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        if not len(starts):
            raise RuntimeError("the calibration sampler took no sample")
        durations = ends - starts
        paused = np.concatenate([[0.0], np.cumsum(durations)])
        mids = (starts + ends) / 2
        factors = REFERENCE_KERNEL_S / durations
        out = []
        for a, b in intervals:
            first = int(np.searchsorted(starts, a, "left"))
            inside = paused[max(first, int(np.searchsorted(ends, b, "right")))] - paused[first]
            lo = int(np.searchsorted(mids, a - self.period))
            hi = int(np.searchsorted(mids, b + self.period))
            if hi <= lo:
                lo, hi = max(lo - 1, 0), min(hi + 1, len(mids))
            out.append((b - a - inside) * float(np.mean(factors[lo:hi])))
        return np.asarray(out)
