"""Machine-speed probe: scales timings to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to half in phases of seconds to minutes, so two runs of the same code can
differ more than any sensible regression bound.  The probe measures that
drift while the benchmark runs: a timer signal interrupts the main thread
every ``INTERVAL_S`` seconds and times one call of ``kernel``, a fixed
piece of pure-Python work frozen in this file.  A timing is then scaled by
``REFERENCE_S`` over the mean kernel time measured in and around its
interval: it reads as the time the program would take on a machine on
which the kernel takes ``REFERENCE_S``.

The probe's own time is subtracted from every timing (``stolen``), so the
program is measured without it.  Its cost is about ``KERNEL / INTERVAL``,
a few per cent of the wall time.  Only the standard library is used, so
the probe can start before anything is imported.
"""

import bisect
import math
import signal
import time

INTERVAL_S = 0.025
REFERENCE_S = 0.001  # kernel time that defines the reference speed; never change
MIN_SAMPLES = 16  # samples behind one scaling factor


def kernel() -> int:
    """Fixed interpreter-bound work: integer, float, call and container ops."""
    acc, table, x = 7, {}, 0.5
    for i in range(720):
        acc = (acc * 31 + i) % 1000003
        table[i & 31] = (acc, i)
        x = math.sin(x) * 0.9 + abs(x - 0.3) * 0.1
        row = [acc & 7, i % 5, len(table)]
        acc += sum(row) + max(row) + int(x * 8)
    return acc


class SpeedProbe:
    """Samples the kernel's duration on a timer while started."""

    def __init__(self):
        self.times: list[float] = []  # sample start times
        self._prefix = [0.0]  # prefix sums of sample durations
        self.stolen = 0.0  # total time spent in the probe
        kernel()  # first call pays one-off costs; keep them out of the samples

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        kernel()
        done = time.perf_counter()
        self.times.append(entered)
        self._prefix.append(self._prefix[-1] + done - entered)
        self.stolen += time.perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time in [start, end].

        An interval with fewer than MIN_SAMPLES samples is widened around
        its middle to that many (or to all of them), so short ops share a
        local average.
        """
        n = len(self.times)
        if n == 0:
            raise RuntimeError("the speed probe took no samples")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        want = min(MIN_SAMPLES, n)
        if hi - lo < want:
            lo = max(0, min((lo + hi - want) // 2, n - want))
            hi = lo + want
        return REFERENCE_S * (hi - lo) / (self._prefix[hi] - self._prefix[lo])

    def samples(self) -> int:
        return len(self.times)
