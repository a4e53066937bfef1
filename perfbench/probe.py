"""Speed probe: how fast the current core runs Python while an op runs.

On a shared 2-core KVM guest (Intel Xeon), the same op takes from 1.0 to
1.8 times as long from one minute to the next, as other guests load the
host, and longer runs do not average that away.  While an op runs, a timer
signal runs a fixed snippet every ``INTERVAL_S`` seconds (more often during
the short set-up).  The snippet's mean time over ``REFERENCE_S`` is the
slowdown the op suffered, and the op's wall time divided by it is its time
at the reference speed.  The snippet takes about 0.1 ms, so probing costs
under 1 % of an op, and its own time is taken off the op's.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02

#: Snippet time on an uncontended core of that machine; it sets the unit of
#: the reference-speed seconds.
REFERENCE_S = 85e-6

# A sample this many times the median was cut off by the scheduler mid-snippet.
_PREEMPTED = 3.0


def snippet() -> int:
    x, counts = 12345, {}
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        counts[x & 63] = counts.get(x & 63, 0) + 1
    return len(counts)


class SpeedProbe:
    """Context manager sampling the snippet's time on SIGALRM."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def probe_s(self) -> float:
        """Time spent in the probe itself."""
        return sum(self.samples)

    @property
    def slowdown(self) -> float:
        """Mean snippet time over REFERENCE_S; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        cut = _PREEMPTED * statistics.median(self.samples)
        return statistics.fmean(s for s in self.samples if s <= cut) / REFERENCE_S
