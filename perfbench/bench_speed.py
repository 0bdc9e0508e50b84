"""Host-speed sampling for the orbitkit benchmark.

The benchmark runs on a few cores of a shared host whose speed flips
between a fast and a slow state (about 1.8x apart) on scales from tens of
milliseconds to seconds.  CPU time tracks wall time, so the process is not
descheduled; the cores themselves run slower.  Raw op times then spread more
between runs than any bound a regression check could use.

So while ops are timed, a SIGALRM interval timer runs a fixed pure-Python
kernel every ``INTERVAL_S`` and records how long it took.  An op's scaled
time is its wall time, less the sampler's own time inside it, times
``REF_S`` over the kernel's mean time around the op: the op's wall time on a
host where the kernel takes ``REF_S``.  The kernel imports nothing from
orbitkit and does the same kind of work -- exact ``Fraction`` elimination,
tuples, sets -- so a change to orbitkit moves scaled times as it moves raw
ones, while a slow spell of the host moves the op and the kernel alike.
"""

from __future__ import annotations

import array
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import permutations
from time import perf_counter

# about the kernel's time in the fast state of a shared 2-vCPU Xeon host
# under Python 3.11; a fixed constant, so scaled times compare across runs
REF_S = 0.0003
INTERVAL_S = 0.01
# host speed for an op is the mean kernel time over the op widened by this
# much on each side, so that ops shorter than INTERVAL_S still get samples
WINDOW_S = 0.05
MIN_SAMPLES = 3

_MATRIX = [[Fraction((3 * i * i + 7 * j + 1) % 11 - 5, 1 + (i + j) % 4) for j in range(5)]
           for i in range(4)]
_VECTOR = (3, 1, -2, 0)


def kernel() -> tuple[int, int]:
    """Rank of a fixed rational matrix by Gauss-Jordan elimination, and the
    number of distinct rearrangements of a fixed vector."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    seen = {tuple(_VECTOR[i] for i in p) for p in permutations(range(len(_VECTOR)))}
    return r, len(seen)


class SpeedSampler:
    """Times the kernel every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.starts = array.array("d")
        self.durations = array.array("d")

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def own_s(self, t0: float, t1: float) -> float:
        """Seconds the sampler itself ran inside [t0, t1]."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time over [t0 - WINDOW_S, t1 + WINDOW_S], widened to
        the MIN_SAMPLES nearest samples where that window holds fewer."""
        n = len(self.starts)
        if n < MIN_SAMPLES:
            raise ValueError(f"only {n} host-speed samples; the sampler did not run")
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        while hi - lo < MIN_SAMPLES:
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < n:
                hi += 1
        window = self.durations[lo:hi]
        return sum(window) / len(window)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] without the sampler's own time, scaled
        to a host where the kernel takes REF_S."""
        return (t1 - t0 - self.own_s(t0, t1)) * REF_S / self.kernel_s(t0, t1)
