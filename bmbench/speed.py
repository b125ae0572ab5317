"""Host-speed probe: scales measured times to a fixed reference speed.

On a shared 2-core host the speed of this process drifts by about +-20% over
seconds to tens of seconds, with the same drift in CPU time as in wall time,
so no run length averages it away. The probe times a fixed pure-Python
kernel (GF(2) elimination with a dict of pivots, then a sort: the same kinds
of work as the package) right before and after each command, at most every
INTERVAL_S seconds. A command's time is then scaled by

    REFERENCE_S / (mean kernel time of the samples just before and just after it)

which reads in seconds on a host where the kernel takes REFERENCE_S. The
kernel belongs to the benchmark, so a change to the package cannot move it;
a slower package still reads slower by the same share.
"""

from __future__ import annotations

import bisect
import random
import time

#: Typical kernel time on the 2-core x86-64 host the benchmark was tuned on.
REFERENCE_S = 0.004
#: Kernel runs per sample, and the least time between two samples.
REPEATS = 20
INTERVAL_S = 0.3

_RNG = random.Random(12345)
_KEYS = tuple(_RNG.getrandbits(24) | 1 for _ in range(2500))


def _kernel() -> int:
    pivots: dict[int, int] = {}
    for key in _KEYS:
        while key:
            top = key.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = key
                break
            key ^= row
    return len(pivots) + len(sorted((k & 0xFFF, k) for k in _KEYS))


class SpeedProbe:
    """Kernel timings taken between commands, and the scale they give an interval."""

    def __init__(self):
        self._at: list[float] = []  # end time of each sample
        self._took: list[float] = []  # mean kernel time of its repeats

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(REPEATS):
            _kernel()
        self._at.append(time.perf_counter())
        self._took.append((self._at[-1] - start) / REPEATS)

    def maybe_sample(self) -> None:
        if not self._at or time.perf_counter() - self._at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the last sample before
        [start, end], the first after it and any in between."""
        lo = max(bisect.bisect_right(self._at, start) - 1, 0)
        hi = min(bisect.bisect_left(self._at, end), len(self._at) - 1)
        took = self._took[lo:hi + 1]
        return REFERENCE_S * len(took) / sum(took)
