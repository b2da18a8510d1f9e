"""Machine-speed probe: times a small fixed pure-Python kernel from a timer
signal while the benchmark runs, so op times can be put at one nominal
machine speed.

On a shared 2-vCPU VM the same op can take up to twice as long for tens
of seconds at a time, which no length of run averages away.  The kernel
mixes the program's kinds of work (exact rational row operations, a BFS
over tuple-keyed dicts, per-layer dict rebuilds), so it slows down
together with the ops.  An op's normalized time is its measured time,
less the probe's own time inside it, times NOMINAL_S over the median
kernel time seen around the op.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.25  # kernel samples this close to an op describe its speed
NOMINAL_S = 4.0e-4  # kernel time on an uncontended vCPU of the 2-vCPU VM used


def kernel() -> int:
    rows = [[Fraction(i * 7 + j + (10 if i == j else 1), j + 3) for j in range(6)] for i in range(3)]
    for r in range(3):
        inv = 1 / rows[r][r]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(3):
            if i != r and rows[i][r]:
                f = rows[i][r]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    depth, k = 12, 3
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        layer, color = cur = queue.popleft()
        for j in (layer - 1, layer, layer + 1):
            for c in range(k):
                nb = (j, c)
                if 0 <= j < depth and c != color and nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
    layers = [{c: (i * c) % 5 + 1 for c in range(k) if (i + c) % 4} for i in range(depth)]
    snap = tuple(tuple(sorted(layer.items())) for layer in layers)
    return len(snap) + max(dist.values()) + rows[0][-1].denominator


class Probe:
    """Samples kernel() every INTERVAL_S while entered.  `spent` is the
    probe's running total of its own time, to subtract from op times."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample start
        self.costs: list[float] = []  # kernel seconds
        self.spent = 0.0

    def _tick(self, signum: int, frame: object) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append(start)
        self.costs.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed sample near the interval; is SIGALRM blocked?")
        return NOMINAL_S / statistics.median(self.costs[lo:hi])
