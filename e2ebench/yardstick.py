"""Host-speed yardstick: report times at a fixed reference speed of the host.

On a shared host the same work runs up to ~1.3x faster or slower from one
minute to the next as neighbours come and go, and a run's medians drift
with it: ten 35 s runs of a serial fleet spread 17.6 % (quartile distance
over median) while the program did not change.  So between measured steps,
never during one, a run times a fixed yardstick kernel made of the kinds of
work the program does: interpreter loops over dicts, random numbers,
elementwise numpy, a sort, small FFTs and a matrix product.  Its timings
follow the program's (run medians correlated 0.92 with the fleet's and
0.95 with map views'), and each set-up and operation is reported multiplied
by ``REFERENCE_S / median(samples within WINDOW_S of its midpoint)``: what it
would have taken on a host where the yardstick takes :data:`REFERENCE_S`.
That took the fleet's ten-run spread to 8.5 % and map views' from 10.2 % to
4.4 %.

The kernel is the benchmark's own code and shares no data with the program,
and it allocates no large array after the yardstick is built, so the
program's memory use cannot change its speed: a change to the program moves
scaled times as much as raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Yardstick seconds at the reference speed: about its median on a 2-vCPU
#: Xeon host.
REFERENCE_S = 0.035
#: Kernel runs per sample; a sample is their median.
REPEATS = 3
#: Least seconds between two samples taken between steps.
INTERVAL_S = 1.0
#: A set-up or operation is scaled by the samples taken within this many
#: seconds of its midpoint: long enough for a map view to have ~20, short
#: enough to follow the host from one 5 s fleet to the next.
WINDOW_S = 10.0


class Yardstick:
    """Yardstick samples of one run, and the scale factors they give."""

    def __init__(self) -> None:
        #: (perf_counter when taken, kernel seconds)
        self.samples: list[tuple[float, float]] = []
        n = 500_000
        self._values = np.empty(n)
        self._work = np.empty(n)
        self._scratch = np.empty(n)
        self._image = np.random.default_rng(1).random((64, 256))
        self._matrix = np.random.default_rng(2).random((200, 200))
        self._product = np.empty((200, 200))

    def _kernel(self) -> float:
        """Seconds for one fixed piece of interpreter and numpy work."""
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        np.random.default_rng(0).standard_normal(out=self._values)
        np.sin(self._values, out=self._work)
        np.multiply(self._values, 2.0, out=self._scratch)
        np.add(self._work, self._scratch, out=self._work)
        np.copyto(self._scratch, self._work)
        self._scratch.sort()
        np.cumsum(self._work, out=self._scratch)
        for _ in range(8):
            np.fft.rfft2(self._image)
        np.matmul(self._matrix, self._matrix, out=self._product)
        return time.perf_counter() - start

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless the last sample is under INTERVAL_S old."""
        now = time.perf_counter()
        if not force and self.samples and now - self.samples[-1][0] < INTERVAL_S:
            return
        kernel_s = statistics.median(self._kernel() for _ in range(REPEATS))
        self.samples.append((time.perf_counter(), kernel_s))

    def median_s(self) -> float:
        """Median kernel seconds over the run."""
        return statistics.median(s for _, s in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over ``[start, end]``
        (perf_counter seconds) into reference-speed time."""
        mid = (start + end) / 2
        near = [s for t, s in self.samples if abs(t - mid) <= WINDOW_S]
        return REFERENCE_S / (statistics.median(near) if near else self.median_s())
