"""Host-speed calibration: a fixed kernel timed next to every request.

The benchmark was defined on a shared two-core host whose speed drifts by
20-50% over seconds to minutes, with nothing else changing: the program,
a pure-Python loop and plain NumPy sorts and gathers all slow down together.
A wall time therefore says as much about the neighbours as about the
program.  The end-to-end times are reported in *reference seconds*: the
wall time, rescaled to a host on which the kernel below takes
``REFERENCE_S``.  The kernel is sampled about once a second: between
set-ups, between short requests, and inside a long clustering from its
``on_iteration`` callback.  Each stretch of wall time between two samples
is divided by the mean of those two samples (giving *cal*, multiples of the
kernel's time), and a request's time in cal is the sum over the stretches
it covers; the kernel's own time is left out.  The kernel does not touch
the program, so a change to the program moves a rescaled time as it moves
the wall time; a change of host speed moves both and cancels.

The kernel mixes the kinds of work the program does: interpreter dispatch
(a pure-Python loop), random gathers (memory latency) and a miniature of the
expand-sort-compress sparse product that dominates the clustering (products
of fixed random pairs, sorted by output key and summed per key).  Over
seven minutes of back-to-back ``isom100-3-xs`` solves, solve time spread
0.12 (IQR over median) as measured, 0.058 over a loop-sort-gather mix,
0.056 over the miniature alone and 0.045 over both; this kernel is both
without the separate sort, which the miniature does.  Its inputs are fixed, independent of the workload seed,
and take ~25 MB, which the peak resident set of a run includes.
"""

from __future__ import annotations

import time

import numpy as np

_now = time.perf_counter


#: Seconds the kernel takes on the reference host (about its median on the
#: two-core host the benchmark was defined on); one cal is this long.
REFERENCE_S = 0.1

#: Least wall seconds between two samples.
INTERVAL_S = 1.0


class Calibration:
    """The calibration kernel and the times it has taken so far."""

    def __init__(self):
        rng = np.random.default_rng(20200518)
        self._table = rng.random(1_000_000)
        self._index = rng.integers(0, self._table.size, 500_000).astype(
            np.int32
        )
        # A 3000 x 3000 sparse operand of 60k entries and 250k products.
        self._rows = rng.integers(0, 3000, 60_000)
        self._cols = rng.integers(0, 3000, 60_000)
        self._vals = rng.random(60_000)
        self._pairs = rng.integers(0, 60_000, (2, 250_000))
        #: ``(start, end)`` perf-counter seconds of every sample.
        self.spans: list[tuple[float, float]] = []
        self._kernel()  # first touch of the arrays

    def _kernel(self) -> int:
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for _ in range(8):
            acc += int(self._table[self._index].sum())
        a, b = self._pairs
        key = self._cols[b] * 3000 + self._rows[a]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        products = (self._vals[a] * self._vals[b])[order]
        acc += int(np.add.reduceat(products, starts).sum())
        return acc

    @property
    def times(self) -> list[float]:
        """Wall seconds of every sample."""
        return [e - s for s, e in self.spans]

    def sample(self, due_only: bool = False) -> None:
        """Run the kernel once; if ``due_only``, only when a sample is due."""
        t0 = _now()
        if due_only and self.spans and t0 - self.spans[-1][1] < INTERVAL_S:
            return
        self._kernel()
        self.spans.append((t0, _now()))

    def tick(self, *_args) -> None:
        """``on_iteration`` callback: a sample when one is due."""
        self.sample(due_only=True)

    def between(self, a: float, b: float) -> tuple[float, float]:
        """``(wall seconds, cal)`` of the window ``[a, b]``, samples left
        out.  Samples must have been taken before ``a`` and after ``b``."""
        if not (self.spans and self.spans[0][1] <= a
                and b <= self.spans[-1][0]):
            raise ValueError("window not bracketed by calibration samples")
        wall = cal = 0.0
        for (s0, e0), (s1, e1) in zip(self.spans, self.spans[1:]):
            overlap = min(b, s1) - max(a, e0)
            if overlap > 0:
                wall += overlap
                cal += overlap / (0.5 * (e0 - s0 + e1 - s1))
        return wall, cal
