"""Active-layout context: how a planned permutation reaches the kernels.

The driver arms a :class:`~repro.locality.reorder.Reordering` for the
duration of a run; the hash kernel's dense SPA scratch and the slab
partitioner consult :func:`active_layout` and, when one is armed,

* place each row's accumulator at its *layout* slot and walk only the
  column's layout window (``[min slot, max slot]``) when dumping — under
  a community layout the window is the community span, so the dump scans
  hundreds of slots instead of all ``n``;
* cut column slabs at flop-balanced boundaries instead of near-even
  counts, so the hub-heavy slabs a degree/community layout concentrates
  do not serialize one worker.

Neither lever changes a single floating-point operation's order within a
row or a column, so armed runs are bit-identical to unarmed runs.  The
context is a module global, so pool worker threads inherit it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from .reorder import Reordering

_ACTIVE: Optional[Reordering] = None


def active_layout() -> Optional[Reordering]:
    """The armed layout, or ``None`` when layout-aware paths are off."""
    return _ACTIVE


@contextmanager
def use_layout(reordering: Optional[Reordering]):
    """Arm ``reordering`` as the active layout for the dynamic extent.

    ``None`` and identity ("none") plans disarm — kernels take their
    original paths untouched.
    """
    global _ACTIVE
    prev = _ACTIVE
    if reordering is not None and reordering.strategy == "none":
        reordering = None
    _ACTIVE = reordering
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev


def balanced_slab_bounds(weights: np.ndarray, parts: int) -> list:
    """Contiguous column ranges with near-equal cumulative weight.

    The slab fan-out stitches parts back in range order, so the cuts may
    move freely without touching bit-identity — only the per-worker wall
    clock changes.  Falls back to near-even ranges when the weights
    carry no signal.
    """
    n = len(weights)
    parts = max(1, min(parts, n)) if n else 1
    total = float(np.sum(weights)) if n else 0.0
    if n == 0 or parts == 1 or total <= 0.0:
        cuts = np.linspace(0, n, parts + 1).astype(int)
    else:
        cum = np.cumsum(weights, dtype=np.float64)
        targets = total * np.arange(1, parts) / parts
        inner = np.searchsorted(cum, targets, side="left") + 1
        cuts = np.concatenate(([0], inner, [n]))
        np.maximum.accumulate(cuts, out=cuts)
        np.clip(cuts, 0, n, out=cuts)
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(len(cuts) - 1)]


def column_windows(a, layout: Reordering):
    """Per-column ``[min slot, max slot]`` of ``a``'s rows under ``layout``.

    Memoized on ``a`` keyed by the layout token: the iterate serves as
    the A operand for every output column of an expansion, so the span
    table is computed once per (matrix, layout) and shared across the
    whole squaring.  Empty columns get an inverted window ``(n, -1)``.
    """
    from ..perf.cache import memo

    def build():
        slots = layout.position[a.indices]
        n = layout.n
        lo = np.full(a.ncols, n, dtype=np.int64)
        hi = np.full(a.ncols, -1, dtype=np.int64)
        lens = a.column_lengths()
        nonempty = np.flatnonzero(lens)
        if len(nonempty):
            starts = a.indptr[nonempty]
            lo[nonempty] = np.minimum.reduceat(slots, starts)
            hi[nonempty] = np.maximum.reduceat(slots, starts)
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    return memo(a, ("locality:windows", layout.token), build)
