"""Parallel SpKAdd: column-partitioned k-way addition of triple lists.

Hussain/Abhishek/Buluç (arXiv:2112.10223) frame the summation of SUMMA's
per-stage partial products as *SpKAdd* — sparse addition of k matrices —
and show that purpose-built tree and hash variants beat repeated pairwise
merges in both time and peak memory.  This module provides both, each
split over disjoint column ranges so the partitions can run on executor
workers independently:

* **tree** — each partition pairwise-merges its k sorted key slices with
  a vectorized stable two-way merge (ties resolve left-operand-first and
  the odd list carries at the *end* of each round), keeping duplicate
  coordinates uncollapsed until one final left-to-right group sum.  The
  resulting permutation is exactly the stable lexsort of the
  concatenation, so values are summed in concatenation order — bit
  identical to :func:`~repro.merge.lists.merge_lists`.
* **hash** — each partition scatters flat keys ``col·nrows + row`` into a
  dense accumulator offset by ``lo·nrows`` (``np.bincount`` accumulates
  in input order, again matching concatenation order).  Falls back to a
  stable argsort when the range is too wide for a dense table.

Bit-identity of the column split itself: partitions are disjoint column
ranges, a stable lexsort of a column-restricted subsequence equals the
restriction of the global stable lexsort, and no coordinate run spans two
ranges — so concatenating the per-range results in range order *is* the
global result, whatever strategy ran inside each range.

Strategy selection (the ``auto`` impl) and the memory model live in
:func:`strategy_peak_bytes` / ``repro.summa.phases.plan_merge_strategy``;
the ladder mirrors the kernel-demotion ladder: hash is fastest but
hungriest, tree is in between, serial is the floor.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ShapeError
from ..perf import dispatch
from ..perf.merge import merge_keyed_range_fast, range_dense_eligible
from ..sparse import _compressed as _c
from ..trace import maybe_span
from .lists import BYTES_PER_TRIPLE, TripleList, merge_lists

#: The ``merge_impl`` knob's vocabulary (mirrors the backend knob).
MERGE_IMPLS = ("serial", "tree", "hash", "auto")

#: Wall-clock strategies ordered most- to least-memory-hungry; the budget
#: demotion and the fault-recovery ladder walk *down* this tuple.
STRATEGY_LADDER = ("hash", "tree", "serial")

#: Below this many total input elements ``auto`` plans "serial": the
#: partition/fan-out bookkeeping costs more than the merge itself, and the
#: threshold is a pure function of the input so planning stays identical
#: across worker counts.
SPKADD_MIN_ELEMENTS = 4096

#: Below this many total input elements the engine keeps a planned
#: tree/hash merge inline rather than fanning partitions to the executor.
MERGE_FANOUT_MIN_ELEMENTS = 1 << 14


def resolve_merge_impl(merge_impl=None) -> str:
    """Resolve the merge impl: explicit > ``REPRO_MERGE_IMPL`` > auto."""
    if merge_impl is None:
        merge_impl = os.environ.get("REPRO_MERGE_IMPL", "").strip() or "auto"
    merge_impl = str(merge_impl).lower()
    if merge_impl not in MERGE_IMPLS:
        raise ValueError(
            f"unknown merge impl {merge_impl!r}; options: {list(MERGE_IMPLS)}"
        )
    return merge_impl


def strategy_peak_bytes(strategy: str, total_elements: int, shape) -> int:
    """Modeled peak merge memory of one strategy on ``total_elements``.

    * serial — concatenation plus the sorted copy: ``2n`` triples.
    * tree — concatenated key/value slices plus one merged generation in
      flight: ``3n`` triples.
    * hash — the concatenation plus the dense accumulator (8-byte sum +
      1-byte occupancy flag per cell), the Table III-style price of the
      scatter table.
    """
    n = int(total_elements)
    if strategy == "serial":
        return 2 * n * BYTES_PER_TRIPLE
    if strategy == "tree":
        return 3 * n * BYTES_PER_TRIPLE
    if strategy == "hash":
        nrows, ncols = shape
        return n * BYTES_PER_TRIPLE + int(nrows) * int(ncols) * 9
    raise ValueError(
        f"unknown merge strategy {strategy!r}; options: {list(STRATEGY_LADDER)}"
    )


def partition_bounds(ncols: int, parts: int) -> list[tuple[int, int]]:
    """Disjoint column ranges covering [0, ncols) — the same near-even
    splitter the prune fan-out slabs block columns with."""
    from ..parallel.work import _slab_bounds

    return _slab_bounds(ncols, parts)


def _stable_merge_pair(ka, va, kb, vb):
    """Stable two-way merge of sorted key arrays, duplicates kept.

    ``searchsorted(side='left')`` places every a-element before any equal
    b-element, and the added arange keeps each operand's internal order —
    together the positions are exactly the stable-merge permutation.
    """
    pos_a = np.searchsorted(kb, ka, side="left")
    pos_a += np.arange(len(ka), dtype=np.int64)
    pos_b = np.searchsorted(ka, kb, side="right")
    pos_b += np.arange(len(kb), dtype=np.int64)
    keys = np.empty(len(ka) + len(kb), dtype=np.int64)
    vals = np.empty(len(ka) + len(kb), dtype=va.dtype)
    keys[pos_a] = ka
    keys[pos_b] = kb
    vals[pos_a] = va
    vals[pos_b] = vb
    return keys, vals


def _tree_merge(keys: list, vals: list):
    """Merge k sorted key arrays into one, duplicates uncollapsed.

    Adjacent pairs merge each round with the odd list carried at the end,
    so the final order of equal keys is list order — the stable lexsort
    of the concatenation, reproduced without ever sorting.
    """
    while len(keys) > 1:
        nk, nv = [], []
        for i in range(0, len(keys) - 1, 2):
            k, v = _stable_merge_pair(keys[i], vals[i], keys[i + 1], vals[i + 1])
            nk.append(k)
            nv.append(v)
        if len(keys) % 2:
            nk.append(keys[-1])
            nv.append(vals[-1])
        keys, vals = nk, nv
    return keys[0], vals[0]


def _collapse_sorted(key, vals, nrows):
    """Group-sum a key-sorted stream: the canonical run accumulation."""
    n = len(key)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    out_vals = _c.groupsum_ordered(vals, boundary)
    out_cols, out_rows = np.divmod(key[starts], np.int64(nrows))
    return out_cols, out_rows, out_vals


def merge_range(strategy, shape, lo, hi, lists):
    """Merge the column range [lo, hi) of ``lists``.

    Returns ``(cols, rows, vals, n_in)`` where ``n_in`` is the number of
    input elements that fell inside the range (the partition's share of
    the merge, for peak accounting).
    """
    nrows = shape[0]
    keys, vals = [], []
    n_in = 0
    for t in lists:
        a, b = np.searchsorted(t.cols, (lo, hi))
        if a == b:
            continue
        k = t.cols[a:b] * np.int64(nrows)
        k += t.rows[a:b]
        keys.append(k)
        vals.append(t.vals[a:b])
        n_in += int(b - a)
    if not keys:
        empty_i = np.empty(0, dtype=_c.INDEX_DTYPE)
        return empty_i, empty_i.copy(), np.empty(0, dtype=_c.VALUE_DTYPE), 0
    if strategy == "tree":
        key, val = _tree_merge(keys, vals)
        cols, rows, out = _collapse_sorted(key, val, nrows)
        return cols, rows, out, n_in
    if strategy == "hash":
        key = np.concatenate(keys)
        val = np.concatenate(vals)
        if dispatch.enabled() and range_dense_eligible(nrows, lo, hi, len(key)):
            cols, rows, out = merge_keyed_range_fast(key, val, nrows, lo, hi)
            return cols, rows, out, n_in
        order = np.argsort(key, kind="stable")
        cols, rows, out = _collapse_sorted(key[order], val[order], nrows)
        return cols, rows, out, n_in
    raise ValueError(
        f"merge_range strategy must be 'tree' or 'hash', got {strategy!r}"
    )


def spkadd_merge(lists, *, strategy="tree", executor=None, parts=None,
                 stats=None) -> TripleList:
    """Column-partitioned SpKAdd, bit-identical to :func:`merge_lists`.

    ``executor=None`` (or a single-worker executor) merges the partitions
    inline; otherwise each partition becomes one ``submit_batch`` task so
    the merge runs on the pool's worker lanes.  ``parts`` defaults to the
    executor's worker count (1 inline), clamped to the column count.
    ``stats``, when a dict, receives ``parts`` and
    ``peak_partition_elements`` (the largest partition's input share).
    """
    if not lists:
        raise ValueError("spkadd_merge needs at least one (possibly empty) list")
    shape = lists[0].shape
    for t in lists:
        if t.shape != shape:
            raise ShapeError(f"block shape mismatch: {t.shape} vs {shape}")
    live = [t for t in lists if len(t)]
    total = sum(len(t) for t in live)
    if stats is not None:
        stats.setdefault("parts", 1)
        stats.setdefault("peak_partition_elements", total)
    if strategy == "serial" or len(live) <= 1:
        return merge_lists(lists, copy=False)
    if strategy not in STRATEGY_LADDER:
        raise ValueError(
            f"unknown merge strategy {strategy!r}; "
            f"options: {list(STRATEGY_LADDER)}"
        )
    workers = getattr(executor, "workers", 1) if executor is not None else 1
    if parts is None:
        parts = workers
    parts = max(1, min(int(parts), shape[1]))
    bounds = partition_bounds(shape[1], parts)
    with maybe_span(
        "merge.partition", "merge",
        strategy=strategy, parts=parts, elements=total,
    ):
        if executor is not None and workers > 1 and parts > 1:
            from ..parallel.work import merge_partition

            handle = executor.submit_batch(
                merge_partition,
                [(strategy, shape, lo, hi, live) for lo, hi in bounds],
                label="merge_partition",
                attrs={"strategy": strategy, "parts": parts},
            )
            pieces = handle.result()
        else:
            pieces = [
                merge_range(strategy, shape, lo, hi, live)
                for lo, hi in bounds
            ]
    if stats is not None:
        stats["parts"] = parts
        stats["peak_partition_elements"] = max(
            (p[3] for p in pieces), default=0
        )
    cols = np.concatenate([p[0] for p in pieces])
    rows = np.concatenate([p[1] for p in pieces])
    vals = np.concatenate([p[2] for p in pieces])
    return TripleList(shape, cols, rows, vals)
