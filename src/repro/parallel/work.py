"""The work units the executor fans out.

Every function here is a *pure* top-level function of real matrices: no
fault-injection draws, no simulated-clock access, no global accumulation.
That purity is what lets the engine run them on any worker thread and
still guarantee bit-identical results — all modeled accounting happens
afterwards, serially, in the caller.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSCMatrix, hstack_csc

#: Below this many flops a one-shot SpGEMM beats any fan-out: the
#: per-batch dispatch and slab stitching would dominate.
PARALLEL_MIN_FLOPS = 1 << 21

#: Flop-equivalent fixed cost charged per column when the locality layout
#: asks for flop-balanced slab cuts (≈ two dict-threshold columns).
PER_COLUMN_OVERHEAD_FLOPS = 256


def local_multiply(a: CSCMatrix, b: CSCMatrix):
    """One SUMMA-stage local product: ``(A_ik · B_kj, per-column flops)``.

    Exactly the two numeric quantities the engine's accounting pass needs
    per ``(i, j)`` block — the pass itself (kernel selection, clock
    charges, fault draws, merge events) stays in the parent.
    """
    from ..spgemm.esc import spgemm_esc
    from ..summa.engine import _per_column_flops

    product = spgemm_esc(a, b)
    per_col = _per_column_flops(a.column_lengths(), b)
    return product, per_col


def merge_partition(strategy: str, shape, lo: int, hi: int, lists):
    """One SpKAdd column partition: merge [lo, hi) of the triple lists.

    Returns the raw ``(cols, rows, vals, n_in)`` arrays — the parent
    concatenates partitions in range order, which is bit-identical to the
    serial merge (disjoint column ranges never share a coordinate run).
    """
    from ..merge.spkadd import merge_range

    return merge_range(strategy, shape, lo, hi, lists)


def prune_block_column(blocks: list, options):
    """Prune one processor column's blocks with the §II protocol."""
    from ..mcl.distributed_prune import distributed_prune_block_column

    return distributed_prune_block_column(blocks, options)


def spgemm_slab(kind: str, a: CSCMatrix, b_slab: CSCMatrix) -> CSCMatrix:
    """One column slab of ``A·B`` under the named kernel family."""
    if kind == "esc":
        from ..spgemm.esc import spgemm_esc

        return spgemm_esc(a, b_slab)
    if kind == "hash":
        from ..spgemm.hashspgemm import spgemm_hash

        return spgemm_hash(a, b_slab)
    raise ValueError(f"unknown slab kernel {kind!r}")


def parallel_spgemm_columns(
    executor, kind: str, a: CSCMatrix, b: CSCMatrix
) -> CSCMatrix:
    """``A·B`` by fanning near-even column slabs of B across the executor.

    Output columns of an SpGEMM are independent, and both kernel families
    accumulate strictly within a column, so stitching the slab products
    back together in slab order is bit-identical to the one-shot call.

    When a locality layout is armed the cuts move to flop-balanced
    positions (degree/community orderings concentrate hub columns, which
    would serialize one worker under near-even cuts); the ranges stay
    contiguous and stitch in the same order, so only the per-worker wall
    clock changes.
    """
    w = executor.workers
    from ..locality.layout import active_layout

    if active_layout() is not None:
        from ..locality.layout import balanced_slab_bounds

        per_entry = a.column_lengths()[b.indices]
        per_col = np.zeros(b.ncols, dtype=np.int64)
        lens = b.column_lengths()
        nonempty = np.flatnonzero(lens)
        if len(nonempty):
            per_col[nonempty] = np.add.reduceat(
                per_entry, b.indptr[nonempty]
            )
        # The constant models the per-column fixed cost (slice loop, dict
        # setup) so a slab of many skinny columns is not mistaken for
        # free; without it the balancer starves one worker on hub-heavy
        # orderings and overloads it on uniform ones.
        bounds = balanced_slab_bounds(per_col + PER_COLUMN_OVERHEAD_FLOPS, w)
    else:
        bounds = _slab_bounds(b.ncols, w)
    slabs = [
        (kind, a, b.column_slab(lo, hi)) for lo, hi in bounds if hi > lo
    ]
    parts = executor.run_batch(spgemm_slab, slabs)
    return hstack_csc(parts)


def _slab_bounds(ncols: int, parts: int) -> list[tuple[int, int]]:
    """Near-even column ranges, one per requested part."""
    parts = max(1, min(parts, ncols))
    cuts = np.linspace(0, ncols, parts + 1).astype(int)
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(parts)]


def probe_state():
    """Report the worker-side global state (tests / diagnostics)."""
    import os
    import threading

    from .executor import get_executor, in_worker

    return {
        "pid": os.getpid(),
        "thread": threading.get_ident(),
        "in_worker": in_worker(),
        "nested_executor": type(
            get_executor(4, backend="thread")
        ).__name__,
    }
