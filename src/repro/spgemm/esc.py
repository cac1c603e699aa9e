"""Expand–Sort–Compress (ESC) SpGEMM.

ESC (Bell, Dalton & Olson; also the backbone of ``bhsparse``-era GPU
SpGEMM) materializes every intermediate product ``a_ik · b_kj``, sorts the
triples by (column, row), and compresses runs by summation.  It maps onto
pure-NumPy primitives with *no* per-column Python loop, and its stable
expansion order defines the library's canonical summation order.

:func:`spgemm_esc` is the library's numeric engine: the simulated GPU
kernels and the distributed driver use it to produce real numeric results
while the machine model charges the cost of whichever algorithm was
*selected*.  With fast paths enabled it runs the compiled Gustavson
kernel of :mod:`repro.perf.esc`, which sums in the same order; the
faithful :func:`expand_sort_compress` below serves ``REPRO_PERF=0`` and
the blocks where that kernel drops an exact-zero sum.

Complexity: O(flops · log flops) time, O(flops) transient memory — the
memory profile that motivates HipMCL's phased execution in the first place.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf import dispatch
from ..perf.esc import spgemm_esc_fast
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c


def spgemm_esc(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Multiply ``C = A·B`` (both CSC) by expand–sort–compress.

    Output has sorted row indices within each column, duplicates summed,
    and no explicitly-stored zeros introduced by the expansion (exact
    cancellations are kept, matching IEEE summation of the other kernels).
    Routes to the compiled Gustavson kernel (:mod:`repro.perf.esc`) when
    fast paths are enabled — bit-identical output either way.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        return CSCMatrix.empty(shape)
    if dispatch.enabled():
        from ..parallel import work

        # flops <= nnz(A)·nnz(B): small blocks skip the executor lookup.
        if a.nnz * b.nnz >= work.PARALLEL_MIN_FLOPS:
            from ..parallel import get_executor

            ex = get_executor()
            if (
                ex.workers > 1
                and b.ncols >= 2 * ex.workers
                and expansion_size(a, b) >= work.PARALLEL_MIN_FLOPS
            ):
                # Output columns are independent and each sums strictly
                # within itself, so slab-wise fan-out is bit-identical
                # (inside a pool worker get_executor is serial — no
                # nested fan-out).
                return work.parallel_spgemm_columns(ex, "esc", a, b)
        return spgemm_esc_fast(a, b)
    return expand_sort_compress(a, b)


def expand_sort_compress(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """The faithful lexsort ESC body (``REPRO_PERF=0`` and the fallback
    of the compiled kernel for blocks with an exact-zero sum)."""
    shape = (a.nrows, b.ncols)
    a_col_lens = a.column_lengths()
    # Expansion: for every nonzero b_kj, replicate column k of A.
    reps = a_col_lens[b.indices]  # products generated per B-nonzero
    total = int(reps.sum())
    if total == 0:
        return CSCMatrix.empty(shape)

    # Gather offsets into A's arrays for each expanded product: for the
    # p-th B-nonzero we need A.indices[start_p : start_p + reps_p].  Build
    # the flat gather index with the classic cumsum-of-resets trick.
    starts = a.indptr[b.indices]  # first A slot per B-nonzero
    ends = np.cumsum(reps)
    flat = np.arange(total, dtype=np.int64)
    # Subtract the start of each segment, then add A's slice offset.
    seg_origin = np.repeat(ends - reps, reps)
    a_slot = flat - seg_origin + np.repeat(starts, reps)

    rows = a.indices[a_slot]
    prod = a.data[a_slot] * np.repeat(b.data, reps)
    out_col = np.repeat(
        _c.expand_major(b.indptr, b.ncols), reps
    )  # output column = B's column

    # Sort by (column, row) then compress duplicate coordinates.
    order = np.lexsort((rows, out_col))
    rows, prod, out_col = rows[order], prod[order], out_col[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (out_col[1:] != out_col[:-1])
    group_starts = np.flatnonzero(boundary)
    c_rows = rows[group_starts]
    c_cols = out_col[group_starts]
    # Canonical left-to-right summation (see groupsum_ordered): matches
    # the compiled Gustavson fast path bit-for-bit.
    c_vals = _c.groupsum_ordered(prod, boundary)
    indptr = _c.compress_major(c_cols, b.ncols)
    return CSCMatrix(shape, indptr, c_rows, c_vals, check=False)


def expansion_size(a: CSCMatrix, b: CSCMatrix) -> int:
    """Transient triple count ESC would materialize (equals ``flops``)."""
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    return int(a.column_lengths()[b.indices].sum())
