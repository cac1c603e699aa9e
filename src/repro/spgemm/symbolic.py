"""Symbolic SpGEMM: exact output structure without numeric values.

Original HipMCL runs the whole distributed multiplication twice — once
symbolically to size buffers and pick the phase count, once numerically
(§I, §V).  The symbolic pass never materializes C's values but still costs
O(flops), which the paper replaces with the probabilistic estimator of
:mod:`repro.spgemm.estimator`.  This module provides the exact pass, both
as the correctness reference for the estimator and as the "exact" branch
the optimized HipMCL falls back to when cf is small (§VII-D).

The count is column-windowed and sort-free where it can be.  B's columns
are taken ``w = max(1, CELL_LIMIT // nrows)`` at a time and only that
window's products are expanded, so the transient memory follows the
window's flops, not the whole product's.  Each expanded product is a key
``local_col·nrows + row``.  A window whose ``w·nrows`` cells are at most
:data:`WASTE_FACTOR` times its flops scatters the keys into an occupancy
buffer and counts the set cells per column; any other window (sparse, or a
single column taller than :data:`CELL_LIMIT`) sorts the keys in place and
counts the run boundaries.  NumPy's ``unique`` is avoided on purpose: on
NumPy 2 it dedups integer keys by hashing, which on millions of random
keys is tens of times slower than a plain sort.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf.arena import global_arena
from ..perf.esc import DENSE_CELL_LIMIT as CELL_LIMIT
from ..perf.esc import DENSE_WASTE_FACTOR as WASTE_FACTOR
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c


def symbolic_nnz_per_column(a: CSCMatrix, b: CSCMatrix) -> np.ndarray:
    """Exact ``nnz`` of every column of ``A·B`` (no values computed).

    Stored entries count as structure whatever their value, so explicit
    zeros in A or B are counted like any other entry.  Windows of
    ``max(1, CELL_LIMIT // nrows)`` columns are expanded one at a time;
    a dense window counts through the arena's ``symbolic:occupied`` flags
    (reset entry by entry afterwards), a sparse one through an in-place
    sort of its keys.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    counts = np.zeros(b.ncols, dtype=np.int64)
    if a.nnz == 0 or b.nnz == 0:
        return counts
    nrows = a.nrows
    reps = a.column_lengths()[b.indices]
    ends = np.cumsum(reps)
    jump = a.indptr[b.indices] - (ends - reps)
    width = max(1, CELL_LIMIT // nrows)
    for lo in range(0, b.ncols, width):
        hi = min(lo + width, b.ncols)
        s, e = int(b.indptr[lo]), int(b.indptr[hi])
        first = int(ends[s - 1]) if s else 0
        total = (int(ends[e - 1]) if e else 0) - first
        if total == 0:
            continue
        w_reps = reps[s:e]
        # Flop t of the window reads A slot t + first + jump[entry].
        a_slot = np.repeat(jump[s:e] + first, w_reps)
        a_slot += np.arange(total, dtype=np.int64)
        local_col = _c.expand_major(b.indptr[lo:hi + 1] - s, hi - lo)
        key = np.repeat(local_col * np.int64(nrows), w_reps)
        key += a.indices[a_slot]
        del a_slot
        cells = (hi - lo) * nrows
        if cells <= CELL_LIMIT and cells <= WASTE_FACTOR * total:
            flags = global_arena().flags("symbolic:occupied", cells)
            flags[key] = True
            counts[lo:hi] = np.count_nonzero(
                flags.reshape(hi - lo, nrows), axis=1
            )
            flags[key] = False  # restore the all-False invariant
        else:
            key.sort()
            boundary = np.empty(total, dtype=bool)
            boundary[0] = True
            np.not_equal(key[1:], key[:-1], out=boundary[1:])
            counts[lo:hi] = np.bincount(
                key[boundary] // nrows, minlength=hi - lo
            )
    return counts


def symbolic_nnz(a: CSCMatrix, b: CSCMatrix) -> int:
    """Exact total ``nnz(A·B)``."""
    return int(symbolic_nnz_per_column(a, b).sum())


def symbolic_operation_count(a: CSCMatrix, b: CSCMatrix) -> float:
    """Modeled cost of the symbolic pass: O(flops).

    The paper's comparison (Fig. 6 bottom): exact estimation costs
    ``cf · nnz(C) = flops`` while the probabilistic scheme costs
    ``r · (nnz A + nnz B)`` — the crossover in later MCL iterations falls
    out of these two counts.
    """
    from .metrics import flops

    return float(flops(a, b))
