"""Compiled Gustavson SpGEMM — the fast numeric twin of ``spgemm_esc``.

``C = A·B`` in CSC is ``Cᵀ = Bᵀ·Aᵀ`` in CSR, so B's ``(indptr, indices,
data)`` is the left CSR operand and A's the right one, with no copy.
scipy's ``csr_matmat`` then runs a column-wise accumulator (Gustavson;
the CPU fallback of Nagasaka/Azad's hash SpGEMM): for output column j it
walks B's column j in storage order and, for each ``b_kj``, adds
``b_kj·a_ik`` for A's column k in storage order into a dense accumulator
that starts at 0.  That is exactly the stable expansion order the
faithful expand–sort–compress sums in, and ``x·y == y·x`` in IEEE
arithmetic, so every sum is bit-identical.

The one difference is that ``csr_matmat`` drops any sum that comes out
exactly 0 (cancellation, a stored zero, an underflowing product), where
ESC keeps the coordinate.  The kernel reports that through its own
counts — fewer entries written than ``csr_matmat_maxnnz``'s structural
bound — and the block is then recomputed by the faithful path.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from ..sparse import CSCMatrix
from ..sparse import _compressed as _c

#: Dense-accumulator sizing rule shared by the merge and the symbolic
#: pass: use a dense ``nrows·ncols`` scratch only while it stays below
#: this cap and within a reasonable multiple of the element count.
DENSE_CELL_LIMIT = 1 << 23
DENSE_WASTE_FACTOR = 32


def spgemm_esc_fast(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """``C = A·B`` bit-identical to the faithful expand–sort–compress."""
    shape = (a.nrows, b.ncols)
    n_out, n_minor = b.ncols, a.nrows
    b_indptr = np.asarray(b.indptr, dtype=_c.INDEX_DTYPE)
    b_indices = np.asarray(b.indices, dtype=_c.INDEX_DTYPE)
    a_indptr = np.asarray(a.indptr, dtype=_c.INDEX_DTYPE)
    a_indices = np.asarray(a.indices, dtype=_c.INDEX_DTYPE)
    maxnnz = _sparsetools.csr_matmat_maxnnz(
        n_out, n_minor, b_indptr, b_indices, a_indptr, a_indices
    )
    if maxnnz == 0:
        return CSCMatrix.empty(shape)
    # Exact-size buffers: sizing them by flops would skip this symbolic
    # pass, but measured +90 MB peak RSS on a 2-thread solve (fragmented
    # malloc arenas).
    indptr = np.empty(n_out + 1, dtype=_c.INDEX_DTYPE)
    indices = np.empty(maxnnz, dtype=_c.INDEX_DTYPE)
    data = np.empty(maxnnz, dtype=_c.VALUE_DTYPE)
    _sparsetools.csr_matmat(
        n_out, n_minor,
        b_indptr, b_indices, b.data,
        a_indptr, a_indices, a.data,
        indptr, indices, data,
    )
    if indptr[-1] < maxnnz:
        # A sum came out exactly 0 and was dropped; ESC keeps it.
        from ..spgemm.esc import expand_sort_compress

        return expand_sort_compress(a, b)
    _sparsetools.csr_sort_indices(n_out, indptr, indices, data)
    return CSCMatrix(shape, indptr, indices, data, check=False)
