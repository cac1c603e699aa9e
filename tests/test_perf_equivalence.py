"""Property tests: every fast path is bit-identical to its faithful twin.

The fast kernels in :mod:`repro.perf` promise *bit* equality, not just
``allclose`` — floating-point group sums are canonicalized to the same
left-to-right order in both paths.  These tests flip the dispatch flag on
identical inputs (including signed values, so cancellation is stressed)
and compare the float results through their uint64 bit patterns.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.merge.lists import TripleList, merge_lists
from repro.mcl.components import connected_components
from repro.mcl.distributed_prune import distributed_topk_threshold
from repro.mcl.options import MclOptions
from repro.mcl.prune import prune_columns
from repro.perf import fast_paths
from repro.sparse import CSCMatrix, csc_from_triples
from repro.spgemm.esc import spgemm_esc
from repro.spgemm.estimator import estimate_nnz
from repro.spgemm.hashspgemm import spgemm_hash


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Float arrays equal down to the bit pattern (NaN-safe, ±0-strict)."""
    return len(a) == len(b) and bool(
        np.array_equal(
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64),
        )
    )


def assert_same_csc(fast, slow):
    assert fast.shape == slow.shape
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)
    assert bits_equal(fast.data, slow.data)


@st.composite
def signed_matrices(draw, max_dim=20, square=False):
    """Sparse matrices with signed values and duplicate coordinates."""
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, 2 * max(nrows, ncols)))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(
                min_value=-100.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=nnz, max_size=nnz,
        )
    )
    return csc_from_triples((nrows, ncols), rows, cols, vals)


@st.composite
def multipliable_pairs(draw, max_dim=18):
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    a = draw(signed_matrices(max_dim=max_dim))
    b = draw(signed_matrices(max_dim=max_dim))
    # Reshape by rebuilding with the drawn inner dimension.
    a = csc_from_triples(
        (m, k), a.indices % m,
        np.repeat(np.arange(a.ncols), np.diff(a.indptr)) % k, a.data,
    )
    b = csc_from_triples(
        (k, n), b.indices % k,
        np.repeat(np.arange(b.ncols), np.diff(b.indptr)) % n, b.data,
    )
    return a, b


# Blocks whose exact-zero sums the compiled kernel drops (so ESC's kept
# coordinate must come from the faithful fallback), plus B columns with
# unsorted and duplicate row indices.
CANCELLATION = (
    CSCMatrix((1, 2), [0, 1, 2], [0, 0], [1.0, 1.0]),
    CSCMatrix((2, 1), [0, 2], [0, 1], [1.0, -1.0]),
)
STORED_ZERO = (
    CSCMatrix((2, 2), [0, 2, 3], [0, 1, 1], [0.0, 3.0, 1.0]),
    CSCMatrix((2, 1), [0, 2], [0, 1], [2.0, 0.5]),
)
UNDERFLOW = (
    CSCMatrix((1, 1), [0, 1], [0], [1e-200]),
    CSCMatrix((1, 1), [0, 1], [0], [1e-200]),
)
UNSORTED_DUPLICATE_B = (
    CSCMatrix(
        (3, 3), [0, 2, 3, 5], [2, 0, 1, 0, 2], [0.5, -1.5, 2.0, 3.0, 0.25]
    ),
    CSCMatrix(
        (3, 2), [0, 3, 5], [2, 0, 2, 1, 1], [1.5, -2.0, 0.25, 4.0, -1.0]
    ),
)
DUPLICATE_B_CANCELS = (
    CSCMatrix((2, 2), [0, 1, 2], [1, 0], [2.0, 7.0]),
    CSCMatrix((2, 1), [0, 2], [0, 0], [1.0, -1.0]),
)


def fallback_examples(test):
    for pair in (
        CANCELLATION, STORED_ZERO, UNDERFLOW, UNSORTED_DUPLICATE_B,
        DUPLICATE_B_CANCELS,
    ):
        test = example(pair)(test)
    return test


@fallback_examples
@given(multipliable_pairs())
@settings(max_examples=80, deadline=None)
def test_esc_fast_bit_identical(pair):
    a, b = pair
    with fast_paths(False):
        slow = spgemm_esc(a, b)
    with fast_paths(True):
        fast = spgemm_esc(a, b)
    assert_same_csc(fast, slow)


@given(multipliable_pairs())
@settings(max_examples=60, deadline=None)
def test_hash_spa_bit_identical(pair):
    a, b = pair
    with fast_paths(False):
        slow = spgemm_hash(a, b)
    with fast_paths(True):
        fast = spgemm_hash(a, b)
    assert_same_csc(fast, slow)


@fallback_examples
@given(multipliable_pairs())
@settings(max_examples=60, deadline=None)
def test_heap_fast_bit_identical(pair):
    # The heap kernel's fast twin is the sorted-A ESC fast path: the heap
    # pops in (row, cursor) order, which is exactly ESC's stable
    # expansion order, so the per-entry summation order coincides.
    from repro.spgemm.heap import spgemm_heap

    a, b = pair
    with fast_paths(False):
        slow = spgemm_heap(a, b)
    with fast_paths(True):
        fast = spgemm_heap(a, b)
    assert_same_csc(fast, slow)


@given(signed_matrices(max_dim=24))
@settings(max_examples=60, deadline=None)
def test_dcsc_conversion_fast_bit_identical(mat):
    from repro.sparse import DCSCMatrix

    with fast_paths(False):
        slow = DCSCMatrix.from_csc(mat)
    with fast_paths(True):
        fast = DCSCMatrix.from_csc(mat)
        assert DCSCMatrix.from_csc(mat) is fast  # memoized on the source
    assert fast.shape == slow.shape
    assert np.array_equal(fast.jc, slow.jc)
    assert np.array_equal(fast.cp, slow.cp)
    assert np.array_equal(fast.ir, slow.ir)
    assert bits_equal(fast.num, slow.num)
    # Zero-copy direction: the fast twin shares the O(nnz) arrays.
    assert fast.ir is mat.indices and fast.num is mat.data
    assert slow.ir is not mat.indices


def test_hash_spa_path_actually_engages():
    # Dense enough that column flops exceed SPA_FLOPS_THRESHOLD.
    from repro.sparse import random_csc
    from repro.spgemm.hashspgemm import SPA_FLOPS_THRESHOLD

    a = random_csc((300, 300), 0.05, seed=3)
    assert int(a.column_lengths().sum()) > SPA_FLOPS_THRESHOLD
    with fast_paths(False):
        slow = spgemm_hash(a, a)
    with fast_paths(True):
        fast = spgemm_hash(a, a)
    assert_same_csc(fast, slow)


def test_compiled_esc_actually_engages(monkeypatch):
    # A positive MCL-like block has no exact-zero sum, so the compiled
    # kernel's result is returned without the fallback.
    import repro.spgemm.esc as esc_mod
    from repro.sparse import random_csc

    a = random_csc((400, 400), 0.03, seed=5)
    with fast_paths(False):
        slow = spgemm_esc(a, a)

    def forbidden(*args):
        raise AssertionError("faithful ESC ran on a block without zeros")

    monkeypatch.setattr(esc_mod, "expand_sort_compress", forbidden)
    with fast_paths(True):
        fast = spgemm_esc(a, a)
    assert slow.nnz > 0
    assert_same_csc(fast, slow)


@given(st.lists(signed_matrices(max_dim=14), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_merge_fast_bit_identical(mats):
    shape = mats[0].shape
    lists_a = [
        TripleList.from_csc(
            csc_from_triples(
                shape,
                m.indices % shape[0],
                np.repeat(np.arange(m.ncols), np.diff(m.indptr)) % shape[1],
                m.data,
            )
        )
        for m in mats
    ]
    lists_b = [
        TripleList(t.shape, t.cols.copy(), t.rows.copy(), t.vals.copy())
        for t in lists_a
    ]
    with fast_paths(False):
        slow = merge_lists(lists_a)
    with fast_paths(True):
        fast = merge_lists(lists_b)
    assert fast.shape == slow.shape
    assert np.array_equal(fast.cols, slow.cols)
    assert np.array_equal(fast.rows, slow.rows)
    assert bits_equal(fast.vals, slow.vals)


@given(
    signed_matrices(max_dim=20),
    st.integers(1, 6),
    st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_prune_fast_matches_reference(mat, select, recover):
    # Prune operates on non-negative flow matrices.
    mat = csc_from_triples(
        mat.shape,
        mat.indices,
        np.repeat(np.arange(mat.ncols), np.diff(mat.indptr)),
        np.abs(mat.data),
    )
    opts = MclOptions(
        select_number=select,
        recover_number=min(recover, select),  # validated: recover <= select
        prune_threshold=1e-3,
    )
    with fast_paths(False):
        slow, stats_slow = prune_columns(mat, opts)
    with fast_paths(True):
        fast, stats_fast = prune_columns(mat, opts)
    assert_same_csc(fast, slow)
    assert stats_fast == stats_slow


@given(signed_matrices(max_dim=24, square=True))
@settings(max_examples=80, deadline=None)
def test_components_fast_matches_union_find(mat):
    with fast_paths(False):
        slow = connected_components(mat)
    with fast_paths(True):
        fast = connected_components(mat)
    assert np.array_equal(fast, slow)


@given(
    st.lists(signed_matrices(max_dim=16), min_size=1, max_size=4),
    st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_distributed_topk_fast_matches(mats, k):
    ncols = mats[0].ncols
    blocks = [
        csc_from_triples(
            (m.nrows, ncols),
            m.indices,
            np.repeat(np.arange(m.ncols), np.diff(m.indptr)) % ncols,
            np.abs(m.data),
        )
        for m in mats
    ]
    with fast_paths(False):
        slow = distributed_topk_threshold(blocks, k)
    with fast_paths(True):
        fast = distributed_topk_threshold(blocks, k)
    assert bits_equal(fast, slow)


@given(multipliable_pairs(), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_estimator_fixed_seed_identical(pair, keys):
    a, b = pair
    with fast_paths(False):
        slow = estimate_nnz(a, b, keys=keys, seed=42)
    with fast_paths(True):
        fast = estimate_nnz(a, b, keys=keys, seed=42)
    assert bits_equal(fast.per_column, slow.per_column)
    assert fast.total == slow.total
    assert fast.operations == slow.operations
