"""Property-based tests: every SpGEMM kernel equals the dense product."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import spgemm_bhsparse, spgemm_nsparse, spgemm_rmerge2
from repro.perf.arena import global_arena
from repro.sparse import CSCMatrix, csc_from_triples, random_csc
from repro.spgemm import (
    flops,
    spgemm_esc,
    spgemm_hash,
    spgemm_heap,
    spgemm_spa,
    symbolic_nnz,
    symbolic_nnz_per_column,
)
from repro.spgemm import symbolic as symbolic_mod


@st.composite
def multiplication_instances(draw):
    m = draw(st.integers(1, 14))
    k = draw(st.integers(1, 14))
    n = draw(st.integers(1, 14))

    def mat(nrows, ncols):
        nnz = draw(st.integers(0, nrows * ncols))
        rows = draw(
            st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
        )
        cols = draw(
            st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
        )
        vals = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=nnz, max_size=nnz,
            )
        )
        return csc_from_triples((nrows, ncols), rows, cols, vals)

    return mat(m, k), mat(k, n)


KERNELS = [
    spgemm_esc,
    spgemm_heap,
    spgemm_hash,
    spgemm_spa,
    spgemm_bhsparse,
    spgemm_nsparse,
    spgemm_rmerge2,
]


@given(multiplication_instances())
@settings(max_examples=50, deadline=None)
def test_all_kernels_match_dense(instance):
    a, b = instance
    expected = a.to_dense() @ b.to_dense()
    for fn in KERNELS:
        got = fn(a, b).to_dense()
        assert np.allclose(got, expected, atol=1e-9), fn.__name__


@given(multiplication_instances())
@settings(max_examples=50, deadline=None)
def test_symbolic_counts_product_pattern(instance):
    a, b = instance
    # Pattern of the dense product (positive values cannot cancel).
    pattern_nnz = int(
        (((a.to_dense() != 0) @ (b.to_dense() != 0)) != 0).sum()
    )
    assert symbolic_nnz(a, b) == pattern_nnz


@given(multiplication_instances())
@settings(max_examples=50, deadline=None)
def test_flops_bounds_output(instance):
    a, b = instance
    f = flops(a, b)
    c_nnz = symbolic_nnz(a, b)
    assert c_nnz <= f  # each output entry needs at least one flop
    assert f <= a.nnz * b.nnz + 1


@given(multiplication_instances())
@settings(max_examples=30, deadline=None)
def test_kernels_agree_on_pattern_exactly(instance):
    a, b = instance
    ref = spgemm_esc(a, b)
    for fn in (spgemm_heap, spgemm_hash, spgemm_nsparse, spgemm_rmerge2):
        other = fn(a, b)
        assert np.array_equal(other.indptr, ref.indptr), fn.__name__
        assert np.array_equal(other.indices, ref.indices), fn.__name__


# -- the column-windowed exact symbolic pass ---------------------------------


@st.composite
def structural_instances(draw):
    """(A, B) with explicit zeros, unsummed duplicates, empty rows/columns."""
    m = draw(st.integers(0, 16))
    k = draw(st.integers(0, 16))
    n = draw(st.integers(0, 16))

    def mat(nrows, ncols):
        if nrows == 0 or ncols == 0:
            return CSCMatrix.empty((nrows, ncols))
        density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
        nnz = draw(st.integers(0, int(density * nrows * ncols)))
        rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz,
                             max_size=nnz))
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz,
                             max_size=nnz))
        vals = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]),
                             min_size=nnz, max_size=nnz))
        return csc_from_triples((nrows, ncols), rows, cols, vals,
                                sum_dup=False)

    return mat(m, k), mat(k, n), draw(st.integers(1, 80))


def _pattern(mat):
    dense = np.zeros(mat.shape, dtype=np.int64)
    cols = np.repeat(np.arange(mat.ncols), np.diff(mat.indptr))
    dense[mat.indices, cols] = 1
    return dense


def _pattern_counts(a, b):
    return ((_pattern(a) @ _pattern(b)) > 0).sum(axis=0)


@contextmanager
def _cell_limit(limit):
    saved = symbolic_mod.CELL_LIMIT
    symbolic_mod.CELL_LIMIT = limit
    try:
        yield
    finally:
        symbolic_mod.CELL_LIMIT = saved


def _occupancy_clear():
    """The whole ``symbolic:occupied`` buffer, not just a prefix, is False."""
    view = global_arena().flags("symbolic:occupied", 0)
    return not view.base.any()


@given(structural_instances())
@settings(max_examples=150, deadline=None)
def test_windowed_symbolic_equals_pattern_product(instance):
    a, b, limit = instance
    with _cell_limit(limit):
        got = symbolic_nnz_per_column(a, b)
        assert _occupancy_clear()
    assert got.dtype == np.int64
    assert np.array_equal(got, _pattern_counts(a, b))


class _BranchSpy:
    """Counts dense-branch windows through the arena lookups."""

    def __init__(self, monkeypatch):
        self.dense = 0
        monkeypatch.setattr(symbolic_mod, "global_arena", self)

    def __call__(self):
        self.dense += 1
        return global_arena()


@pytest.mark.parametrize(
    "limit, density, dense_windows, windows",
    [
        (1 << 23, 0.6, 1, 1),  # one dense window
        (100, 0.6, 5, 5),      # ten columns per window, all dense
        (100, 0.01, 0, 5),     # sparse windows sort their keys
        (7, 0.6, 0, 50),       # one column alone exceeds the cap
    ],
)
def test_windowed_symbolic_branches(monkeypatch, limit, density,
                                    dense_windows, windows):
    a = random_csc((10, 50), density, seed=5)
    b = random_csc((50, 50), density, seed=6)
    spy = _BranchSpy(monkeypatch)
    monkeypatch.setattr(symbolic_mod, "CELL_LIMIT", limit)
    width = max(1, limit // a.nrows)
    assert -(-b.ncols // width) == windows
    got = symbolic_nnz_per_column(a, b)
    assert spy.dense == dense_windows
    assert np.array_equal(got, _pattern_counts(a, b))
    assert _occupancy_clear()


def test_windowed_symbolic_transient_memory():
    """Peak traced allocation stays below 16 bytes per flop.

    The product spans at least eight windows, so only a window's share of
    the flops is ever expanded at once (expanding the whole product at
    once needs more than 30 bytes per flop).
    """
    a = random_csc((10_000, 10_000), 0.002, seed=11)
    width = max(1, symbolic_mod.CELL_LIMIT // a.nrows)
    assert -(-a.ncols // width) >= 8
    total = flops(a, a)
    expected = symbolic_nnz_per_column(a, a)  # warm caches and the arena
    global_arena().release()
    tracemalloc.start()
    try:
        got = symbolic_nnz_per_column(a, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < 16 * total, f"{peak / total:.1f} bytes per flop"
