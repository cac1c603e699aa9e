"""Property-based tests: non-finite edge weights fail loudly.

NaN compares False against everything, so a ``min() < 0`` guard lets NaN
(and inf) through and the run "converges" to a meaningless clustering.
Every entry point must raise instead of returning labels.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.mcl import MclOptions, markov_cluster, prepare_matrix
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.sparse import (
    csc_from_triples,
    read_abc,
    read_matrix_market,
    write_matrix_market,
)

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def hostile_graphs(draw):
    """A small symmetric graph with NaN/±inf at random stored positions."""
    n = draw(st.integers(2, 12))
    nnz = draw(st.integers(1, n * n))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    vals = draw(st.lists(st.floats(0.01, 10.0), min_size=nnz, max_size=nnz))
    mat = csc_from_triples((n, n), rows + cols, cols + rows, vals + vals)
    hit = draw(st.lists(st.integers(0, mat.nnz - 1), min_size=1,
                        max_size=mat.nnz, unique=True))
    mat.data[hit] = draw(st.lists(NON_FINITE, min_size=len(hit),
                                  max_size=len(hit)))
    mat.invalidate_caches()
    return mat


@given(hostile_graphs())
@settings(max_examples=40, deadline=None)
def test_non_finite_weights_raise(mat):
    options = MclOptions()
    with pytest.raises(ValueError, match="finite"):
        prepare_matrix(mat, options)
    with pytest.raises(ValueError, match="finite"):
        markov_cluster(mat, options)
    with pytest.raises(ValueError, match="finite"):
        hipmcl(mat, options, HipMCLConfig.optimized(nodes=4))


@st.composite
def hostile_edge_lists(draw):
    """Edge lines ``(i, j, w)`` with one non-finite weight at a random line."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 15))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
         draw(st.floats(0.01, 10.0)))
        for _ in range(m)
    ]
    at = draw(st.integers(0, m - 1))
    i, j, _ = edges[at]
    edges[at] = (i, j, draw(NON_FINITE))
    return n, edges, at


@given(hostile_edge_lists())
@settings(max_examples=40, deadline=None)
def test_abc_reports_non_finite_line(tmp_path_factory, instance):
    _, edges, at = instance
    path = tmp_path_factory.mktemp("abc") / "g.abc"
    lines = ["# hostile"] + [f"v{i} v{j} {w!r}" for i, j, w in edges]
    path.write_text("\n".join(lines) + "\n")
    where = re.escape(f"{path}:{at + 2}: non-finite")
    with pytest.raises(FormatError, match=where):
        read_abc(path)


@given(hostile_edge_lists())
@settings(max_examples=40, deadline=None)
def test_matrix_market_reports_non_finite_line(tmp_path_factory, instance):
    n, edges, at = instance
    path = tmp_path_factory.mktemp("mm") / "g.mtx"
    body = [f"{i + 1} {j + 1} {w!r}" for i, j, w in edges]
    body.insert(at, "")  # blank lines hold no entry but keep their number
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n% hostile\n"
        f"{n} {n} {len(edges)}\n" + "\n".join(body) + "\n"
    )
    where = re.escape(f"{path}:{at + 5}: non-finite")
    with pytest.raises(FormatError, match=where):
        read_matrix_market(path)


def test_finite_files_still_load(tmp_path):
    mat = csc_from_triples((3, 3), [0, 1, 2], [1, 2, 0], [1.0, 2.0, 0.5])
    path = tmp_path / "ok.mtx"
    write_matrix_market(mat, path)
    assert np.array_equal(read_matrix_market(path).to_dense(), mat.to_dense())
