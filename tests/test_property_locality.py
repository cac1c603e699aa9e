"""Property and matrix tests of the reordering contract.

Two faces of the same invariant:

* a **layout-only** reordering (what ``hipmcl(reorder=...)`` does) must
  leave *every* pinned quantity bit-identical — labels, simulated
  seconds, trajectory — across the execution matrix (backend × workers ×
  grid), under chaos faults, and across checkpoint/resume;
* a **physical** permutation (``Reordering.apply``) followed by
  clustering and ``restore_labels`` must recover the same canonical
  clustering as the unpermuted run — the sanity check that the layout
  maps are the permutation they claim to be.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality import Reordering, plan_reordering
from repro.mcl.components import canonical_labels
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import rmat_network
from repro.resilience import FaultPlan, divergence, latest_checkpoint

OPTS = MclOptions(select_number=12, max_iterations=40)


def _rmat(scale: int, edge_factor: int, seed: int):
    return rmat_network(scale, edge_factor, seed=seed).matrix


def _perm(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def assert_identical(ref, run):
    assert np.array_equal(run.labels, ref.labels)
    assert run.elapsed_seconds == ref.elapsed_seconds
    assert divergence(ref, run) == []


@given(
    scale=st.integers(3, 5),
    edge_factor=st.integers(2, 6),
    net_seed=st.integers(0, 10_000),
    perm_seed=st.integers(0, 10_000),
)
@settings(max_examples=20, deadline=None)
def test_random_permutation_layout_leaves_no_trace(
    scale, edge_factor, net_seed, perm_seed
):
    """Any permutation, armed as a layout, is invisible in the result."""
    mat = _rmat(scale, edge_factor, net_seed)
    cfg = HipMCLConfig.optimized(nodes=4)
    ref = hipmcl(mat, OPTS, cfg)
    plan = Reordering.from_permutation(_perm(mat.ncols, perm_seed))
    run = hipmcl(mat, OPTS, cfg, reorder=plan)
    assert_identical(ref, run)


@given(
    scale=st.integers(3, 5),
    edge_factor=st.integers(2, 6),
    net_seed=st.integers(0, 10_000),
    perm_seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_permute_cluster_unpermute_recovers_clustering(
    scale, edge_factor, net_seed, perm_seed
):
    """Physically permuting, clustering, and mapping back recovers the
    unpermuted run's canonical clustering."""
    mat = _rmat(scale, edge_factor, net_seed)
    cfg = HipMCLConfig.optimized(nodes=4)
    ref = hipmcl(mat, OPTS, cfg)
    plan = Reordering.from_permutation(_perm(mat.ncols, perm_seed))
    permuted = plan.apply(mat)
    run = hipmcl(permuted, OPTS, cfg)
    restored = plan.restore_labels(np.asarray(run.labels))
    assert np.array_equal(restored, canonical_labels(np.asarray(ref.labels)))


# -- the execution matrix ----------------------------------------------------

MATRIX_NET = _rmat(5, 6, seed=77)
MATRIX_PERM = _perm(MATRIX_NET.ncols, seed=123)
CELLS = [
    ("serial", 1, "2d"),
    ("thread", 2, "2d"),
    ("thread", 2, "3d"),
]
CELL_IDS = [f"{be}-w{w}-{g}" for be, w, g in CELLS]
CHAOS_SEED = 11


def _cfg(grid: str) -> HipMCLConfig:
    return HipMCLConfig.optimized(
        nodes=16, grid=grid, layers=4 if grid == "3d" else 0
    )


@pytest.fixture(scope="module")
def references():
    return {
        grid: {
            "plain": hipmcl(MATRIX_NET, OPTS, _cfg(grid)),
            "chaos": hipmcl(
                MATRIX_NET, OPTS, _cfg(grid),
                faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
            ),
        }
        for grid in ("2d", "3d")
    }


@pytest.mark.parametrize("reorder", ["degree", "community", "custom"])
@pytest.mark.parametrize(("backend", "workers", "grid"), CELLS, ids=CELL_IDS)
class TestReorderMatrix:
    def _plan(self, reorder):
        if reorder == "custom":
            return Reordering.from_permutation(MATRIX_PERM)
        return reorder

    def test_fault_free(self, references, reorder, backend, workers, grid):
        run = hipmcl(
            MATRIX_NET, OPTS, _cfg(grid),
            workers=workers, backend=backend, reorder=self._plan(reorder),
        )
        assert_identical(references[grid]["plain"], run)

    def test_chaos(self, references, reorder, backend, workers, grid):
        run = hipmcl(
            MATRIX_NET, OPTS, _cfg(grid),
            workers=workers, backend=backend, reorder=self._plan(reorder),
            faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
        )
        ref = references[grid]["chaos"]
        assert run.faults_injected == ref.faults_injected
        assert sum(run.faults_injected.values()) > 0
        assert_identical(ref, run)


@pytest.mark.parametrize("reorder", ["community", "custom"])
def test_checkpoint_resume_across_layouts(references, reorder, tmp_path):
    """A run checkpointed under one layout resumes under another (and
    under none) to the exact reference trajectory: the layout leaves no
    trace in the persisted state."""
    plan = (
        Reordering.from_permutation(MATRIX_PERM)
        if reorder == "custom" else reorder
    )
    ref = references["2d"]["plain"]
    full = hipmcl(
        MATRIX_NET, OPTS, _cfg("2d"), reorder=plan,
        checkpoint_dir=tmp_path,
    )
    assert full.checkpoints_written > 0
    assert_identical(ref, full)
    ckpt = latest_checkpoint(tmp_path)
    for resume_reorder in (None, "degree", plan):
        resumed = hipmcl(
            MATRIX_NET, OPTS, _cfg("2d"), reorder=resume_reorder,
            resume_from=ckpt,
        )
        assert resumed.resumed_from_iteration > 0
        assert np.array_equal(resumed.labels, ref.labels)
        assert divergence(ref, resumed) == []
