"""Wall-clock perf-regression harness for the vectorized fast paths.

Unlike :mod:`repro.bench.harness` — which reports *simulated* seconds from
the machine model — this module times real Python wall-clock so speed
regressions in the numeric kernels are caught in review.  It runs

* end-to-end HipMCL on three catalog networks,
* six microbenchmarks, one per fast-path kernel family
  (esc, hash, merge, prune, estimator, components),
* a parallel-SpKAdd merge sweep: :func:`repro.merge.spkadd.spkadd_merge`
  timed over list count × nnz skew × worker count,
* a pipeline sweep: end-to-end runs over network × SUMMA broadcast
  schedule (sync vs static) × worker count,
* a grid sweep: end-to-end runs over network × process grid (2d vs the
  split-3D charge model) × worker count, the 3d cells also recording the
  *simulated* per-rank SUMMA broadcast seconds under the hybrid and
  broadcast-only transports (evidence, not wall-clock — never gated), and
* a worker-scaling sweep: the densest network end-to-end on the thread
  pool at 1, 2 and 4 workers,
* a locality sweep: end-to-end runs over network × reordering strategy
  (none/degree/community) × worker count, including a zero-inter-degree
  "islands" network where the community ordering tightens the SPA
  windows the most, and
* a delta-rerun pair: a localized edge delta on the islands network,
  timed cold (full rerun on the patched graph) and warm
  (:func:`repro.locality.run_warm_start` from the base labels),

and emits a JSON report comparable against a committed baseline
(``BENCH_PR<k>.json`` at the repo root).  ``tools/run_perfbench.py`` is
the CLI; ``--check`` exits nonzero when any benchmark is more than
``tolerance`` (default 25 %) slower than the baseline.  Every scaling
entry compares only against the *same backend and worker count* in the
baseline, so the gate stays meaningful on boxes where pool overhead
exceeds the parallel win (e.g. single-core CI runners).

Only schema-7 baselines are accepted; an older report must be
re-recorded before it can gate.

Wall-clock on shared machines is noisy: every measurement is the best of
``repeats`` runs after one warmup, and the comparison uses a generous
tolerance.  Treat a failed check as a prompt to re-run and profile, not
as a verdict by itself.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass

import numpy as np

#: Networks timed end-to-end (small enough for CI, big enough to expose
#: per-kernel regressions; isom100-3-xs is the densest of the three).
BENCH_NETS = ("archaea-xs", "eukarya-xs", "isom100-3-xs")

#: The worker-scaling sweep: net × backends × worker counts (the densest
#: bench net, where the SUMMA stage batches are fattest).
SCALING_NET = "isom100-3-xs"
SCALING_WORKERS = (1, 2, 4)
SCALING_BACKENDS = ("thread",)

SCHEMA_VERSION = 7
#: Baseline schema versions this harness can compare against.
SUPPORTED_SCHEMAS = (7,)

#: The pipeline sweep: net × broadcast schedule × worker count.  The
#: static schedule moves only *simulated* time; these rows pin the
#: wall-clock cost of walking the stage graph (it must stay noise-level).
PIPELINE_SWEEP_NETS = ("eukarya-xs", "isom100-3-xs")
PIPELINE_SWEEP_SCHEDULES = ("sync", "static")
PIPELINE_SWEEP_WORKERS = (1, 4)

#: The grid sweep: net × process grid × worker count, on 16 nodes
#: (q = 4, so the 3d cells run c = 4 layers of 2×2).  Like the
#: schedule, the grid moves only *simulated* time; the wall rows pin
#: the cost of driving the charge model, and each net gets one extra
#: broadcast-only 3d cell so the hybrid transport's simulated win is a
#: committed, diffable figure.
GRID_SWEEP_NETS = ("eukarya-xs", "isom100-3-xs")
GRID_SWEEP_WORKERS = (1, 4)
GRID_SWEEP_LAYERS = 4

#: The merge micro-sweep: k partial lists × nnz skew × worker count.
#: "skewed" gives list 0 ten times the density of the rest — the shape
#: SUMMA produces when one broadcast slab dominates a stage batch.
MERGE_SWEEP_K = (4, 16)
MERGE_SWEEP_SKEWS = ("uniform", "skewed")
MERGE_SWEEP_WORKERS = (1, 4)
MERGE_SWEEP_SHAPE = (3000, 3000)

#: The locality sweep: net × reordering strategy × worker count.  The
#: islands net (zero inter-cluster degree) is the regime the community
#: ordering is built for: its SPA windows shrink to cluster size, so the
#: windowed scan replaces the full-nrows dump.
LOCALITY_SWEEP_NETS = ("eukarya-xs", "islands-xs")
LOCALITY_SWEEP_STRATEGIES = ("none", "degree", "community")
LOCALITY_SWEEP_WORKERS = (1, 4)

#: The synthetic islands network backing ``islands-xs`` cells and the
#: delta-rerun pair: pure planted clusters, no inter-cluster edges, so
#: components are the clusters and a localized delta dirties one.
ISLANDS_NET = dict(n=1600, intra_degree=30.0, inter_degree=0.0, seed=11)

#: The delta-rerun pair: a localized delta of this many edges, cold
#: (patched-graph rerun) vs warm (component-restricted warm start).
DELTA_RERUN_EDGES = 12
DELTA_RERUN_SEED = 5

#: Fractional slowdown vs the baseline that counts as a regression.
DEFAULT_TOLERANCE = 0.25


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` calls after one warmup."""
    fn()  # warmup: population of caches/arenas, JIT-free but allocation-heavy
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------


def bench_end_to_end(
    net_name: str,
    repeats: int = 1,
    workers: int | str | None = None,
    backend: str | None = None,
    overlap: bool | str | None = None,
    trace=None,
    schedule: str | None = None,
    grid: str | None = None,
    layers: int = 0,
    transport: str | None = None,
) -> dict:
    """Time one full fast-path HipMCL run on a catalog network.

    ``trace`` (a :class:`repro.trace.Tracer`) records the timed runs —
    the gate's diagnostic mode: a benchmark that regressed is re-run
    under tracing so the slow stage is visible in the exported timeline.
    Leave it ``None`` for gating measurements (tracing is cheap but the
    perf gate should time exactly what users run).

    ``grid``/``layers``/``transport`` select the process-grid shape; 3d
    rows additionally report the simulated per-rank SUMMA broadcast
    seconds (``sim_summa_bcast``) and the transport-selection counts —
    keys without ``"seconds"``, so the wall-clock gate ignores them.
    """
    from ..mcl.hipmcl import HipMCLConfig, hipmcl
    from ..nets import catalog
    from .harness import load_network, options_for

    entry = catalog.entry(net_name)
    net = load_network(net_name)
    opts = options_for(net_name)
    cfg = HipMCLConfig.optimized(
        nodes=16, memory_budget_bytes=entry.memory_budget_bytes,
        schedule=schedule or "sync",
        grid=grid or "2d", layers=layers, transport=transport or "hybrid",
    )
    result = {}

    def run():
        result["res"] = hipmcl(
            net.matrix, opts, cfg,
            workers=workers, backend=backend, overlap=overlap,
            trace=trace,
        )

    seconds = _best_of(run, repeats)
    res = result["res"]
    out = {
        "seconds": seconds,
        "iterations": len(res.history),
        "clusters": int(res.labels.max()) + 1 if len(res.labels) else 0,
    }
    if res.grid == "3d":
        out["sim_summa_bcast"] = res.stage_means.get("summa_bcast", 0.0)
        out["transport_selections"] = dict(res.transport_selections)
    return out


# ---------------------------------------------------------------------------
# Microbenchmarks — one per fast-path kernel family
# ---------------------------------------------------------------------------


def _micro_esc():
    from ..sparse import random_csc
    from ..spgemm.esc import spgemm_esc

    a = random_csc((1600, 1600), 0.012, seed=7)
    return lambda: spgemm_esc(a, a)


def _micro_hash():
    from ..sparse import random_csc
    from ..spgemm.hashspgemm import spgemm_hash

    a = random_csc((900, 900), 0.02, seed=11)
    return lambda: spgemm_hash(a, a)


def _micro_merge():
    from ..merge.lists import TripleList, merge_lists
    from ..sparse import random_csc

    shape = (2500, 2500)
    lists = [
        TripleList.from_csc(random_csc(shape, 0.004, seed=20 + k))
        for k in range(8)
    ]
    return lambda: merge_lists(list(lists))


def _micro_prune():
    from ..mcl.options import MclOptions
    from ..mcl.prune import prune_columns
    from ..sparse import random_csc

    mat = random_csc((3000, 3000), 0.01, seed=13)
    opts = MclOptions(select_number=8, prune_threshold=1e-4)
    return lambda: prune_columns(mat, opts)


def _micro_estimator():
    from ..sparse import random_csc
    from ..spgemm.estimator import estimate_nnz

    a = random_csc((4000, 4000), 0.003, seed=17)
    return lambda: estimate_nnz(a, a, keys=7, seed=3)


def _micro_components():
    from ..mcl.components import connected_components
    from ..sparse import random_csc

    mat = random_csc((20000, 20000), 3e-4, seed=19)
    return lambda: connected_components(mat)


def _merge_sweep_lists(k: int, skew: str) -> list:
    """The k input :class:`TripleList`\\ s for one merge-sweep cell."""
    from ..merge.lists import TripleList
    from ..sparse import random_csc

    dens = (
        [0.002] * k
        if skew == "uniform"
        else [0.008] + [0.0008] * (k - 1)
    )
    return [
        TripleList.from_csc(
            random_csc(MERGE_SWEEP_SHAPE, dens[i], seed=40 + i)
        )
        for i in range(k)
    ]


def bench_merge_cell(
    k: int, skew: str, workers: int, repeats: int = 5
) -> dict:
    """Time one parallel-SpKAdd cell: hash strategy, thread fan-out."""
    from ..merge.spkadd import spkadd_merge
    from ..parallel import get_executor

    lists = _merge_sweep_lists(k, skew)
    # get_executor caches pools per (count, backend); never close it here.
    executor = get_executor(workers, "thread") if workers > 1 else None

    def run():
        spkadd_merge(list(lists), strategy="hash", executor=executor)

    return {"seconds": _best_of(run, repeats)}


MICROBENCHMARKS = {
    "esc": _micro_esc,
    "hash": _micro_hash,
    "merge": _micro_merge,
    "prune": _micro_prune,
    "estimator": _micro_estimator,
    "components": _micro_components,
}


def bench_micro(name: str, repeats: int = 5) -> dict:
    fn = MICROBENCHMARKS[name]()
    return {"seconds": _best_of(fn, repeats)}


# ---------------------------------------------------------------------------
# Locality engine — reordering sweep and the warm-start pair
# ---------------------------------------------------------------------------


def _locality_net(net_name: str):
    """``(matrix, options, config)`` of one locality-sweep network."""
    from ..mcl.hipmcl import HipMCLConfig
    from ..mcl.options import MclOptions
    from ..nets import catalog, planted_network
    from .harness import load_network, options_for

    if net_name == "islands-xs":
        net = planted_network(**ISLANDS_NET)
        opts = MclOptions(
            inflation=2.0, prune_threshold=1e-4, select_number=50
        )
        return net.matrix, opts, HipMCLConfig.optimized(nodes=16)
    entry = catalog.entry(net_name)
    net = load_network(net_name)
    cfg = HipMCLConfig.optimized(
        nodes=16, memory_budget_bytes=entry.memory_budget_bytes
    )
    return net.matrix, options_for(net_name), cfg


def bench_locality_cell(
    net_name: str, strategy: str, workers: int, repeats: int = 1
) -> dict:
    """Time one end-to-end run under a locality reordering strategy."""
    from ..mcl.hipmcl import hipmcl

    matrix, opts, cfg = _locality_net(net_name)
    reorder = None if strategy == "none" else strategy

    def run():
        hipmcl(
            matrix, opts, cfg,
            workers=workers, backend="thread", reorder=reorder,
        )

    return {"seconds": _best_of(run, repeats)}


def bench_delta_rerun(repeats: int = 1) -> dict:
    """Cold-vs-warm incremental re-clustering on the islands network.

    Returns the two gated rows plus evidence keys on the warm row: the
    measured ``speedup`` and the ``dirty_fraction`` of vertices the warm
    start actually re-clustered.
    """
    from ..locality import (
        WarmStart, dirty_vertices, localized_delta, run_warm_start,
    )
    from ..mcl.hipmcl import hipmcl

    matrix, opts, cfg = _locality_net("islands-xs")
    base = hipmcl(matrix, opts, cfg)  # untimed: the converged base run
    delta = localized_delta(matrix, DELTA_RERUN_EDGES, DELTA_RERUN_SEED)
    patched = delta.apply(matrix)
    warm = WarmStart(np.asarray(base.labels, dtype=np.int64), delta)

    cold = _best_of(lambda: hipmcl(patched, opts, cfg), repeats)
    warm_s = _best_of(
        lambda: run_warm_start(matrix, warm, opts, cfg), repeats
    )
    dirty = len(dirty_vertices(patched, delta))
    return {
        "cold": {"seconds": cold},
        "warm": {
            "seconds": warm_s,
            "speedup": cold / warm_s if warm_s > 0 else float("inf"),
            "dirty_fraction": dirty / max(1, matrix.ncols),
        },
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def run_perfbench(
    repeats: int = 5,
    nets=BENCH_NETS,
    log=None,
    workers: int | str | None = None,
    scaling: bool = True,
    backend: str | None = None,
    overlap: bool | str | None = None,
    pipeline: bool = True,
    grid_sweep: bool = True,
    locality: bool = True,
) -> dict:
    """Run every benchmark; returns the JSON-serializable report.

    ``workers``/``backend``/``overlap`` select the execution backend for
    the end-to-end runs (resolved values are recorded in the report);
    the scaling sweep pins its own counts on the thread pool.
    ``scaling=False`` skips the sweep (it costs three extra end-to-end
    runs of :data:`SCALING_NET`); ``pipeline=False`` skips the
    schedule sweep (eight extra end-to-end runs over
    :data:`PIPELINE_SWEEP_NETS`); ``grid_sweep=False`` skips the grid
    sweep (ten extra end-to-end runs over :data:`GRID_SWEEP_NETS`);
    ``locality=False`` skips the locality sweep and the delta-rerun
    pair (twelve sweep cells plus three islands-net runs).
    """
    from ..merge.spkadd import resolve_merge_impl
    from ..mpi.grid import resolve_grid, resolve_layers
    from ..parallel import resolve_backend, resolve_overlap, resolve_workers
    from ..perf import dispatch

    report = {
        "schema": SCHEMA_VERSION,
        "fast_paths": dispatch.enabled(),
        "workers": resolve_workers(workers),
        "backend": resolve_backend(backend),
        "overlap": resolve_overlap(overlap),
        "merge_impl": resolve_merge_impl(None),
        "grid": resolve_grid(None),
        "layers": resolve_layers(None),
        "transport": "hybrid",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "end_to_end": {},
        "micro": {},
        "merge_sweep": {},
        "pipeline_sweep": {},
        "grid_sweep": {},
        "locality_sweep": {},
        "delta_rerun": {},
        "scaling": {},
    }
    for net in nets:
        report["end_to_end"][net] = bench_end_to_end(
            net, repeats=1, workers=workers, backend=backend, overlap=overlap
        )
        if log:
            log(f"end-to-end {net}: "
                f"{report['end_to_end'][net]['seconds']:.3f}s")
    for name in MICROBENCHMARKS:
        report["micro"][name] = bench_micro(name, repeats=repeats)
        if log:
            log(f"micro {name}: {report['micro'][name]['seconds'] * 1e3:.1f}ms")
    for k in MERGE_SWEEP_K:
        for skew in MERGE_SWEEP_SKEWS:
            for w in MERGE_SWEEP_WORKERS:
                cell = f"k{k}-{skew}-w{w}"
                report["merge_sweep"][cell] = bench_merge_cell(
                    k, skew, w, repeats=repeats
                )
                if log:
                    log(f"merge {cell}: "
                        f"{report['merge_sweep'][cell]['seconds'] * 1e3:.1f}ms")
    if pipeline:
        for net in PIPELINE_SWEEP_NETS:
            for sched in PIPELINE_SWEEP_SCHEDULES:
                for w in PIPELINE_SWEEP_WORKERS:
                    cell = f"{net}-{sched}-w{w}"
                    report["pipeline_sweep"][cell] = bench_end_to_end(
                        net, repeats=1, workers=w, backend="thread",
                        schedule=sched,
                    )
                    if log:
                        log(f"pipeline {cell}: "
                            f"{report['pipeline_sweep'][cell]['seconds']:.3f}s")
    if grid_sweep:
        for net in GRID_SWEEP_NETS:
            for w in GRID_SWEEP_WORKERS:
                for g in ("2d", "3d"):
                    cell = (
                        f"{net}-2d-w{w}" if g == "2d"
                        else f"{net}-3d-c{GRID_SWEEP_LAYERS}-w{w}"
                    )
                    report["grid_sweep"][cell] = bench_end_to_end(
                        net, repeats=1, workers=w, backend="thread",
                        grid=g,
                        layers=GRID_SWEEP_LAYERS if g == "3d" else 0,
                    )
                    if log:
                        log(f"grid {cell}: "
                            f"{report['grid_sweep'][cell]['seconds']:.3f}s")
            # One broadcast-only 3d cell per net: the simulated
            # sim_summa_bcast delta vs the hybrid w1 cell is the
            # committed transport-selection evidence.
            cell = f"{net}-3d-c{GRID_SWEEP_LAYERS}-bcast-w1"
            report["grid_sweep"][cell] = bench_end_to_end(
                net, repeats=1, workers=1, backend="thread",
                grid="3d", layers=GRID_SWEEP_LAYERS,
                transport="broadcast",
            )
            if log:
                log(f"grid {cell}: "
                    f"{report['grid_sweep'][cell]['seconds']:.3f}s")
    if locality:
        for net in LOCALITY_SWEEP_NETS:
            for strat in LOCALITY_SWEEP_STRATEGIES:
                for w in LOCALITY_SWEEP_WORKERS:
                    cell = f"{net}-{strat}-w{w}"
                    report["locality_sweep"][cell] = bench_locality_cell(
                        net, strat, w, repeats=1
                    )
                    if log:
                        log(f"locality {cell}: "
                            f"{report['locality_sweep'][cell]['seconds']:.3f}s")
        report["delta_rerun"] = bench_delta_rerun(repeats=1)
        if log:
            rows = report["delta_rerun"]
            log(f"delta-rerun: cold {rows['cold']['seconds']:.3f}s, "
                f"warm {rows['warm']['seconds']:.3f}s "
                f"({rows['warm']['speedup']:.1f}x, "
                f"{rows['warm']['dirty_fraction']:.1%} dirty)")
    if scaling:
        per_backend = report["scaling"][SCALING_NET] = {}
        for be in SCALING_BACKENDS:
            rows = per_backend[be] = {}
            for w in SCALING_WORKERS:
                rows[f"w{w}"] = bench_end_to_end(
                    SCALING_NET, repeats=1, workers=w, backend=be,
                    overlap=overlap,
                )
                if log:
                    log(f"scaling {SCALING_NET} {be} workers={w}: "
                        f"{rows[f'w{w}']['seconds']:.3f}s")
    return report


@dataclass(frozen=True)
class Comparison:
    """One benchmark's current-vs-baseline outcome."""

    name: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline > 0 else np.inf

    def regressed(self, tolerance: float) -> bool:
        return self.ratio > 1.0 + tolerance


#: Sections the flattener understands; anything else dict-valued in a
#: report is assumed to come from a newer schema and is skipped (with a
#: warning when the caller provides one) instead of crashing the gate.
FLAT_SECTIONS = (
    "end_to_end",
    "micro",
    "merge_sweep",
    "pipeline_sweep",
    "grid_sweep",
    "locality_sweep",
    "delta_rerun",
    "scaling",
)


def _seconds(report: dict, name: str, row) -> float:
    """``row["seconds"]`` as a float, or a :class:`BaselineError` that
    names the report's schema instead of a bare ``KeyError``."""
    try:
        return float(row["seconds"])
    except (KeyError, TypeError, ValueError):
        schema = report.get("schema") if isinstance(report, dict) else None
        raise BaselineError(
            f"{name} has no numeric 'seconds' field in this "
            f"schema-{schema!r} report — {RERECORD_HINT}"
        ) from None


def _flatten(report: dict, warn=None) -> dict:
    out = {}
    for net, row in report.get("end_to_end", {}).items():
        out[f"end_to_end/{net}"] = _seconds(report, f"end_to_end/{net}", row)
    for name, row in report.get("micro", {}).items():
        out[f"micro/{name}"] = _seconds(report, f"micro/{name}", row)
    # Only the wall-clock 'seconds' is gated; evidence keys
    # (sim_summa_bcast, speedup, dirty_fraction) stay out of the flat
    # view.
    for section in (
        "merge_sweep", "pipeline_sweep", "grid_sweep",
        "locality_sweep", "delta_rerun",
    ):
        for cell, row in report.get(section, {}).items():
            out[f"{section}/{cell}"] = _seconds(
                report, f"{section}/{cell}", row
            )
    for net, backends in report.get("scaling", {}).items():
        for be, rows in backends.items():
            for wk, row in rows.items():
                name = f"scaling/{net}/{be}/{wk}"
                out[name] = _seconds(report, name, row)
    if warn is not None:
        for section, rows in report.items():
            if isinstance(rows, dict) and section not in FLAT_SECTIONS:
                warn(
                    f"ignoring unknown section {section!r} "
                    f"(schema {report.get('schema')!r}; this harness "
                    f"writes schema {SCHEMA_VERSION})"
                )
    return out


def compare_reports(
    current: dict, baseline: dict, warn=None
) -> list[Comparison]:
    """Pair up benchmarks present in both reports (baseline order).

    ``warn`` (a callable taking one message) hears about sections either
    report carries that this harness does not understand — a newer
    baseline against an older harness skips them instead of crashing —
    and, once per row, about baseline rows the current report lacks.
    """
    cur = _flatten(current, warn=warn)
    base = _flatten(baseline, warn=warn)
    if warn is not None:
        for name in base:
            if name not in cur:
                warn(f"baseline row {name} has no counterpart in this "
                     "report; not compared")
    return [
        Comparison(name, base[name], cur[name])
        for name in base
        if name in cur
    ]


def regressions(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE,
    warn=None,
) -> list[Comparison]:
    return [
        c for c in compare_reports(current, baseline, warn=warn)
        if c.regressed(tolerance)
    ]


def _parse_grid_cell(cell: str):
    """``(net, bench_end_to_end kwargs)`` of one grid-sweep cell name,
    or ``None``.  Net names contain dashes, so match known suffixes."""
    try:
        body, wk = cell.rsplit("-w", 1)
        kwargs = {"workers": int(wk)}
    except ValueError:
        return None
    c = GRID_SWEEP_LAYERS
    if body.endswith("-2d"):
        return body[: -len("-2d")], {**kwargs, "grid": "2d"}
    if body.endswith(f"-3d-c{c}-bcast"):
        return body[: -len(f"-3d-c{c}-bcast")], {
            **kwargs, "grid": "3d", "layers": c, "transport": "broadcast",
        }
    if body.endswith(f"-3d-c{c}"):
        return body[: -len(f"-3d-c{c}")], {
            **kwargs, "grid": "3d", "layers": c,
        }
    return None


def remeasure_into(
    report: dict,
    name: str,
    repeats: int = 5,
    workers: int | str | None = None,
) -> bool:
    """Re-time one flattened benchmark; keep the better of the two runs.

    The gate uses this to absorb one-shot machine noise: an entry that
    *looks* regressed is measured a second time, and only the min of the
    two observations is compared against the baseline.  Returns ``False``
    for names the harness no longer measures (a stale baseline entry).
    """
    parts = name.split("/")
    try:
        if parts[0] == "end_to_end" and len(parts) == 2:
            sec = bench_end_to_end(
                parts[1], repeats=1, workers=workers
            )["seconds"]
            row = report["end_to_end"][parts[1]]
        elif parts[0] == "micro" and len(parts) == 2:
            sec = bench_micro(parts[1], repeats=repeats)["seconds"]
            row = report["micro"][parts[1]]
        elif parts[0] == "merge_sweep" and len(parts) == 2:
            kk, skew, wk = parts[1].split("-")
            sec = bench_merge_cell(
                int(kk[1:]), skew, int(wk[1:]), repeats=repeats
            )["seconds"]
            row = report["merge_sweep"][parts[1]]
        elif parts[0] == "pipeline_sweep" and len(parts) == 2:
            # Net names contain dashes, so split from the right.
            net, sched, wk = parts[1].rsplit("-", 2)
            sec = bench_end_to_end(
                net, repeats=1, workers=int(wk[1:]), backend="thread",
                schedule=sched,
            )["seconds"]
            row = report["pipeline_sweep"][parts[1]]
        elif parts[0] == "grid_sweep" and len(parts) == 2:
            parsed = _parse_grid_cell(parts[1])
            if parsed is None:
                return False
            net, kwargs = parsed
            sec = bench_end_to_end(
                net, repeats=1, backend="thread", **kwargs
            )["seconds"]
            row = report["grid_sweep"][parts[1]]
        elif parts[0] == "locality_sweep" and len(parts) == 2:
            # Net names contain dashes; strategy and worker count don't.
            net, strat, wk = parts[1].rsplit("-", 2)
            sec = bench_locality_cell(
                net, strat, int(wk[1:]), repeats=1
            )["seconds"]
            row = report["locality_sweep"][parts[1]]
        elif parts[0] == "delta_rerun" and len(parts) == 2:
            # The pair is one measurement: re-run both, keep the min of
            # each so the speedup evidence stays self-consistent.
            fresh = bench_delta_rerun(repeats=1)
            for kind in ("cold", "warm"):
                rerow = report["delta_rerun"][kind]
                rerow["seconds"] = min(
                    float(rerow["seconds"]), float(fresh[kind]["seconds"])
                )
            return True
        elif parts[0] == "scaling" and len(parts) == 4:
            net, be, wk = parts[1], parts[2], parts[3]
            sec = bench_end_to_end(
                net, repeats=1, workers=int(wk[1:]), backend=be
            )["seconds"]
            row = report["scaling"][net][be][wk]
        else:
            return False
    except (KeyError, ValueError):
        return False
    row["seconds"] = min(float(row["seconds"]), float(sec))
    return True


def trace_benchmark(name: str, workers: int | str | None = None):
    """Re-run one flattened benchmark under the observability tracer.

    Returns the populated :class:`repro.trace.Tracer` for ``end_to_end``
    and ``scaling`` names (the runs with a pipeline worth a timeline), or
    ``None`` for micro/unknown names.  The gate calls this for each
    *confirmed* regression so the slow run ships with its own evidence —
    export with :func:`repro.trace.write_chrome_trace`.
    """
    from ..trace import Tracer

    parts = name.split("/")
    tracer = Tracer()
    try:
        if parts[0] == "end_to_end" and len(parts) == 2:
            bench_end_to_end(parts[1], repeats=1, workers=workers,
                             trace=tracer)
        elif parts[0] == "scaling" and len(parts) == 4:
            bench_end_to_end(parts[1], repeats=1, workers=int(parts[3][1:]),
                             backend=parts[2], trace=tracer)
        else:
            # micro / merge_sweep cells have no pipeline worth a timeline.
            return None
    except (KeyError, ValueError):
        return None
    return tracer


def save_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class BaselineError(ValueError):
    """A baseline report is missing, unreadable, or structurally wrong.

    The message always says how to fix it (usually: re-record the
    baseline); the CLI prints it verbatim instead of a traceback.
    """


#: The fix-it hint appended to every baseline complaint.
RERECORD_HINT = (
    "record a fresh baseline with "
    "`PYTHONPATH=src python tools/run_perfbench.py --pr <k>` "
    "and point --baseline at the written BENCH_PR<k>.json"
)


def validate_report(report) -> list[str]:
    """Structural problems that would break a comparison (empty = OK)."""
    if not isinstance(report, dict):
        return [f"top level is {type(report).__name__}, expected an object"]
    problems = []
    schema = report.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        problems.append(
            f"schema version is {schema!r}, this harness supports "
            f"{list(SUPPORTED_SCHEMAS)}"
        )
    for section in ("end_to_end", "micro"):
        rows = report.get(section)
        if not isinstance(rows, dict):
            problems.append(f"missing or malformed {section!r} section")
            continue
        for name, row in rows.items():
            if not (
                isinstance(row, dict)
                and isinstance(row.get("seconds"), (int, float))
            ):
                problems.append(
                    f"{section}/{name} lacks a numeric 'seconds' field"
                )
    for section in (
        "merge_sweep", "pipeline_sweep", "grid_sweep",
        "locality_sweep", "delta_rerun",
    ):
        sweep = report.get(section)
        if sweep is None:
            continue
        if not isinstance(sweep, dict):
            problems.append(f"malformed {section!r} section")
            continue
        for cell, row in sweep.items():
            if not (
                isinstance(row, dict)
                and isinstance(row.get("seconds"), (int, float))
            ):
                problems.append(
                    f"{section}/{cell} lacks a numeric 'seconds' field"
                )
    scaling = report.get("scaling", {})
    if not isinstance(scaling, dict):
        problems.append("malformed 'scaling' section")
    else:
        for net, backends in scaling.items():
            if not isinstance(backends, dict):
                problems.append(f"scaling/{net} is not an object")
                continue
            for be, rows in backends.items():
                if not isinstance(rows, dict):
                    problems.append(f"scaling/{net}/{be} is not an object")
                    continue
                for wk, row in rows.items():
                    if not (
                        isinstance(row, dict)
                        and isinstance(row.get("seconds"), (int, float))
                    ):
                        problems.append(
                            f"scaling/{net}/{be}/{wk} lacks a numeric "
                            "'seconds' field"
                        )
    return problems


def load_baseline(path) -> dict:
    """Load a baseline for ``--check``; :class:`BaselineError` on any
    missing/unreadable/schema problem, with an actionable message."""
    try:
        report = load_report(path)
    except FileNotFoundError:
        raise BaselineError(
            f"baseline {path} not found — {RERECORD_HINT}"
        ) from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BaselineError(
            f"baseline {path} is not readable JSON ({exc}) — {RERECORD_HINT}"
        ) from exc
    problems = validate_report(report)
    if problems:
        listing = "; ".join(problems)
        raise BaselineError(
            f"baseline {path} does not match the report schema "
            f"({listing}) — {RERECORD_HINT}"
        )
    return report
