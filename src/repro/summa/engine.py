"""The distributed SpGEMM engine: Sparse SUMMA and Pipelined Sparse SUMMA.

One engine implements both §II's classic bulk-synchronous Sparse SUMMA and
§III's Pipelined Sparse SUMMA; a :class:`SummaConfig` selects the behavior:

* ``pipelined=False, use_gpu=False, kernel="heap", merge="multiway"`` is
  original HipMCL's expansion;
* ``pipelined=True, use_gpu=True, kernel="hybrid", merge="binary"`` is the
  paper's optimized expansion.

Execution model: every rank's program runs in one address space against
real submatrices, while each rank's CPU/GPU :class:`ResourceTimeline`
advances by modeled durations.  Broadcasts synchronize their
subcommunicator (blocking collectives); in pipelined mode the stage-k GPU
multiply runs concurrently with the stage-(k+1) broadcasts and the CPU
merge events of the binary schedule, because nothing barriers the ranks
between stages.  In classic mode a global barrier closes every stage
(bulk-synchronous, as HipMCL was).

Phased execution (§II, §V): when the caller passes ``phases=h > 1``, each
local B block contributes only its p-th column slice per phase, the phase's
output is handed to ``phase_callback`` (the HipMCL driver prunes there —
the fused expand+prune), and A is re-broadcast every phase — exactly the
extra communication the pipelining hides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeviceMemoryError, InjectedFault, KernelLaunchError
from ..gpu.device import GPUDevice
from ..gpu.multigpu import split_columns
from ..machine.spec import MachineSpec, SUMMIT_LIKE
from ..merge import SCHEDULES, TripleList, merge_lists
from ..merge.spkadd import (
    MERGE_FANOUT_MIN_ELEMENTS,
    MERGE_IMPLS,
    STRATEGY_LADDER,
    resolve_merge_impl,
    spkadd_merge,
)
from ..mpi.comm import RESILIENCE_ACCOUNT, VirtualComm
from ..sparse import CSCMatrix, hstack_csc
from ..spgemm.esc import spgemm_esc
from ..spgemm.hashspgemm import hash_operation_count
from ..spgemm.heap import heap_operation_count
from ..spgemm.hybrid import KernelKind, degrade_kernel, select_kernel
from ..spgemm.metrics import WorkProfile
from ..trace import current_tracer, maybe_span
from .distmatrix import DistributedCSC


def _per_column_flops(a_col_lens: np.ndarray, b: CSCMatrix) -> np.ndarray:
    """flops per output column given A's precomputed column lengths."""
    per_entry = a_col_lens[b.indices]
    out = np.zeros(b.ncols, dtype=np.int64)
    lens = b.column_lengths()
    nonempty = np.flatnonzero(lens)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(per_entry, b.indptr[nonempty])
    return out


def _profile_from_per_col(
    per_col: np.ndarray, a: CSCMatrix, b: CSCMatrix, c_nnz: int
) -> WorkProfile:
    """Build a WorkProfile without recomputing flops (engine hot path)."""
    total = int(per_col.sum())
    n_used = max(1, int((per_col > 0).sum()))
    return WorkProfile(
        flops=total,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
        nnz_c=int(c_nnz),
        cf=(total / c_nnz) if c_nnz > 0 else 1.0,
        max_column_flops=int(per_col.max(initial=0)),
        mean_column_flops=total / n_used,
    )

_KERNEL_NAMES = {
    "heap": KernelKind.CPU_HEAP,
    "cpu-heap": KernelKind.CPU_HEAP,
    "hash": KernelKind.CPU_HASH,
    "cpu-hash": KernelKind.CPU_HASH,
    "bhsparse": KernelKind.GPU_BHSPARSE,
    "nsparse": KernelKind.GPU_NSPARSE,
    "rmerge2": KernelKind.GPU_RMERGE2,
}


@dataclass(frozen=True)
class SummaConfig:
    """Knobs of one distributed multiplication."""

    spec: MachineSpec = SUMMIT_LIKE
    kernel: str = "hybrid"  # a _KERNEL_NAMES key, or "hybrid"
    merge: str = "binary"  # "multiway" | "twoway" | "binary"
    pipelined: bool = True
    use_gpu: bool = True
    gpus_per_process: int = 6
    threads: int = 40
    #: Thread-based (one fat process per node) vs process-based node
    #: management — affects the pruning NUMA penalty (Fig. 5).
    threaded_node: bool = True
    #: Execute the genuinely selected kernel implementation instead of the
    #: fast ESC engine (validation runs; slower, same results).
    run_real_kernels: bool = False
    #: Record per-event (rank, phase, stage, kind, start, end) tuples in
    #: ``SummaResult.trace`` — used to regenerate Fig. 2's timeline.
    trace: bool = False
    #: SpKAdd engine for the physical merges ("serial" | "tree" | "hash"
    #: | "auto"); None defers to ``REPRO_MERGE_IMPL`` / "auto".  All four
    #: are bit-identical — the knob only moves wall-clock work onto the
    #: executor's workers and trades peak merge memory for speed.
    merge_impl: str | None = None
    #: Broadcast schedule.  ``"sync"`` charges every broadcast as a
    #: blocking collective on the member CPUs (the PR4 behavior);
    #: ``"static"`` walks a precomputed stage graph, posting each stage's
    #: A-row/B-column broadcasts asynchronously on per-tree link clocks so
    #: they run under the previous stage's multiplies and merges.  Unlike
    #: the wall-clock knobs this changes the *simulated* timings (that is
    #: its purpose), so it participates in config fingerprints; within a
    #: schedule, every (backend, workers, overlap, merge_impl) cell stays
    #: bit-identical to serial.
    schedule: str = "sync"

    def __post_init__(self):
        if self.kernel != "hybrid" and self.kernel not in _KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; options: "
                f"{['hybrid', *sorted(_KERNEL_NAMES)]}"
            )
        if self.merge not in SCHEDULES:
            raise ValueError(
                f"unknown merge schedule {self.merge!r}; "
                f"options: {sorted(SCHEDULES)}"
            )
        if self.gpus_per_process < 1 or self.threads < 1:
            raise ValueError("gpus_per_process and threads must be >= 1")
        if self.merge_impl is not None and self.merge_impl not in MERGE_IMPLS:
            raise ValueError(
                f"unknown merge impl {self.merge_impl!r}; "
                f"options: {list(MERGE_IMPLS)}"
            )
        if self.schedule not in ("sync", "static"):
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"options: ['sync', 'static']"
            )
        if self.schedule == "static" and not self.pipelined:
            raise ValueError(
                "schedule='static' requires pipelined=True: the "
                "bulk-synchronous engine barriers every stage, which is "
                "exactly what the static schedule removes"
            )


@dataclass
class SummaResult:
    """Distributed product plus the accounting the experiments read."""

    dist_c: DistributedCSC
    kernel_selections: Counter = field(default_factory=Counter)
    gpu_fallbacks: int = 0  # device-OOM falls back to CPU hash
    #: CPU-hash -> heap demotions (injected host hash-table overflows).
    kernel_demotions: int = 0
    merge_peak_event_elements: int = 0  # max over ranks/phases
    merge_peak_resident_elements: int = 0
    merge_operations: float = 0.0
    #: Resolved ``merge_impl`` knob the run planned strategies under.
    merge_impl: str = "auto"
    #: Physical merges per executed SpKAdd strategy.  Strategy planning is
    #: a pure function of the inputs and the budget, so these counts are
    #: identical across every (backend, workers, overlap) cell.
    merge_strategy_selections: Counter = field(default_factory=Counter)
    #: Injected merge-memory overruns absorbed by the recovery ladder.
    merge_demotions: int = 0
    #: Largest single-partition input share any SpKAdd fan-out saw — a
    #: wall-clock diagnostic (like ``prefetched_stages``, it varies with
    #: the worker count and is excluded from cell-identity).
    merge_peak_partition_elements: int = 0
    phases: int = 1
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    stage_flops: int = 0
    #: Event timeline (rank, phase, stage, kind, start, end) when traced.
    trace: list[tuple[int, int, int, str, float, float]] = field(
        default_factory=list
    )
    #: Largest per-rank transient footprint observed in any phase: the
    #: merge-resident triples plus the stage's input blocks.  This is the
    #: quantity the phase planner (§V) is supposed to keep under the
    #: per-process budget.
    max_rank_resident_bytes: int = 0
    # -- wall-clock overlap scheduler diagnostics (zero when off) --------
    #: In-flight stage window the overlap scheduler ran with (0 when the
    #: scheduler was not armed; 1 means it degraded to single-buffering
    #: because the budget had no room for a prefetched stage).
    overlap_window: int = 0
    #: Stages whose input slabs/exports were prefetched while the parent
    #: was still accounting the previous stage.
    prefetched_stages: int = 0
    #: Modeled seconds of the overlapped (multiply, merge) pairs charged
    #: as a sum (serial) vs as a max (overlapped); the difference is the
    #: modeled critical-path time the overlap hides.  Diagnostics only —
    #: rank clocks are never touched by the scheduler.
    overlap_serial_seconds: float = 0.0
    overlap_overlapped_seconds: float = 0.0
    # -- static pipeline schedule (simulated-clock, cell-invariant) ------
    #: The broadcast schedule the multiply ran under ("sync" | "static").
    schedule: str = "sync"
    #: Link-side double-buffer window of the static schedule: 0 under
    #: sync, 1 when the byte budget degraded static to the synchronous
    #: path, 2 when stage-(k+1) broadcasts genuinely pipelined.
    pipeline_window: int = 0
    #: Simulated seconds async broadcasts spent in flight while the rank
    #: clocks advanced through multiplies and merges — the §III evidence
    #: that broadcast time hides behind compute.
    bcast_overlap_seconds: float = 0.0
    #: Simulated seconds the per-column phase prune ran while the next
    #: stages' broadcasts were still on the wires.
    prune_bcast_overlap_seconds: float = 0.0
    #: Seconds this multiply's broadcasts occupied the link clocks.
    link_busy_seconds: float = 0.0
    # -- split-3D grid model (inert defaults under the 2-D grid) ---------
    #: Grid the multiply's clock/traffic charges were modeled on.
    grid: str = "2d"
    #: Replication factor ``c`` of the 3D charge model (1 under 2-D).
    layers: int = 1
    #: Per-column-group transport selections of this multiply
    #: ("broadcast"/"p2p") — the hybrid-transport evidence.
    transport_selections: Counter = field(default_factory=Counter)
    #: p2p → broadcast demotions the fault ladder performed here.
    transport_demotions: int = 0

    @property
    def overlap_saved_seconds(self) -> float:
        return self.overlap_serial_seconds - self.overlap_overlapped_seconds


def _pick_kernel(
    config: SummaConfig,
    profile,
    gpu_ok: bool,
) -> KernelKind:
    if config.kernel == "hybrid":
        return select_kernel(
            profile,
            gpu_available=config.use_gpu and gpu_ok,
            policy=config.spec.selection_policy(),
        )
    kind = _KERNEL_NAMES[config.kernel]
    if kind.on_gpu and not (config.use_gpu and gpu_ok):
        return KernelKind.CPU_HASH  # forced-GPU config without a usable GPU
    return kind


def _cpu_kernel_ops(kind: KernelKind, a, b, c_nnz: int) -> float:
    if kind is KernelKind.CPU_HEAP:
        return heap_operation_count(a, b)
    return hash_operation_count(a, b, c_nnz)


def _gpu_stage_time(
    spec: MachineSpec,
    kind: KernelKind,
    a: CSCMatrix,
    b: CSCMatrix,
    product: CSCMatrix,
    devices: list[GPUDevice],
    per_col_flops: np.ndarray,
) -> tuple[float, int, int]:
    """Kernel-only seconds (concurrent devices → max share), H2D and D2H
    bytes for one offloaded local multiply, with device-memory checks.

    Raises :class:`DeviceMemoryError` when any device's share does not fit;
    the caller falls back to the CPU kernel (§III's memory rationale for
    the hybrid CPU-GPU approach).
    """
    g = len(devices)
    a_bytes = a.memory_bytes()
    h2d = d2h = 0
    worst = 0.0
    for dev, (lo, hi) in zip(devices, split_columns(b.ncols, g)):
        b_bytes = (
            int(b.indptr[hi] - b.indptr[lo]) * 16 + (hi - lo + 1) * 8
        )
        c_nnz = int(product.indptr[hi] - product.indptr[lo])
        c_bytes = c_nnz * 16 + (hi - lo + 1) * 8
        try:
            dev.allocate("A", a_bytes)
            dev.allocate("B", b_bytes)
            dev.allocate("C", c_bytes)
            dev.count_launch()
        except (DeviceMemoryError, KernelLaunchError):
            dev.free_all()
            raise
        slab_flops = float(per_col_flops[lo:hi].sum())
        cf = slab_flops / c_nnz if c_nnz else 1.0
        worst = max(
            worst,
            spec.gpu_spgemm_time(kind, slab_flops, cf, a_bytes + b_bytes),
        )
        h2d += a_bytes + b_bytes
        d2h += c_bytes
        dev.free_all()
    return worst, h2d, d2h


#: Sentinel for ``summa_multiply(merge_injector=...)``: "not passed" means
#: inherit ``injector`` (the common case); an explicit None disarms the
#: merge fault site (the resilience policy's ``degrade_merge=False``).
_INHERIT = object()


class _RankMergeState:
    """Per-rank merge schedule plus the timing of its events."""

    def __init__(self, shape, merge_kind: str, merge_fn=None):
        self.schedule = SCHEDULES[merge_kind](shape, merge_fn)
        self.events_charged = 0
        self.last_available = 0.0

    def push(self, triples: TripleList, available_at: float):
        self.schedule.push(triples)
        self.last_available = max(self.last_available, available_at)
        return self.schedule.events[self.events_charged :]

    def mark_charged(self):
        self.events_charged = len(self.schedule.events)

    def finish(self):
        outcome = self.schedule.finish()
        new = outcome.events[self.events_charged :]
        self.events_charged = len(outcome.events)
        return outcome, new


def summa_multiply(
    dist_a: DistributedCSC,
    dist_b: DistributedCSC,
    comm: VirtualComm,
    config: SummaConfig,
    *,
    phases: int = 1,
    phase_callback=None,
    phase_column_callback=None,
    devices: dict[int, list[GPUDevice]] | None = None,
    injector=None,
    executor=None,
    workers: int | str | None = None,
    backend: str | None = None,
    overlap: bool | str | None = None,
    overlap_budget_bytes: int | None = None,
    merge_impl: str | None = None,
    merge_injector=_INHERIT,
    model=None,
) -> SummaResult:
    """Compute ``C = A·B`` on the grid, per the configured algorithm.

    ``phase_callback(blocks, phase_index)`` receives the phase's per-rank
    output slabs (dict ``(i, j) -> CSCMatrix``) and returns the (pruned)
    slabs to keep; rank clocks may be charged inside the callback (the
    HipMCL driver charges pruning there).

    ``phase_column_callback(col_blocks, j, phase_index)`` is the static
    schedule's incremental variant: under ``config.schedule ==
    "static"`` it is called once per block column ``j`` as soon as that
    column's merges finish — while the next stages' broadcasts are still
    in flight on the links — with the column's ``{(i, j): CSCMatrix}``
    slabs.  It returns the pruned slabs, or a zero-argument callable the
    engine resolves in column order after the phase's last column (so a
    pool-backed prune can overlap the remaining columns' merges on the
    wall clock).  When the static schedule is off or degraded to
    synchronous, this callback is ignored and ``phase_callback`` runs as
    usual — callers should pass both.

    ``executor`` (or ``workers`` and ``backend``, resolved through
    :func:`repro.parallel.get_executor`) selects the wall-clock backend:
    with a pool executor, each stage's independent ``(i, j)`` local
    products are computed across the pool *before* the serial accounting
    pass consumes them in the usual ``(i, j)`` order — modeled clocks,
    traces, and fault draws are untouched, so every ``(backend, workers)``
    combination is bit-identical to ``workers=1``.

    ``overlap`` (default ``REPRO_OVERLAP``, else off) arms the pipelined
    stage-overlap scheduler: the stage-(k+1) batch — its B phase slabs —
    is built and submitted *before* the parent runs the stage-k accounting pass,
    so the pool computes the next stage's local multiplies while the
    parent merges the previous stage's intermediates.  The in-flight
    window is double-buffered at most and shrinks to 1 when
    ``overlap_budget_bytes`` (the §V estimator budget) has no room for a
    prefetched stage.  The scheduler reorders only *pure* computation;
    every clock charge, fault draw, trace event and merge happens in the
    same serial order, so ``overlap=True`` is bit-identical to serial.

    ``injector`` threads fault injection into the engine-created devices
    and the CPU hash kernel.  Faulted kernels demote along the ladder
    (GPU → CPU-hash → heap); *injected* faults additionally charge the
    aborted attempt's staging/compute time under the resilience account,
    so recovery shows up in the simulated timelines.  Numerics never
    change — only which kernel kind is charged.

    ``merge_impl`` (explicit > ``config.merge_impl`` > ``REPRO_MERGE_IMPL``
    > auto) selects the SpKAdd engine the physical merges run with; all
    options are bit-identical to the serial merge, so it composes freely
    with every backend/overlap combination.  ``merge_injector`` (defaults
    to ``injector``) arms the merge-memory-overrun fault site: an injected
    overrun charges the overrunning attempt's modeled time under the
    resilience account and demotes the strategy ladder for the rest of the
    run.  Draws happen once per merge event in the serial accounting pass,
    so injections are identical across every execution cell too.

    ``model`` (a :class:`~repro.summa.engine3d.Grid3DModel`, or None for
    the plain 2-D grid) redirects where the simulated time and traffic
    land: broadcasts become per-layer tree broadcasts (with the hybrid
    broadcast-vs-p2p transport selection), kernel and merge charges move
    to the owning 3D cell's clock, and the 2D→3D redistribution plus the
    per-fiber combine are charged around the multiply.  The numeric path
    — block products, merge pushes, pruning — is byte-for-byte the 2-D
    one, so ``model`` changes simulated clocks only, never results.
    """
    grid = dist_a.grid
    if dist_b.grid.q != grid.q:
        raise ValueError(
            f"grid mismatch: A on {grid.q}x{grid.q}, B on "
            f"{dist_b.grid.q}x{dist_b.grid.q}"
        )
    if dist_a.global_shape[1] != dist_b.global_shape[0]:
        raise ValueError(
            f"inner dimension mismatch: {dist_a.global_shape} x "
            f"{dist_b.global_shape}"
        )
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    q = grid.q
    spec = config.spec
    if executor is None:
        from ..parallel import get_executor

        executor = get_executor(workers, backend)
    #: The observability tracer (None in the common untraced case); all
    #: instrumentation below is passive — it never touches rank clocks,
    #: fault draws, or result accounting, keeping traced runs bit-identical.
    tracer = current_tracer()
    # Real-kernel runs recompute products with the genuinely selected
    # kernel inside the accounting pass, so pre-batching would be wasted.
    parallel_stages = executor.workers > 1 and not config.run_real_kernels
    from ..parallel import resolve_overlap

    overlap_active = False
    acct = None
    armed_window = 0
    static_requested = config.schedule == "static"
    static_active = False
    pipeline_window = 0
    if static_requested or (resolve_overlap(overlap) and parallel_stages):
        from .phases import OverlapAccounting, overlap_window

        # Per-rank footprint of one in-flight stage: the largest A block
        # plus the largest B phase slab (a block's columns split h ways).
        a_max = max(
            (
                dist_a.block_storage_bytes(i, kk)
                for i in range(q)
                for kk in range(q)
            ),
            default=0,
        )
        b_max = max(
            (
                dist_b.block_storage_bytes(kk, j)
                for kk in range(q)
                for j in range(q)
            ),
            default=0,
        )
        stage_bytes = int(a_max + (b_max + phases - 1) // phases)
        window = overlap_window(stage_bytes, overlap_budget_bytes)
        if resolve_overlap(overlap) and parallel_stages:
            armed_window = window
            overlap_active = armed_window > 1 and q > 1
            if overlap_active:
                acct = OverlapAccounting()
        if static_requested:
            # Same byte bound as the wall-clock prefetch: double-buffered
            # broadcasts hold a second stage of slabs live, so a budget
            # with no room degrades to the synchronous schedule.  Unlike
            # ``overlap_active`` this is independent of the executor —
            # the static schedule changes simulated time and must be
            # identical across every (backend, workers) cell.
            pipeline_window = window
            static_active = pipeline_window > 1
    if devices is None and config.use_gpu:
        devices = {
            r: [
                GPUDevice(spec, index=d, injector=injector)
                for d in range(config.gpus_per_process)
            ]
            for r in range(grid.size)
        }

    result = SummaResult(
        dist_c=DistributedCSC(
            (dist_a.global_shape[0], dist_b.global_shape[1]), grid, {}
        ),
        phases=phases,
    )
    result.overlap_window = armed_window
    result.schedule = config.schedule
    result.pipeline_window = pipeline_window
    link_busy_before = comm.link_busy_seconds()
    sel_before = dem_before = None
    if model is not None:
        if model.q != q:
            raise ValueError(
                f"grid model built for q={model.q}, matrices on q={q}"
            )
        # The model lives across a whole run; record its counters so the
        # result reports only this multiply's selections and demotions.
        sel_before = Counter(model.transport_selections)
        dem_before = model.transport_demotions
        model.charge_redistribution(comm, dist_a.nnz + dist_b.nnz)
    kept_slabs: dict[tuple[int, int], list[CSCMatrix]] = {
        (i, j): [] for i in range(q) for j in range(q)
    }

    if merge_injector is _INHERIT:
        merge_injector = injector
    impl = resolve_merge_impl(
        merge_impl if merge_impl is not None else config.merge_impl
    )
    result.merge_impl = impl
    from .phases import plan_merge_strategy

    #: Recovery-ladder rung injected merge overruns have pushed the run
    #: to (one-element list: the closure reads it, the fault sites write).
    merge_rung = [0]

    def engine_merge(lists):
        """The schedules' numeric engine: plan a strategy, maybe fan out.

        Planning sees only the inputs, the budget, and the recovery rung —
        never the executor — so ``merge_strategy_selections`` is identical
        across cells; only *where* the partitions physically run varies.
        """
        total = sum(len(t) for t in lists)
        strategy = plan_merge_strategy(
            impl, total, lists[0].shape,
            budget_bytes=overlap_budget_bytes, rung=merge_rung[0],
        )
        result.merge_strategy_selections[strategy] += 1
        if tracer is not None:
            tracer.metric(
                "merge.strategy", total,
                strategy=strategy, impl=impl, k=len(lists),
            )
            tracer.count(f"merge.{strategy}")
        if strategy == "serial":
            return merge_lists(lists, copy=False)
        stats: dict = {}
        fan_executor = (
            executor
            if parallel_stages and total >= MERGE_FANOUT_MIN_ELEMENTS
            else None
        )
        merged = spkadd_merge(
            lists, strategy=strategy, executor=fan_executor, stats=stats
        )
        result.merge_peak_partition_elements = max(
            result.merge_peak_partition_elements,
            stats.get("peak_partition_elements", 0),
        )
        return merged

    # Pre-slice B's blocks per phase (local column ranges align across a
    # block column because widths are identical within it).  Slabs are
    # memoized on their source block — together with their broadcast byte
    # count, so re-expanding the same matrix (every MCL iteration revisits
    # every stage) never recomputes the slice *or* its nonzero-column scan.
    def phase_slab(k: int, j: int, p: int) -> tuple[CSCMatrix, int]:
        from ..perf.cache import memo

        blk = dist_b.block(k, j)
        lo, hi = _phase_bounds(blk.ncols, phases, p)

        def build():
            slab = blk.column_slab(lo, hi)
            nzc = int(np.count_nonzero(slab.column_lengths()))
            return slab, 16 * slab.nnz + 16 * nzc + 8

        return memo(blk, ("slab", lo, hi), build)

    # -- static pipeline schedule: precomputed stage graph ----------------
    # The whole expansion — every (phase, stage) with its broadcast
    # channels — is built up front and walked flat across phase
    # boundaries: node n+2's broadcasts are posted the moment node n's
    # slabs are consumed, so the last stage of phase p overlaps the first
    # broadcasts of phase p+1, and the per-column prune between them runs
    # while those broadcasts are on the wires.  `node_consumed[n]` gates
    # the double buffer: issue(s) waits for consumed(s-2), bounding live
    # slabs to two stages exactly like `overlap_window`.
    static_nodes = node_handles = None
    node_consumed: dict[int, float] = {}
    issue_base = 0.0
    if static_active:
        from .phases import build_stage_graph

        static_nodes = build_stage_graph(q, phases)
        node_handles = {}
        issue_base = max(c.now for c in comm.clocks)

    def _window_overlap(w0: float, w1: float, h) -> float:
        return max(0.0, min(w1, h.end) - max(w0, h.start))

    def issue_node(n: int) -> None:
        node = static_nodes[n]
        gate = node_consumed.get(n - 2, issue_base)
        k, pp = node.stage, node.phase
        a_handles = []
        b_handles = []
        a_bytes_row = np.zeros(q, dtype=np.int64)
        b_bytes_col = np.zeros(q, dtype=np.int64)
        with maybe_span(
            "broadcast", "summa", phase=pp, stage=k, schedule="static"
        ) as bsp:
            if model is not None:
                # The 3D model posts the stage's transfers itself on
                # layer-prefixed channels; the physical per-rank block
                # residency (input_bytes_peak) is grid-independent.
                slabs_n: list[CSCMatrix] = []
                slab_bytes_n: list[int] = []
                for j in range(q):
                    slab, nbytes = phase_slab(k, j, pp)
                    slabs_n.append(slab)
                    slab_bytes_n.append(nbytes)
                    b_bytes_col[j] = nbytes
                for i in range(q):
                    a_bytes_row[i] = dist_a.block_storage_bytes(i, k)
                a_handles, b_handles, uniq = model.post_stage_async(
                    comm, k, pp, dist_a, slabs_n, slab_bytes_n, gate
                )
            else:
                for i in range(q):
                    nbytes = dist_a.block_storage_bytes(i, k)
                    a_bytes_row[i] = nbytes
                    h = comm.broadcast_async(
                        grid.row_members(i), nbytes, "summa_bcast",
                        channel=node.row_channels[i], ready_at=gate,
                    )
                    a_handles.append(h)
                    if config.trace:
                        result.trace.append(
                            (grid.rank_of(i, k), pp, k, "bcast_A",
                             h.start, h.end)
                        )
                for j in range(q):
                    nbytes = phase_slab(k, j, pp)[1]
                    b_bytes_col[j] = nbytes
                    h = comm.broadcast_async(
                        grid.col_members(j), nbytes, "summa_bcast",
                        channel=node.col_channels[j], ready_at=gate,
                    )
                    b_handles.append(h)
                    if config.trace:
                        result.trace.append(
                            (grid.rank_of(k, j), pp, k, "bcast_B",
                             h.start, h.end)
                        )
                uniq = [*a_handles, *b_handles]
            bsp.set(
                bytes_a=int(a_bytes_row.sum()),
                bytes_b=int(b_bytes_col.sum()),
            )
        node_handles[n] = (
            a_handles, b_handles, a_bytes_row, b_bytes_col, uniq
        )

    if static_active:
        issue_node(0)
        if len(static_nodes) > 1:
            issue_node(1)

    for p in range(phases):
        merge_states = {
            (i, j): _RankMergeState(
                (
                    dist_a.block(i, 0).nrows,
                    _phase_width(dist_b.block(0, j).ncols, phases, p),
                ),
                config.merge,
                engine_merge,
            )
            for i in range(q)
            for j in range(q)
        }
        input_bytes_peak = np.zeros((q, q), dtype=np.int64)

        # Stages prepared ahead of the serial pass: k -> (slabs, slab
        # byte counts, batched (i, j) pairs, in-flight batch handle).
        # Preparing a stage builds (or memo-hits) its B phase slabs and
        # submits its local-multiply batch, so preparing stage k+1 early
        # is exactly the §III prefetch.
        staged: dict[int, tuple] = {}

        def submit_stage(k: int, prefetch: bool = False) -> None:
            with maybe_span(
                "prefetch" if prefetch else "submit", "summa",
                phase=p, stage=k,
            ) as sp:
                slabs: list[CSCMatrix] = []
                slab_bytes: list[int] = []
                for j in range(q):
                    slab, nbytes = phase_slab(k, j, p)
                    slabs.append(slab)
                    slab_bytes.append(nbytes)
                pairs: list[tuple[int, int]] = []
                handle = None
                if parallel_stages:
                    from ..parallel.work import local_multiply

                    pairs = [
                        (i, j)
                        for i in range(q)
                        if dist_a.block(i, k).nnz
                        for j in range(q)
                        if slabs[j].nnz
                    ]
                    if pairs:
                        handle = executor.submit_batch(
                            local_multiply,
                            [(dist_a.block(i, k), slabs[j]) for i, j in pairs],
                            label=f"summa phase {p} stage {k}",
                            attrs={"phase": p, "stage": k},
                        )
                sp.set(tasks=len(pairs))
                staged[k] = (slabs, slab_bytes, pairs, handle)

        # Per-stage modeled durations feeding the overlap diagnostics:
        # stage-k merges overlap stage-(k+1) multiplies.
        mult_seconds = np.zeros(q)
        merge_seconds = np.zeros(q)
        for k in range(q):
            if k not in staged:
                submit_stage(k)
            slabs, slab_bytes, pairs, handle = staged.pop(k)
            node_idx = p * q + k
            a_handles = b_handles = None
            stage_window_t0 = 0.0
            if static_active:
                # Broadcasts were posted on the links one-or-two stages
                # ago; this stage just picks up its handles.  The window
                # [now, consumed] is where their in-flight time overlaps
                # this stage's compute — the bcast_overlap evidence.
                a_handles, b_handles, a_bytes_row, b_bytes_col, stage_uniq = (
                    node_handles.pop(node_idx)
                )
                stage_window_t0 = max(c.now for c in comm.clocks)
            else:
                # -- broadcasts: A along rows, B along columns --------------
                a_bytes_row = np.zeros(q, dtype=np.int64)
                b_bytes_col = np.zeros(q, dtype=np.int64)
                with maybe_span(
                    "broadcast", "summa", phase=p, stage=k
                ) as bsp:
                    if model is not None:
                        for i in range(q):
                            a_bytes_row[i] = dist_a.block_storage_bytes(i, k)
                        for j in range(q):
                            b_bytes_col[j] = slab_bytes[j]
                        model.charge_stage_sync(
                            comm, k, p, dist_a, slabs, slab_bytes
                        )
                    else:
                        for i in range(q):
                            members = grid.row_members(i)
                            nbytes = dist_a.block_storage_bytes(i, k)
                            a_bytes_row[i] = nbytes
                            res = comm.broadcast(
                                members, nbytes, "summa_bcast"
                            )
                            if config.trace:
                                result.trace.append(
                                    (grid.rank_of(i, k), p, k, "bcast_A",
                                     res.start, res.end)
                                )
                        for j in range(q):
                            nbytes = slab_bytes[j]
                            b_bytes_col[j] = nbytes
                            members = grid.col_members(j)
                            res = comm.broadcast(
                                members, nbytes, "summa_bcast"
                            )
                            if config.trace:
                                result.trace.append(
                                    (grid.rank_of(k, j), p, k, "bcast_B",
                                     res.start, res.end)
                                )
                    bsp.set(
                        bytes_a=int(a_bytes_row.sum()),
                        bytes_b=int(b_bytes_col.sum()),
                    )
            np.maximum(
                input_bytes_peak,
                a_bytes_row[:, None] + b_bytes_col[None, :],
                out=input_bytes_peak,
            )
            # -- local multiplies ---------------------------------------------
            # With a pool executor, every (i, j) product of the stage is
            # computed across the pool up front; the accounting pass below
            # then consumes them in the same deterministic (i, j) order it
            # would have computed them in.  Serially, the handle stays
            # None and the pass computes inline — byte-for-byte the old
            # path.  With overlap armed, stage k+1 is built and submitted
            # *before* stage k is gathered: the pool's workers roll
            # straight from stage-k tasks into stage-(k+1) tasks while
            # the parent runs stage k's accounting and merge events.
            if overlap_active and k + 1 < q:
                submit_stage(k + 1, prefetch=True)
                result.prefetched_stages += 1
            stage_products = None
            if handle is not None:
                with maybe_span(
                    "gather", "summa", phase=p, stage=k, tasks=len(pairs)
                ):
                    stage_products = dict(zip(pairs, handle.result()))
            # The whole accounting-and-merge pass is one main-lane span;
            # with overlap armed, stage-(k+1) worker multiplies run under
            # it — the trace's evidence of the §III pipeline.
            merge_span = maybe_span("merge", "summa", phase=p, stage=k)
            stage_available = 0.0
            for i in range(q):
                a_blk = dist_a.block(i, k)
                a_col_lens = a_blk.column_lengths()
                for j in range(q):
                    rank = (
                        model.cell_rank(i, j, k)
                        if model is not None
                        else grid.rank_of(i, j)
                    )
                    clock = comm.clocks[rank]
                    b_blk = slabs[j]
                    state = merge_states[(i, j)]
                    if a_blk.nnz == 0 or b_blk.nnz == 0:
                        continue
                    # Under the static schedule a local multiply cannot
                    # start before its inputs are off the wires; the sync
                    # schedule already blocked the CPUs in the collective,
                    # so 0.0 reproduces its numbers bit-for-bit.
                    ready = 0.0
                    if static_active:
                        ready = max(a_handles[i].end, b_handles[j].end)
                    if stage_products is not None:
                        product, per_col = stage_products[(i, j)]
                    else:
                        product = spgemm_esc(a_blk, b_blk)
                        per_col = _per_column_flops(a_col_lens, b_blk)
                    profile = _profile_from_per_col(
                        per_col, a_blk, b_blk, product.nnz
                    )
                    result.stage_flops += profile.flops
                    gpu_ok = config.use_gpu and devices is not None
                    kind = _pick_kernel(config, profile, gpu_ok)
                    if config.run_real_kernels and product.nnz:
                        from ..spgemm.hybrid import run_kernel

                        product = run_kernel(kind, a_blk, b_blk)
                    while kind.on_gpu:
                        try:
                            kern_s, h2d, d2h = _gpu_stage_time(
                                spec, kind, a_blk, b_blk, product,
                                devices[rank], per_col,
                            )
                            break
                        except (DeviceMemoryError, KernelLaunchError) as exc:
                            # Degradation ladder: the device failed this
                            # stage (genuine OOM or injected transient),
                            # so the multiply moves down a rung.  Only
                            # injected faults charge the aborted staging
                            # — a genuine OOM is caught before any copy.
                            result.gpu_fallbacks += 1
                            if tracer is not None:
                                tracer.instant(
                                    "fault.gpu_fallback", "resilience",
                                    rank=rank, phase=p, stage=k,
                                    kernel=kind.value,
                                    injected=isinstance(exc, InjectedFault),
                                )
                            if isinstance(exc, InjectedFault):
                                waste = spec.h2d_time(a_blk.memory_bytes())
                                start = max(
                                    clock.cpu.free_at, clock.gpu.free_at,
                                    ready,
                                )
                                clock.cpu.schedule(
                                    start, waste, RESILIENCE_ACCOUNT
                                )
                                clock.gpu.schedule(
                                    start, waste, RESILIENCE_ACCOUNT
                                )
                            kind = degrade_kernel(kind)
                    if (
                        injector is not None
                        and kind is KernelKind.CPU_HASH
                        and injector.cpu_kernel_fault()
                    ):
                        # Injected host hash-table overflow: charge the
                        # aborted hash attempt, demote to the heap.
                        ops = _cpu_kernel_ops(
                            kind, a_blk, b_blk, product.nnz
                        )
                        clock.cpu.schedule(
                            ready,
                            spec.cpu_spgemm_time(kind, ops, config.threads),
                            RESILIENCE_ACCOUNT,
                        )
                        result.kernel_demotions += 1
                        if tracer is not None:
                            tracer.instant(
                                "fault.kernel_demotion", "resilience",
                                rank=rank, phase=p, stage=k,
                                kernel=kind.value,
                            )
                        kind = degrade_kernel(kind)
                    result.kernel_selections[kind.value] += 1
                    if tracer is not None:
                        tracer.metric(
                            "kernel_dispatch", profile.flops,
                            kernel=kind.value, cf=profile.cf,
                            nnz_c=profile.nnz_c, rank=rank,
                            phase=p, stage=k,
                        )
                        tracer.count(f"kernel.{kind.value}")
                    if kind.on_gpu:
                        # Transfer occupies both host and device; the CPU
                        # is released as soon as the inputs are on the
                        # device (§III), the GPU continues into the kernel.
                        start = max(
                            clock.cpu.free_at, clock.gpu.free_at, ready
                        )
                        h2d_s = spec.h2d_time(h2d)
                        clock.cpu.schedule(start, h2d_s, "h2d")
                        clock.gpu.schedule(start, h2d_s, "h2d")
                        mult_end = clock.gpu.schedule(
                            clock.gpu.free_at, kern_s, "local_spgemm"
                        )
                        mult_seconds[k] += kern_s
                        done = clock.gpu.schedule(
                            clock.gpu.free_at, spec.d2h_time(d2h), "d2h"
                        )
                        if config.trace:
                            result.trace.extend(
                                (
                                    (rank, p, k, "h2d", start, start + h2d_s),
                                    (rank, p, k, "gpu_mult",
                                     mult_end - kern_s, mult_end),
                                    (rank, p, k, "d2h", mult_end, done),
                                )
                            )
                        result.h2d_bytes += h2d
                        result.d2h_bytes += d2h
                        if not config.pipelined and done > clock.cpu.free_at:
                            # Bulk-synchronous: the CPU blocks on the
                            # device result before doing anything else.
                            clock.cpu.idle += done - clock.cpu.free_at
                            clock.cpu.free_at = done
                        available = done
                    else:
                        ops = _cpu_kernel_ops(kind, a_blk, b_blk, product.nnz)
                        dur = spec.cpu_spgemm_time(kind, ops, config.threads)
                        available = clock.cpu.schedule(
                            ready, dur, "local_spgemm"
                        )
                        mult_seconds[k] += dur
                        if config.trace:
                            result.trace.append(
                                (rank, p, k, "cpu_mult",
                                 available - dur, available)
                            )
                    stage_available = max(stage_available, available)
                    # -- merge events triggered by this arrival -----------------
                    new_events = state.push(
                        TripleList.from_csc(product, copy=False), available
                    )
                    for ev in new_events:
                        dur = spec.merge_time(ev.operations, config.threads)
                        if (
                            merge_injector is not None
                            and merge_injector.merge_fault()
                        ):
                            # Injected merge-memory overrun: the attempt's
                            # modeled time is wasted, and the strategy
                            # ladder degrades for the rest of the run.
                            clock.cpu.schedule(
                                max(clock.cpu.free_at, available), dur,
                                RESILIENCE_ACCOUNT,
                            )
                            result.merge_demotions += 1
                            merge_rung[0] = min(
                                merge_rung[0] + 1, len(STRATEGY_LADDER) - 1
                            )
                            if tracer is not None:
                                tracer.instant(
                                    "fault.merge_overrun", "resilience",
                                    rank=rank, phase=p, stage=k,
                                )
                        end = clock.cpu.schedule(
                            max(clock.cpu.free_at, available), dur, "merge"
                        )
                        merge_seconds[k] += dur
                        if config.trace:
                            result.trace.append(
                                (rank, p, k, "merge", end - dur, end)
                            )
                    state.mark_charged()
            merge_span.close()
            if static_active:
                # This stage's slabs are consumed once every multiply has
                # its inputs absorbed *and* the broadcasts themselves have
                # drained (empty blocks skip the multiply but the wires
                # still carried them).  consumed(n) gates issue(n+2).
                consumed_t = stage_available
                for h in stage_uniq:
                    consumed_t = max(consumed_t, h.end)
                node_consumed[node_idx] = consumed_t
                window_t1 = max(c.now for c in comm.clocks)
                live = [stage_uniq] + [
                    hs[4] for hs in node_handles.values()
                ]
                for handles in live:
                    for h in handles:
                        result.bcast_overlap_seconds += _window_overlap(
                            stage_window_t0, window_t1, h
                        )
                if node_idx + 2 < len(static_nodes):
                    issue_node(node_idx + 2)
            if not config.pipelined:
                comm.barrier()
        if acct is not None:
            for kk in range(q - 1):
                acct.charge(
                    float(mult_seconds[kk + 1]), float(merge_seconds[kk])
                )
        # -- phase wrap-up: final merges, callback -----------------------------
        def finish_state(i: int, j: int) -> CSCMatrix:
            # Final merges run on the block's post-combine owner — under
            # the 3D model that is the home cell the fiber combine
            # returned the partials to.
            rank = (
                model.home_rank(i, j)
                if model is not None
                else grid.rank_of(i, j)
            )
            clock = comm.clocks[rank]
            state = merge_states[(i, j)]
            outcome, new_events = state.finish()
            for ev in new_events:
                dur = spec.merge_time(ev.operations, config.threads)
                if merge_injector is not None and merge_injector.merge_fault():
                    clock.cpu.schedule(
                        max(clock.cpu.free_at, state.last_available), dur,
                        RESILIENCE_ACCOUNT,
                    )
                    result.merge_demotions += 1
                    merge_rung[0] = min(
                        merge_rung[0] + 1, len(STRATEGY_LADDER) - 1
                    )
                    if tracer is not None:
                        tracer.instant(
                            "fault.merge_overrun", "resilience",
                            rank=rank, phase=p,
                        )
                clock.cpu.schedule(
                    max(clock.cpu.free_at, state.last_available), dur,
                    "merge",
                )
            result.merge_operations += outcome.operations
            result.merge_peak_event_elements = max(
                result.merge_peak_event_elements, outcome.peak_event_elements
            )
            result.merge_peak_resident_elements = max(
                result.merge_peak_resident_elements,
                outcome.peak_resident_elements,
            )
            result.max_rank_resident_bytes = max(
                result.max_rank_resident_bytes,
                outcome.peak_resident_elements * 24
                + int(input_bytes_peak[i, j]),
            )
            return outcome.result.to_csc()

        phase_blocks: dict[tuple[int, int], CSCMatrix] = {}
        if static_active and phase_column_callback is not None:
            # Incremental prune: each block column is finished and handed
            # to the callback as soon as its own merges are done, while
            # the next stages' broadcasts (already posted above, up to
            # two stages into phase p+1) are still in flight on the
            # links.  The callback may defer its physical compute by
            # returning a callable — resolved below in column order, so
            # the results are independent of where the work actually ran.
            deferred: list = []
            for j in range(q):
                col_ranks = grid.col_members(j)
                # The column's inter-phase prune stage spans its final
                # merges *and* the callback: that whole window runs while
                # the posted next-phase broadcasts drain on the links, so
                # the overlap evidence opens when the column's wrap-up
                # starts, not after its merges land.
                prune_t0 = min(
                    comm.clocks[r].cpu.free_at for r in col_ranks
                )
                if model is not None:
                    # The per-fiber all-to-all combine returns this
                    # column's c partial slabs to their 2-D owners
                    # before its final merges and prune.
                    model.charge_fiber_combine(
                        comm, j,
                        sum(
                            merge_states[(i, j)].schedule.peak_resident
                            for i in range(q)
                        ),
                        config.threads,
                    )
                with maybe_span(
                    "finish_merge", "summa", phase=p, column=j
                ):
                    col_blocks = {
                        (i, j): finish_state(i, j) for i in range(q)
                    }
                with maybe_span(
                    "phase_callback", "summa", phase=p, column=j
                ):
                    ret = phase_column_callback(col_blocks, j, p)
                prune_t1 = max(
                    comm.clocks[r].cpu.free_at for r in col_ranks
                )
                if tracer is not None:
                    # The column's true simulated wrap-up window (its
                    # ranks' clocks, not the global frontier) — the span
                    # link_overlap_report intersects with the in-flight
                    # broadcasts.
                    tracer.event_span(
                        "prune.column", "summa",
                        t0_sim=prune_t0, t1_sim=prune_t1,
                        phase=p, column=j,
                    )
                for hs in node_handles.values():
                    for h in (*hs[0], *hs[1]):
                        result.prune_bcast_overlap_seconds += (
                            _window_overlap(prune_t0, prune_t1, h)
                        )
                if callable(ret):
                    deferred.append(ret)
                else:
                    phase_blocks.update(ret)
            for fn in deferred:
                phase_blocks.update(fn())
        else:
            if model is not None:
                for j in range(q):
                    model.charge_fiber_combine(
                        comm, j,
                        sum(
                            merge_states[(i, j)].schedule.peak_resident
                            for i in range(q)
                        ),
                        config.threads,
                    )
            finish_span = maybe_span("finish_merge", "summa", phase=p)
            for (i, j) in merge_states:
                phase_blocks[(i, j)] = finish_state(i, j)
            finish_span.close()
            if phase_callback is not None:
                with maybe_span("phase_callback", "summa", phase=p):
                    phase_blocks = phase_callback(phase_blocks, p)
        for key, blk in phase_blocks.items():
            kept_slabs[key].append(blk)
        if not config.pipelined:
            comm.barrier()

    for key, slabs in kept_slabs.items():
        result.dist_c.blocks[key] = hstack_csc(slabs)
    if acct is not None:
        result.overlap_serial_seconds = acct.serial_seconds
        result.overlap_overlapped_seconds = acct.overlapped_seconds
    result.link_busy_seconds = comm.link_busy_seconds() - link_busy_before
    if model is not None:
        result.grid = "3d"
        result.layers = model.layers
        result.transport_selections = (
            Counter(model.transport_selections) - sel_before
        )
        result.transport_demotions = model.transport_demotions - dem_before
    return result


def _phase_bounds(ncols: int, phases: int, p: int) -> tuple[int, int]:
    """Near-even column range of phase ``p`` within a local block."""
    base, extra = divmod(ncols, phases)
    lo = p * base + min(p, extra)
    return lo, lo + base + (1 if p < extra else 0)


def _phase_width(ncols: int, phases: int, p: int) -> int:
    """Column count of phase ``p`` without materializing the slab."""
    lo, hi = _phase_bounds(ncols, phases, p)
    return hi - lo
