"""Which program names the ledger wraps, and the counters each records.

Every target is a ``"module:name"`` where callers look the name up at
call time: a ``from x import f`` in a caller copies the binding, so the
caller's module is patched, not ``x``.  The layer names follow the
repository's modules.
"""

from __future__ import annotations

from .ledger import TASK


def _nbytes(mat) -> int:
    return mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes


def _spgemm_counts(ledger, product, a, b, flops) -> None:
    ledger.count("spgemm.calls")
    ledger.count("spgemm.flops", flops)
    ledger.count("spgemm.out_nnz", product.nnz)
    ledger.count(
        "spgemm.bytes_computed", _nbytes(a) + _nbytes(b) + _nbytes(product)
    )


def _after_spgemm(ledger, out, args, kwargs):
    a, b = args[0], args[1]
    flops = int(a.column_lengths()[b.indices].sum())
    _spgemm_counts(ledger, out, a, b, flops)


def _after_local_multiply(ledger, out, args, kwargs):
    product, per_col = out
    _spgemm_counts(ledger, product, args[0], args[1], int(per_col.sum()))


def _after_merge(ledger, out, args, kwargs):
    ledger.count("merge.calls")
    ledger.count("merge.in_elements", sum(len(t) for t in args[0]))
    ledger.count("merge.out_elements", len(out))


def _counter(name):
    def after(ledger, out, args, kwargs):
        ledger.count(name)

    return after


def _after_prune_columns(ledger, out, args, kwargs):
    stats = out[1]
    ledger.count("prune.in", stats.entries_in)
    ledger.count("prune.out", stats.entries_out)


def _after_distributed_prune(ledger, out, args, kwargs):
    ledger.count("prune.in", sum(b.nnz for b in args[0]))
    ledger.count("prune.out", sum(b.nnz for b in out))


def _after_hipmcl(ledger, out, args, kwargs):
    # A warm-started call delegates to an inner cold call on the dirty
    # subgraph; count each clustering once, at the innermost call.
    if kwargs.get("warm_start") is not None:
        return
    ledger.count("mcl.runs")
    ledger.count("mcl.iterations", out.iterations)
    ledger.count("model.gpu_fallbacks", out.gpu_fallbacks)
    for kind, n in out.kernel_selections.items():
        ledger.count(f"model.kernel.{getattr(kind, 'value', kind)}", n)
    for it in out.history:
        if it.estimator_used != "symbolic" and it.exact_nnz:
            ledger.count("estimator.err_iters")
            ledger.count(
                "estimator.err_sum",
                abs(it.estimated_nnz - it.exact_nnz) / it.exact_nnz,
            )


def _after_dirty(ledger, out, args, kwargs):
    ledger.count("locality.dirty", len(out))
    ledger.count("locality.vertices", args[0].ncols)


def _after_batch(ledger, out, args, kwargs):
    ledger.count("parallel.batches")
    ledger.count("parallel.tasks", len(args[2]))


_MACHINE_TIMES = (
    "gpu_spgemm_time", "cpu_spgemm_time", "h2d_time", "d2h_time",
    "bcast_time", "p2p_time", "allreduce_time", "alltoall_time",
    "merge_time", "symbolic_time", "estimator_time", "prune_time",
    "topk_time", "inflate_time",
)

#: ``(target, layer, after)`` for the clustering stack.
CLUSTER_LAYERS = [
    ("repro.mcl.hipmcl:hipmcl", "mcl.driver", _after_hipmcl),
    ("repro.mcl.hipmcl:summa_multiply", "summa", _counter("summa.calls")),
    ("repro.summa.engine:spgemm_esc", "spgemm", _after_spgemm),
    ("repro.parallel.work:local_multiply", "spgemm", _after_local_multiply),
    ("repro.summa.engine:merge_lists", "merge", _after_merge),
    ("repro.summa.engine:spkadd_merge", "merge", _after_merge),
    ("repro.merge.spkadd:merge_range", "merge", None),
    ("repro.mcl.hipmcl:estimate_nnz", "estimator",
     _counter("estimator.prob_calls")),
    ("repro.mcl.hipmcl:symbolic_nnz", "estimator",
     _counter("estimator.symbolic_calls")),
    ("repro.mcl.hipmcl:prune_columns", "prune", _after_prune_columns),
    ("repro.mcl.hipmcl:distributed_prune_block_column", "prune",
     _after_distributed_prune),
    ("repro.mcl.distributed_prune:distributed_prune_block_column", "prune",
     _after_distributed_prune),
    ("repro.mcl.hipmcl:inflate", "inflate", None),
    ("repro.mcl.hipmcl:connected_components", "components", None),
    ("repro.mpi.comm:VirtualComm.broadcast", "model", _counter("model.calls")),
    ("repro.mpi.comm:VirtualComm.broadcast_async", "model",
     _counter("model.calls")),
    *(
        (f"repro.machine.spec:MachineSpec.{name}", "model",
         _counter("model.calls"))
        for name in _MACHINE_TIMES
    ),
    ("repro.parallel.threads:ThreadExecutor.submit_batch", "parallel.submit",
     _after_batch),
    ("repro.parallel.threads:_ThreadBatch.result", "parallel.wait", None),
    ("repro.parallel.threads:_run_task", TASK, None),
]

#: The service, resilience and locality layers the delta jobs add.
SERVICE_LAYERS = [
    ("repro.service.api:ClusterService.submit", "service.submit", None),
    ("repro.service.runner:ServiceRunner.run_once", "service.runner", None),
    *(
        (f"repro.service.queue:JobQueue.{name}", "service.queue", None)
        for name in ("submit", "claim", "mark_running", "heartbeat",
                     "complete", "requeue_expired", "get")
    ),
    ("repro.service.cache:ResultCache.get", "service.cache", None),
    ("repro.service.cache:ResultCache.put", "service.cache", None),
    ("repro.service.jobs:graph_fingerprint", "service.cache", None),
    ("repro.service.jobs:JobSpec.load_graph", "service.load_graph", None),
    ("repro.resilience.checkpoint:save_checkpoint", "checkpoint",
     _counter("checkpoint.writes")),
    ("repro.resilience.checkpoint:load_checkpoint", "checkpoint", None),
    ("repro.locality.delta:run_warm_start", "locality", None),
    ("repro.locality.delta:dirty_vertices", "locality", _after_dirty),
    ("repro.locality.delta:induced_subgraph", "locality", None),
    ("repro.locality.delta:GraphDelta.apply", "locality", None),
]

#: Set-up I/O: graph generation and Matrix Market files.
SETUP_LAYERS = [
    ("repro.nets.planted:planted_network", "nets.generate", None),
    ("repro.nets.catalog:planted_network", "nets.generate", None),
    ("repro.sparse:read_matrix_market", "sparse.read_mtx", None),
    ("repro.sparse:write_matrix_market", "sparse.write_mtx", None),
]
