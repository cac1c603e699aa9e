"""Multicore execution layer: parallel batches of independent work.

The simulator's *modeled* concurrency (pipelined Sparse SUMMA overlapping
stage-k multiplies with stage-(k+1) broadcasts) runs on simulated clocks;
this package makes the *wall-clock* scale with cores too.  An
:class:`~repro.parallel.executor.Executor` fans genuinely independent work
units — per-block local SpGEMMs, per-block-column prunes, per-column-slab
kernel batches — across a persistent thread pool
(:class:`~repro.parallel.threads.ThreadExecutor`) in the parent's address
space: zero-copy task passing, shared matrix caches, parallelism from
numpy's GIL-released sections.

The pool offers an asynchronous ``submit_batch``; the SUMMA engine's overlap
scheduler (``overlap=True``) uses it to run the stage-k merge in the
parent concurrently with the stage-(k+1) local multiplies in the pool.

The determinism contract is the same one the fast-path engine and the
resilience layer pin: every ``(backend, workers, overlap)`` combination
is **bit-identical** to serial.  Parallelism only relocates computation,
never reorders a reduction — results are gathered and consumed in the
same deterministic ``(i, j)`` / column order the serial loop uses, and
every fault-injection draw stays in the parent.  See
``docs/performance.md`` ("Execution backends").

Backend selection, in precedence order (each axis independently):

1. explicit ``workers=`` / ``backend=`` / ``overlap=`` keywords
   (``hipmcl``, ``summa_multiply``, the benches) or ``--workers`` /
   ``--backend`` / ``--overlap`` on the CLI and tools;
2. the ``REPRO_WORKERS`` / ``REPRO_BACKEND`` / ``REPRO_OVERLAP``
   environment variables (``REPRO_WORKERS=auto``/``0`` means one worker
   per usable core);
3. the defaults: serial execution (one worker), a thread pool when a
   count is given without a backend, no stage overlap.
"""

from .executor import (
    BACKENDS,
    BatchHandle,
    SerialExecutor,
    get_executor,
    in_worker,
    resolve_backend,
    resolve_overlap,
    resolve_workers,
    shutdown_executors,
)
from .threads import ThreadExecutor

#: Structural protocol: anything with ``.workers``, ``.run_batch``,
#: ``.submit_batch`` and ``.close``.
Executor = SerialExecutor | ThreadExecutor

__all__ = [
    "BACKENDS",
    "BatchHandle",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "in_worker",
    "resolve_backend",
    "resolve_overlap",
    "resolve_workers",
    "shutdown_executors",
]
