"""Thread-pool executor: the one worker pool.

A :class:`ThreadExecutor` runs the pure work units of
:mod:`repro.parallel.work` inside the parent's address space, so

* task arguments and results cross **zero-copy** — no pickling;
* the identity-keyed caches (``column_lengths``, :func:`repro.perf.cache.
  memo`, the memoized DCSC conversions) warmed by a worker are warm for
  the parent's accounting pass too — the single-flight discipline in
  :mod:`repro.perf.cache` keeps concurrent builders from duplicating
  work;
* the useful parallelism comes from numpy releasing the GIL in its hot
  sections (the Nagasaka et al. observation that shared-memory threading
  is where single-node SpGEMM headroom lives); pure-Python stretches
  serialize.

Determinism is inherited from the protocol: results are gathered in task
order, every fault draw and clock charge stays in the caller, so
``backend="thread"`` is bit-identical to serial.  The nested guard marks
each worker thread while it runs a task (``executor.enter_thread_worker``),
making any executor requested from inside a task serial.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..trace import current_tracer, worker_lane_name
from .executor import (
    BatchHandle,
    _ReadyBatch,
    _task_meta,
    enter_thread_worker,
    exit_thread_worker,
)


def _run_task(fn, args, meta=None):
    """Worker entry point: mark the thread, run, unmark.

    Thread workers share the parent's tracer directly; ``meta`` (set only
    when the parent was tracing at submit time) makes the task record its
    span in this thread's own lane.
    """
    enter_thread_worker()
    try:
        tracer = current_tracer() if meta is not None else None
        if tracer is None:
            return fn(*args)
        tracer.set_lane(worker_lane_name())
        try:
            with tracer.span(
                getattr(fn, "__name__", "task"), "executor", **meta
            ):
                return fn(*args)
        finally:
            tracer.set_lane(None)
    finally:
        exit_thread_worker()


class _ThreadBatch(BatchHandle):
    """In-flight futures of one thread-pool batch."""

    def __init__(self, futures):
        self._futures = futures

    def result(self) -> list:
        return [f.result() for f in self._futures]


class ThreadExecutor:
    """A persistent ``workers``-thread pool with zero-copy task passing.

    The pool is created lazily on the first batch, reused across batches,
    and restarts lazily after :meth:`close`.  Worker threads share every
    process-global (the fast-path dispatch flag, matrix caches), so no
    per-batch state synchronization is needed.
    """

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError(
                f"ThreadExecutor needs >= 2 workers, got {workers} "
                "(use SerialExecutor)"
            )
        self.workers = workers
        self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-worker",
            )
        return self._pool

    def submit_batch(self, fn, tasks, label=None, attrs=None) -> BatchHandle:
        """Dispatch the batch to the pool without waiting for results."""
        tasks = list(tasks)
        if not tasks:
            return _ReadyBatch(fn, [])
        tracing = current_tracer() is not None
        pool = self._ensure_pool()
        return _ThreadBatch(
            [
                pool.submit(
                    _run_task,
                    fn,
                    task,
                    _task_meta(label, attrs, i) if tracing else None,
                )
                for i, task in enumerate(tasks)
            ]
        )

    def run_batch(self, fn, tasks, label=None, attrs=None):
        """Run ``fn(*task)`` for every task across the pool, in order."""
        return self.submit_batch(fn, tasks, label=label, attrs=attrs).result()

    def close(self):
        """Shut the pool down; the executor stays usable (lazy restart)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __repr__(self):
        state = "live" if self._pool is not None else "idle"
        return f"ThreadExecutor(workers={self.workers}, {state})"
