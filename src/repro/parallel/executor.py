"""Executor abstraction: serial inline execution vs a persistent pool.

Work units handed to :meth:`Executor.run_batch` must be *pure* top-level
functions of their arguments (no fault-injection draws, no clock state) —
the executor guarantees only that every unit runs exactly once and that
results come back **in task order**, which is what makes ``workers=N``
bit-identical to ``workers=1``.

Two backends satisfy the protocol, selected by the ``backend`` axis
(explicit argument > ``REPRO_BACKEND`` > ``"thread"``):

* :class:`SerialExecutor` — inline execution, the identity backend;
* :class:`~repro.parallel.threads.ThreadExecutor` — a persistent thread
  pool sharing the parent's address space (zero-copy, no transport; the
  numpy kernels release the GIL in their hot sections).

Every backend also offers :meth:`Executor.submit_batch` — the
*asynchronous* half of the protocol: it returns a :class:`BatchHandle`
whose :meth:`~BatchHandle.result` gathers the ordered results later.
The SUMMA overlap scheduler uses it to run the stage-k merge in the
parent concurrently with the stage-(k+1) local multiplies in the pool.

Nested parallelism is guarded: inside a thread-pool worker,
:func:`get_executor` always returns the serial executor, so a
parallelized kernel calling another parallelized kernel degrades to
inline execution instead of fanning out a pool per worker.
"""

from __future__ import annotations

import atexit
import os
import threading

from ..trace import current_tracer

#: The nested-parallelism guard: ``_TLS.in_worker`` is True while the
#: current thread is executing a :class:`ThreadExecutor` task.
_TLS = threading.local()

#: Recognized execution backends (the ``--backend`` axis).
BACKENDS = ("serial", "thread")


def in_worker() -> bool:
    """True when this thread is an executor pool worker."""
    return getattr(_TLS, "in_worker", False)


def enter_thread_worker() -> None:
    """Mark the current thread as a pool worker (ThreadExecutor tasks)."""
    _TLS.in_worker = True


def exit_thread_worker() -> None:
    """Clear the current thread's worker mark."""
    _TLS.in_worker = False


def resolve_workers(workers=None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_WORKERS`` > 1.

    ``"auto"`` (or 0) means one worker per usable core.  Anything that is
    not a non-negative integer or ``"auto"`` raises ``ValueError``.
    """
    if workers is None:
        workers = os.environ.get("REPRO_WORKERS", "").strip() or 1
    if isinstance(workers, str):
        if workers.lower() == "auto":
            workers = 0
        else:
            try:
                workers = int(workers)
            except ValueError:
                raise ValueError(
                    f"workers must be a non-negative integer or 'auto', "
                    f"got {workers!r}"
                ) from None
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:  # auto
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without affinity masks
            workers = os.cpu_count() or 1
    return max(1, workers)


def resolve_backend(backend=None) -> str:
    """Resolve the backend name: explicit > ``REPRO_BACKEND`` > thread.

    ``"serial"`` forces inline execution regardless of the worker count;
    ``"thread"`` runs batches on a thread pool when the resolved worker
    count exceeds one.
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "thread"
    backend = str(backend).lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; options: {list(BACKENDS)}"
        )
    return backend


def resolve_overlap(overlap=None) -> bool:
    """Resolve the stage-overlap flag: explicit > ``REPRO_OVERLAP`` > off.

    Accepts booleans or the strings ``"0"/"1"/"true"/"false"/"on"/"off"``.
    """
    if overlap is None:
        env = os.environ.get("REPRO_OVERLAP", "").strip().lower()
        if not env:
            return False
        overlap = env
    if isinstance(overlap, str):
        low = overlap.lower()
        if low in ("1", "true", "on", "yes"):
            return True
        if low in ("0", "false", "off", "no"):
            return False
        raise ValueError(
            f"overlap must be a boolean or '0'/'1'/'on'/'off', "
            f"got {overlap!r}"
        )
    return bool(overlap)


class BatchHandle:
    """Deferred results of one :meth:`Executor.submit_batch` call.

    ``result()`` returns the ordered list (same order as the submitted
    tasks) and may be called at most once; implementations block until
    every task has finished.
    """

    def result(self) -> list:  # pragma: no cover - interface
        raise NotImplementedError


def _task_meta(label, attrs, index: int):
    """The per-task span attributes shipped to workers when tracing."""
    meta = dict(attrs) if attrs else {}
    if label:
        meta["label"] = label
    meta["task"] = index
    return meta


class _ReadyBatch(BatchHandle):
    """A batch that is computed lazily at gather time (serial backend).

    Deferring to :meth:`result` keeps the serial memory profile identical
    to the plain inline loop — nothing is resident before the caller asks.
    """

    def __init__(self, fn, tasks, label=None, attrs=None):
        self._fn = fn
        self._tasks = tasks
        self._label = label
        self._attrs = attrs

    def result(self) -> list:
        fn = self._fn
        tracer = current_tracer()
        if tracer is None:
            return [fn(*task) for task in self._tasks]
        name = getattr(fn, "__name__", "task")
        out = []
        for i, task in enumerate(self._tasks):
            with tracer.span(
                name, "executor", **_task_meta(self._label, self._attrs, i)
            ):
                out.append(fn(*task))
        return out


class SerialExecutor:
    """Inline execution — the identity backend, zero overhead."""

    workers = 1

    def run_batch(self, fn, tasks, label=None, attrs=None):
        """Run ``fn(*task)`` for every task, in order."""
        return self.submit_batch(fn, tasks, label=label, attrs=attrs).result()

    def submit_batch(self, fn, tasks, label=None, attrs=None) -> BatchHandle:
        """Defer the batch; it runs inline when ``result()`` is called."""
        return _ReadyBatch(fn, list(tasks), label, attrs)

    def close(self):
        pass

    def __repr__(self):
        return "SerialExecutor()"


_SERIAL = SerialExecutor()
_thread_executors: dict[int, object] = {}


def get_executor(workers=None, backend=None):
    """The executor for a worker count and backend (pools are cached).

    Serial when the resolved count is 1, the resolved backend is
    ``"serial"``, **or** when called from inside a pool worker (the
    nested-parallelism guard).
    """
    count = resolve_workers(workers)
    kind = resolve_backend(backend)
    if count <= 1 or kind == "serial" or in_worker():
        return _SERIAL
    ex = _thread_executors.get(count)
    if ex is None:
        from .threads import ThreadExecutor  # threads imports this module

        ex = _thread_executors[count] = ThreadExecutor(count)
    return ex


def shutdown_executors() -> None:
    """Close every cached pool."""
    for ex in _thread_executors.values():
        ex.close()


atexit.register(shutdown_executors)
