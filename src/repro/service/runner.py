"""The runner loop: claim → admit → run → complete, surviving crashes.

A :class:`ServiceRunner` is one worker incarnation.  Each cycle it sweeps
expired leases back into the queue, claims the oldest eligible job, and
processes it under a heartbeat lease:

* **cache first** — if the job's ``(graph, config)`` key is already
  memoized (by an earlier job or an earlier attempt that died between
  caching and completing), the result is served without recomputation;
* **admission second** — the job's planner-derived byte bound must fit
  the service budget alongside everything already in flight, else the
  claim is released back to ``queued`` (no retry consumed, no OOM risk);
* **run third** — the driver executes with a per-job checkpoint
  directory; if checkpoints from a dead predecessor exist the run
  resumes from the latest valid one (corrupt files are discarded and the
  next-latest tried).  At every iteration boundary — checkpoint already
  durable — the runner checks its chaos doom, flushes new metric events
  to the job's NDJSON stream, and heartbeats the lease.  A lost lease
  aborts the attempt without writing results (someone else owns the job
  now).

Failures raise through a clean ladder: genuine errors consume a retry
with exponential backoff (``fail``), lease expiry after a worker death
consumes a requeue (``requeue_expired``), and
:class:`~repro.service.chaos.SimulatedWorkerDeath` tears through
*everything* — by design no ``finally`` here releases admission or
completes transitions on that path, because a SIGKILLed worker cleans
up nothing; the next sweep's lease expiry does it instead.
"""

from __future__ import annotations

import os
import time
import uuid

from ..errors import CheckpointError, ReproError, ServiceError
from ..resilience.checkpoint import latest_checkpoint
from ..trace import Tracer
from .admission import AdmissionController, job_memory_bytes
from .jobs import JobSpec
from .stream import MetricsStream

#: Lease renewed at iteration boundaries must comfortably outlive one
#: iteration; the default suits the catalog networks (sub-second iters).
DEFAULT_LEASE_SECONDS = 30.0


class _LeaseLost(ServiceError):
    """Internal: our lease vanished mid-run; abandon without transitions."""


class ServiceRunner:
    """One worker incarnation over a shared service directory."""

    def __init__(
        self,
        service,
        *,
        worker_id: str | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = 0.05,
        sleep=time.sleep,
        memory_budget_bytes: int | None = None,
        checkpoint_every: int = 1,
        workers=None,
        backend: str | None = None,
        overlap=None,
        merge_impl: str | None = None,
        chaos=None,
    ):
        self.service = service
        self.queue = service.queue
        self.worker_id = worker_id or f"w{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.sleep = sleep
        self.admission = AdmissionController(
            self.queue, memory_budget_bytes
        )
        self.checkpoint_every = checkpoint_every
        self.workers = workers
        self.backend = backend
        self.overlap = overlap
        self.merge_impl = merge_impl
        self.chaos = chaos
        #: Processed-job log of this incarnation: (job_id, outcome).
        self.processed: list[tuple[str, str]] = []

    # -- the loop --------------------------------------------------------

    def run_once(self) -> str | None:
        """One cycle: sweep leases, claim, process.  Returns the job id
        processed (whatever the outcome) or ``None`` when idle."""
        self.queue.requeue_expired()
        job = self.queue.claim(self.worker_id, lease_seconds=self.lease_seconds)
        if job is None:
            return None
        outcome = self._process(job)
        self.processed.append((job.id, outcome))
        return job.id

    def drain(self, *, max_jobs: int | None = None) -> int:
        """Process until nothing is pending (or ``max_jobs`` done).

        Jobs parked on a retry backoff count as pending: the loop sleeps
        ``poll_seconds`` between empty claims until their ``not_before``
        arrives (tests inject a fake ``sleep`` that advances the fake
        clock).  Returns the number of jobs processed.
        """
        n = 0
        while max_jobs is None or n < max_jobs:
            jid = self.run_once()
            if jid is not None:
                n += 1
                continue
            if self.queue.pending() == 0:
                break
            self.sleep(self.poll_seconds)
        return n

    # -- one job ---------------------------------------------------------

    def _process(self, job) -> str:
        try:
            spec = JobSpec.from_dict(job.spec)
            matrix, _vertex_labels = spec.load_graph()
            options = spec.build_options()
            config = spec.build_config()
            key = job.cache_key or spec.cache_key(matrix)
        except (ReproError, OSError) as exc:
            # The spec itself is bad (unreadable graph, invalid options):
            # burn a retry — a transient NFS hiccup heals, a truly
            # malformed spec parks in `failed` once the budget is spent.
            state = self.queue.fail(job.id, self.worker_id, str(exc))
            return f"failed-spec:{state}"

        cached = self.service.cache.get(key)
        if cached is not None:
            self.queue.complete(
                job.id, self.worker_id, _result_payload(cached, key, hit=True)
            )
            return "cache-hit"

        warm = None
        if spec.delta is not None:
            try:
                delta = spec.load_delta(matrix)
                base = self.service.cache.get(spec.base_cache_key(matrix))
                if base is not None and len(base.labels) == matrix.ncols:
                    # Warm start: keep the base graph, let the driver
                    # apply the delta and re-cluster only the touched
                    # components (labels identical to the cold run).
                    import numpy as _np

                    from ..locality import WarmStart

                    warm = WarmStart(
                        _np.asarray(base.labels, dtype=_np.int64), delta
                    )
                else:
                    # No memoized base: cold run on the patched graph.
                    matrix = delta.apply(matrix)
            except ReproError as exc:
                state = self.queue.fail(job.id, self.worker_id, str(exc))
                return f"failed-spec:{state}"

        nbytes = job_memory_bytes(matrix, config)
        if not self.admission.admit(job.id, nbytes):
            self.queue.release(
                job.id, self.worker_id, delay=self.poll_seconds
            )
            return "admission-deferred"

        if not self.queue.mark_running(job.id, self.worker_id):
            self.admission.release(job.id)
            return "lost-claim"

        tracer = Tracer()
        stream = MetricsStream(self.service.metrics_path(job.id))

        def on_iteration(record, converged):
            if self.chaos is not None:
                self.chaos.check(record.index)
            stream.flush(tracer)
            if not self.queue.heartbeat(
                job.id, self.worker_id, lease_seconds=self.lease_seconds
            ):
                raise _LeaseLost(
                    f"job {job.id}: lease lost at iteration {record.index}"
                )

        try:
            result = self._run_with_resume(
                job, spec, matrix, options, config, tracer, on_iteration,
                warm=warm,
            )
        except _LeaseLost:
            # The job was requeued from under us (we looked dead).  The
            # checkpoints we wrote stay — the next owner resumes them.
            self.admission.release(job.id)
            return "lease-lost"
        except ReproError as exc:
            self.admission.release(job.id)
            state = self.queue.fail(job.id, self.worker_id, str(exc))
            stream.flush(tracer)
            return f"failed:{state}"
        # NOTE: SimulatedWorkerDeath (BaseException) falls through every
        # handler *and* skips the cleanup below — exactly like SIGKILL.
        # requeue_expired() reaps the admission entry and the lease.

        self.service.cache.put(key, result)  # durable before `done`
        tracer.metric(
            "job.done", result.iterations, job=job.id,
            n_clusters=result.n_clusters, converged=result.converged,
            resumed_from_iteration=result.resumed_from_iteration,
        )
        stream.flush(tracer)
        if not self.queue.complete(
            job.id, self.worker_id, _result_payload(result, key, hit=False)
        ):
            self.admission.release(job.id)
            return "lease-lost"
        self.admission.release(job.id)
        self.service.clear_checkpoints(job.id)
        return "done"

    def _run_with_resume(
        self, job, spec, matrix, options, config, tracer, on_iteration,
        warm=None,
    ):
        """Run the driver, resuming from the newest *valid* checkpoint.

        A predecessor killed mid-write can leave a corrupt newest file
        even with atomic renames off the table (partial disks, torn
        copies); :class:`~repro.errors.CheckpointError` discards it and
        falls back to the next-newest until one loads or none remain.
        """
        from ..mcl.hipmcl import hipmcl

        ckpt_dir = self.service.checkpoint_dir(job.id)
        while True:
            resume_from = latest_checkpoint(ckpt_dir)
            if resume_from is not None:
                tracer.metric(
                    "job.resume_candidate", str(resume_from), job=job.id
                )
            try:
                return hipmcl(
                    matrix,
                    options,
                    config,
                    checkpoint_dir=ckpt_dir,
                    checkpoint_every=self.checkpoint_every,
                    resume_from=resume_from,
                    workers=(
                        spec.workers if spec.workers is not None
                        else self.workers
                    ),
                    backend=spec.backend or self.backend,
                    overlap=(
                        spec.overlap if spec.overlap is not None
                        else self.overlap
                    ),
                    merge_impl=spec.merge_impl or self.merge_impl,
                    reorder=spec.reorder,
                    warm_start=warm,
                    trace=tracer,
                    on_iteration=on_iteration,
                )
            except CheckpointError:
                if resume_from is None:
                    raise  # not a resume problem — a real checkpoint bug
                resume_from.unlink(missing_ok=True)


def _result_payload(result, key: str, *, hit: bool) -> dict:
    """The queue-row result JSON (labels live in the cache npz)."""
    return {
        "cache_key": key,
        "cache_hit": hit,
        "n_clusters": int(result.n_clusters),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "elapsed_seconds": float(result.elapsed_seconds),
        "resumed_from_iteration": int(
            getattr(result, "resumed_from_iteration", 0)
        ),
    }
