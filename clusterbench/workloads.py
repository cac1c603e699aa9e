"""The four workloads: inputs from the seed, one timed unit, its check.

A workload is a closed loop with one client: it sends its next request
only after the previous one is done.  A *unit* is one request — one
``hipmcl`` solve for the cluster workloads, one service job (submit to
done) for ``delta-service``.  Each workload object holds the state of
one set-up; ``unit(k)`` runs request ``k`` and returns what the report
needs; ``check(units, oracle)`` runs after every timed window and counts
the units whose output is wrong.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_now = time.perf_counter


def _mod(name: str):
    """Module lookup at call time, so ledger patches are seen."""
    return importlib.import_module(name)


#: Generator seed of every workload's graph: the catalog's own instance
#: (the islands net is perfbench's).  The benchmark seed relabels the
#: vertices instead of drawing a new instance, so the work per request is
#: the same on every seed while the 2-D block layout, every block product
#: and every simulated charge change with it.  New instances would
#: change the work by about 10% from seed to seed (heavy-tailed cluster
#: sizes), more than the noise this benchmark has to resolve.  For the
#: same reason the delta jobs are one fixed stream, relabeled likewise.
CATALOG_SEED = 0
ISLANDS_SEED = 11


def relabeled(matrix, perm: np.ndarray):
    """``P A P^T``: vertex ``i`` becomes vertex ``perm[i]``."""
    cols = np.repeat(np.arange(matrix.ncols), np.diff(matrix.indptr))
    return _mod("repro.sparse").csc_from_triples(
        matrix.shape, perm[matrix.indices], perm[cols], matrix.data
    )


def _permutation(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def _sim(res) -> tuple:
    return (
        float(res.elapsed_seconds),
        int(res.bytes_communicated),
        int(res.peak_rank_resident_bytes),
    )


@dataclasses.dataclass
class Unit:
    """One timed request and what its check needs."""

    index: int
    #: Perf-counter ``(start, end)`` of the request (``None`` if it raised).
    span: tuple[float, float] | None
    #: The same for the clustering itself (``None`` for a cache hit).
    solve_span: tuple[float, float] | None
    sim: tuple | None = None
    labels: np.ndarray | None = None
    #: Input tag the oracle keys the reference and the sim pin on.
    tag: str = ""
    cache_hit: bool = False
    error: str | None = None
    traced: bool = False
    #: Service job id and delta payload of a ``delta-service`` unit.
    job_id: str | None = None
    delta: dict | None = None

    @property
    def latency_s(self) -> float:
        return self.span[1] - self.span[0] if self.span else math.nan

    @property
    def solve_s(self) -> float | None:
        if self.solve_span is None:
            return None
        return self.solve_span[1] - self.solve_span[0]


class ClusterWorkload:
    """Repeated cold solves of one generated graph."""

    #: ``on_iteration`` callback of the timed solves, if any.
    tick = None

    def __init__(self, net, n, seed, run_kwargs):
        from repro.mcl.hipmcl import HipMCLConfig
        from repro.nets import catalog

        entry = catalog.entry(net)
        if n is not None:
            entry = dataclasses.replace(entry, n=n)
        self.tag = f"{net}/n={entry.n}/relabel={seed}"
        self.options = entry.options()
        self.config = HipMCLConfig.optimized(
            nodes=16, memory_budget_bytes=entry.memory_budget_bytes
        )
        self.run_kwargs = run_kwargs
        base = entry.generate(seed=CATALOG_SEED).matrix
        self.matrix = relabeled(base, _permutation(base.ncols, seed))
        # Warm-up on a small graph of the same recipe: lazy imports, the
        # thread pool, allocator arenas.
        small = dataclasses.replace(entry, n=400).generate(seed=seed)
        self._solve(small.matrix)

    def _solve(self, matrix, **kwargs):
        return _mod("repro.mcl.hipmcl").hipmcl(
            matrix, self.options, self.config, **self.run_kwargs, **kwargs
        )

    def unit(self, k: int) -> Unit:
        kwargs = {"on_iteration": self.tick} if self.tick else {}
        t0 = _now()
        res = self._solve(self.matrix, **kwargs)
        span = (t0, _now())
        return Unit(k, span, span, _sim(res), res.labels, self.tag)

    def check(self, oracle, units) -> None:
        ref = oracle.reference(self.tag, lambda: self.matrix, self.options)
        _check_units(oracle, units, lambda u: ref)

    def close(self) -> None:
        pass


#: The islands net of the delta jobs (perfbench's locality net): planted
#: clusters with no inter-cluster edges, so a local delta dirties one.
ISLANDS = dict(n=1600, intra_degree=30.0, inter_degree=0.0)
ISLANDS_OPTIONS = dict(inflation=2.0, prune_threshold=1e-4, select_number=50)
DELTA_EDGES = 12


class DeltaServiceWorkload:
    """A ``ClusterService`` fed delta jobs against a clustered base graph.

    Two of every three jobs carry a fresh localized delta and warm-start
    from the base result; the third resubmits an earlier delta and is
    served from the result cache at submit.
    """

    #: Unused: a job is short enough to be timed between samples.
    tick = None

    def __init__(self, seed: int, workdir: Path):
        from repro.mcl.options import MclOptions
        from repro.service import ClusterService, JobSpec

        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True)
        planted = _mod("repro.nets.planted")
        sparse = _mod("repro.sparse")
        net = planted.planted_network(**ISLANDS, seed=ISLANDS_SEED)
        self.base = net.matrix
        self.perm = _permutation(self.base.ncols, seed)
        self.graph = self.dir / "base.mtx"
        sparse.write_matrix_market(relabeled(self.base, self.perm), self.graph)
        # The client keeps the graph exactly as the service reads it.
        self.matrix = sparse.read_matrix_market(self.graph)
        self.options = MclOptions(**ISLANDS_OPTIONS)
        self._spec = lambda delta=None: JobSpec(
            graph=str(self.graph), options=dict(ISLANDS_OPTIONS),
            delta=delta,
        )
        self.service = ClusterService(self.dir / "service")
        self.runner = self.service.make_runner()
        self._rng = np.random.default_rng(7)
        self._fresh: list[tuple[int, dict]] = []
        base = self._job(self._spec())
        if base.error:
            raise RuntimeError(f"base job failed: {base.error}")
        self._job(self._spec(self._delta_payload(0)))  # warm-up

    def _delta_payload(self, delta_seed: int) -> dict:
        """Delta ``delta_seed`` of the fixed stream, relabeled."""
        from repro.locality import localized_delta

        p = self.perm
        d = localized_delta(self.base, DELTA_EDGES, delta_seed).to_payload()
        return {
            "add": [[int(p[i]), int(p[j]), w] for i, j, w in d["add"]],
            "remove": [[int(p[i]), int(p[j])] for i, j in d["remove"]],
        }

    def _job(self, spec, k: int = -1) -> Unit:
        t0 = _now()
        jid = self.service.submit(spec)
        solve = None
        if self.service.status(jid).state != "done":
            t1 = _now()
            self.runner.run_once()
            solve = (t1, _now())
        row = self.service.status(jid)
        unit = Unit(k, (t0, _now()), solve)
        unit.cache_hit = bool(row.result and row.result.get("cache_hit"))
        if row.state != "done":
            unit.error = f"job ended {row.state}: {row.error}"
        unit.job_id = jid
        return unit

    def unit(self, k: int) -> Unit:
        # The client prepares its request before the clock starts.
        if k % 3 == 2 and self._fresh:
            delta_seed, payload = self._fresh[
                int(self._rng.integers(len(self._fresh)))
            ]
        else:
            delta_seed = k + 1
            payload = self._delta_payload(delta_seed)
            self._fresh.append((delta_seed, payload))
        with _tap("repro.locality.delta", "run_warm_start") as results:
            unit = self._job(self._spec(payload), k)
        unit.tag = f"islands/relabel={self.seed}/delta={delta_seed}"
        unit.delta = payload
        if results:
            unit.sim = _sim(results[-1])
        elif not unit.cache_hit and unit.error is None:
            unit.error = "fresh delta job did not warm-start"
        return unit

    def check(self, oracle, units) -> None:
        from repro.errors import ServiceError
        from repro.locality import GraphDelta

        n = self.matrix.ncols
        for u in units:
            if u.error is None:
                try:
                    u.labels = self.service.labels(u.job_id)
                except ServiceError as exc:
                    u.error = f"no result: {exc}"

        def ref(u):
            delta = GraphDelta.from_payload(n, u.delta)
            return oracle.reference(
                u.tag, lambda: delta.apply(self.matrix), self.options
            )

        _check_units(oracle, units, ref)

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.dir, ignore_errors=True)


@contextmanager
def _tap(modname: str, attr: str):
    """Collect the return values of ``modname.attr`` while active."""
    mod = _mod(modname)
    original = getattr(mod, attr)
    results = []

    def tapped(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    setattr(mod, attr, tapped)
    try:
        yield results
    finally:
        setattr(mod, attr, original)


def _check_units(oracle, units, reference) -> None:
    """Mark each unit whose partition or simulated values are off."""
    from .oracle import same_partition

    for u in units:
        if u.error is not None:
            continue
        if not same_partition(u.labels, reference(u)):
            u.error = "partition differs from the markov_cluster reference"
        elif u.sim is not None and not oracle.pin_sim(u.tag, u.sim):
            u.error = f"simulated values {u.sim} differ from the pinned run"


def make(name: str, seed: int, workdir: Path):
    """A fresh set-up of workload ``name`` for ``seed``."""
    if name == "dense-serial":
        return ClusterWorkload("isom100-3-xs", None, seed, {})
    if name == "dense-thread2":
        return ClusterWorkload(
            "isom100-3-xs", None, seed, {"workers": 2, "backend": "thread"}
        )
    if name == "sparse-serial":
        return ClusterWorkload("metaclust50-xs", 6000, seed, {})
    if name == "delta-service":
        return DeltaServiceWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense-serial", "dense-thread2", "sparse-serial", "delta-service")
