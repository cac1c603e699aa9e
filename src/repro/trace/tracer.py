"""Span-based tracer with dual clocks (wall time + simulated seconds).

The tracer is the observability layer's core: a :class:`Tracer` records
:class:`Span` intervals (with structured attributes) and point-in-time
:class:`~repro.trace.metrics.MetricEvent` samples while the pipeline
runs.  Two design rules keep it safe to leave in the hot paths:

* **Zero overhead when off.**  Instrumentation sites read the
  module-level current tracer (:func:`current_tracer`); when no tracer is
  active they either skip entirely (``if tracer is not None`` guards in
  loops) or receive :data:`NULL_SPAN` — one cached module-level no-op
  object whose ``__enter__``/``__exit__``/``set`` do nothing and allocate
  nothing.  No span objects, no dict churn, no clock reads.
* **Bit-identity.**  Recording is purely passive: spans read
  ``time.perf_counter()`` and (optionally) a simulated-clock callable,
  never *advancing* either.  A traced run produces the same labels,
  simulated seconds, history and kernel selections as an untraced one —
  pinned by ``tests/test_trace_pipeline.py`` across the full
  ``(backend, workers, overlap)`` matrix.

Every span carries two clocks: the wall interval (``t0_wall``/``t1_wall``,
``perf_counter`` seconds) and, when the tracer has a ``sim_clock``
(``hipmcl`` installs ``comm.elapsed``), the simulated interval
(``t0_sim``/``t1_sim``).  Worker-side spans have no simulated clock (all
modeled accounting happens in the caller) and carry ``None`` there.

Lanes: each span records the lane it ran in (``"main"``, or the worker
thread name).  The Chrome-trace export maps lanes to Perfetto tracks,
which is how the stage-overlap timeline becomes visible — the
stage-(k+1) ``local_multiply`` spans in the worker lanes run under the
parent lane's stage-k ``merge`` span.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from .metrics import MetricEvent

#: Lane name of the orchestrating (non-worker) context.
MAIN_LANE = "main"


@dataclass
class Span:
    """One recorded interval: dual clocks, lane, nesting, attributes."""

    id: int
    parent: int | None
    name: str
    cat: str
    lane: str
    t0_wall: float
    t1_wall: float = 0.0
    t0_sim: float | None = None
    t1_sim: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.t1_wall - self.t0_wall

    @property
    def sim_seconds(self) -> float | None:
        if self.t0_sim is None or self.t1_sim is None:
            return None
        return self.t1_sim - self.t0_sim

    def overlaps(self, other: "Span") -> bool:
        """True when the two wall intervals genuinely intersect."""
        return (
            self.t0_wall < other.t1_wall and other.t0_wall < self.t1_wall
        )


class _LiveSpan:
    """Context manager recording one span on a tracer's lane stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def set(self, **attrs) -> "_LiveSpan":
        """Attach (or update) structured attributes on the open span."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span)

    def close(self) -> None:
        """End the span now (for sites where ``with`` would reindent)."""
        self._tracer._close(self.span)


class _NullSpan:
    """The cached no-op span: every method is a constant-time no-op.

    One module-level instance (:data:`NULL_SPAN`) serves every
    instrumentation site when tracing is off — entering it allocates
    nothing and touches no clock, which is what keeps disabled
    instrumentation under the perf gate's noise floor
    (``tests/test_trace_pipeline.py::test_disabled_tracing_overhead``).
    """

    __slots__ = ()

    span = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def close(self) -> None:
        return None


#: The module-level cached no-op span (see :class:`_NullSpan`).
NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans and metric events for one run.

    Thread safety: worker threads open spans concurrently; each thread
    keeps its own lane stack (``threading.local``) so nesting is always
    within one lane, and the append-only event lists are guarded by one
    lock (contended only at span close, a few times per task).
    """

    def __init__(self, *, sim_clock=None, lane: str | None = None):
        self.spans: list[Span] = []
        self.metrics: list[MetricEvent] = []
        self.counters: dict[str, int] = {}
        #: Zero-argument callable returning the current simulated seconds
        #: (e.g. ``VirtualComm.elapsed``); ``None`` records wall-only.
        self.sim_clock = sim_clock
        self._default_lane = lane or MAIN_LANE
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- span lifecycle --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _lane(self) -> str:
        lane = getattr(self._tls, "lane", None)
        return lane if lane is not None else self._default_lane

    def set_lane(self, lane: str | None) -> None:
        """Name the current thread's lane (worker threads call this)."""
        self._tls.lane = lane

    def span(self, name: str, cat: str = "repro", **attrs) -> _LiveSpan:
        """Open a span; use as ``with tracer.span(...) as sp``."""
        stack = self._stack()
        parent = stack[-1].id if stack else None
        sim = self.sim_clock
        span = Span(
            id=next(self._ids),
            parent=parent,
            name=name,
            cat=cat,
            lane=self._lane(),
            t0_wall=time.perf_counter(),
            t0_sim=sim() if sim is not None else None,
            attrs=attrs,
        )
        stack.append(span)
        return _LiveSpan(self, span)

    def _close(self, span: Span) -> None:
        span.t1_wall = time.perf_counter()
        sim = self.sim_clock
        if sim is not None and span.t0_sim is not None:
            span.t1_sim = sim()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # defensive: exits out of order only on exception unwinds
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self.spans.append(span)

    # -- point events and metrics ----------------------------------------

    def instant(self, name: str, cat: str = "repro", **attrs) -> None:
        """Record a zero-duration event (fault injected, rung taken...)."""
        now = time.perf_counter()
        sim = self.sim_clock
        t_sim = sim() if sim is not None else None
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(
            id=next(self._ids),
            parent=parent,
            name=name,
            cat=cat,
            lane=self._lane(),
            t0_wall=now,
            t1_wall=now,
            t0_sim=t_sim,
            t1_sim=t_sim,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)

    def event_span(
        self,
        name: str,
        cat: str = "repro",
        *,
        lane: str | None = None,
        t0_sim: float,
        t1_sim: float,
        **attrs,
    ) -> Span:
        """Record a span over an explicit *simulated* interval.

        Unlike :meth:`span`, which brackets wall time around real work and
        samples ``sim_clock`` itself, this records an interval the caller
        already scheduled on a simulated resource (e.g. an async broadcast
        occupying a link).  On the wall clock it is an instant — nothing
        really ran — so the Chrome export shows it only on the simulated
        timeline, on ``lane`` (e.g. ``"link:row:2"``).
        """
        now = time.perf_counter()
        span = Span(
            id=next(self._ids),
            parent=None,
            name=name,
            cat=cat,
            lane=lane if lane is not None else self._default_lane,
            t0_wall=now,
            t1_wall=now,
            t0_sim=t0_sim,
            t1_sim=t1_sim,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def metric(self, name: str, value, **attrs) -> None:
        """Record one sample on the metrics stream (NDJSON-exportable)."""
        sim = self.sim_clock
        event = MetricEvent(
            name=name,
            value=value,
            t_wall=time.perf_counter(),
            t_sim=sim() if sim is not None else None,
            attrs=attrs,
        )
        with self._lock:
            self.metrics.append(event)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (totals land in the text summary)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- views -----------------------------------------------------------

    def find(self, name: str | None = None, **attrs) -> list[Span]:
        """Spans matching a name and attribute subset (test helper)."""
        out = []
        for s in self.spans:
            if name is not None and s.name != name:
                continue
            if all(s.attrs.get(k) == v for k, v in attrs.items()):
                out.append(s)
        return out

    def lanes(self) -> list[str]:
        """Distinct lanes in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.lane, None)
        return list(seen)


# ---------------------------------------------------------------------------
# The module-level current tracer
# ---------------------------------------------------------------------------

#: The active tracer, or ``None`` (the common, zero-overhead case).
_CURRENT: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is off."""
    return _CURRENT


def tracing_enabled() -> bool:
    return _CURRENT is not None


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the current one; returns the previous one."""
    global _CURRENT
    prev = _CURRENT
    _CURRENT = tracer
    return prev


class activate:
    """Context manager installing a tracer for the duration of a block.

    Re-entrant in the sense that the previous tracer (usually ``None``)
    is restored on exit, so nested activations compose.
    """

    def __init__(self, tracer: Tracer | None):
        self._tracer = tracer
        self._prev: Tracer | None = None

    def __enter__(self) -> Tracer | None:
        self._prev = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tracer(self._prev)


def maybe_span(name: str, cat: str = "repro", **attrs):
    """A live span when tracing is on, else the cached no-op.

    The convenience entry point for instrumentation sites that are not in
    a per-element loop: one global read, and when tracing is off the
    *same* module-level object comes back every time.
    """
    tracer = _CURRENT
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat, **attrs)


def worker_lane_name() -> str:
    """A stable lane name for the current worker thread."""
    return f"worker-{threading.current_thread().name}"
