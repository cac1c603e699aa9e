"""Observability layer: structured tracing and metrics for the pipeline.

The paper argues with per-stage breakdowns and overlap timelines
(Figs. 1, 5, 8); this package is the reproduction's instrument for the
same evidence.  A :class:`Tracer` records **dual-clock spans** — wall
time and simulated seconds — with structured attributes, plus a metrics
stream of point samples, across every layer of a run:

* ``summa_multiply`` stages: broadcasts, prefetch submits, gathers, the
  merge/accounting pass, with overlap-window attributes;
* SpGEMM kernel dispatch: the chosen kernel, ``flops``, ``cf``;
* ``hipmcl`` iterations: estimation (bound vs actual), expansion,
  pruning, inflation, ``nnz``/``chaos`` per iteration;
* the executor layer: per-task worker spans, each recorded in its
  worker thread's own lane;
* resilience events: faults injected, recovery rungs taken.

Tracing is **off by default and free when off**: instrumentation sites
read one module global and fall through to a cached no-op.  When on, it
is **passive**: traced runs are bit-identical to untraced runs (labels,
simulated seconds, history, kernel selections) — pinned by tests across
the whole ``(backend, workers, overlap)`` matrix.

Typical use::

    from repro.trace import Tracer, write_chrome_trace

    tracer = Tracer()
    result = hipmcl(matrix, options, config, trace=tracer,
                    backend="thread", workers=4, overlap=True)
    write_chrome_trace(tracer, "trace.json")   # load in Perfetto

or from the CLI: ``python -m repro cluster net.mtx --mode optimized
--trace trace.json --metrics metrics.ndjson``; or via
``tools/run_trace.py``.  See ``docs/observability.md``.
"""

from .export import (
    chrome_trace_events,
    link_overlap_report,
    merge_report,
    overlap_pairs,
    summarize,
    write_chrome_trace,
    write_metrics,
)
from .metrics import MetricEvent, read_metrics_ndjson, write_metrics_ndjson
from .tracer import (
    MAIN_LANE,
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    current_tracer,
    maybe_span,
    set_tracer,
    tracing_enabled,
    worker_lane_name,
)

__all__ = [
    "MAIN_LANE",
    "NULL_SPAN",
    "MetricEvent",
    "Span",
    "Tracer",
    "activate",
    "chrome_trace_events",
    "current_tracer",
    "maybe_span",
    "link_overlap_report",
    "merge_report",
    "overlap_pairs",
    "read_metrics_ndjson",
    "set_tracer",
    "summarize",
    "tracing_enabled",
    "worker_lane_name",
    "write_chrome_trace",
    "write_metrics",
    "write_metrics_ndjson",
]
