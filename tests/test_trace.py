"""Unit tests for the observability layer (repro.trace)."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    MAIN_LANE,
    NULL_SPAN,
    MetricEvent,
    Span,
    Tracer,
    activate,
    chrome_trace_events,
    current_tracer,
    maybe_span,
    overlap_pairs,
    read_metrics_ndjson,
    set_tracer,
    summarize,
    tracing_enabled,
    worker_lane_name,
    write_chrome_trace,
    write_metrics,
    write_metrics_ndjson,
)


class TestNullPath:
    def test_maybe_span_off_returns_cached_singleton(self):
        assert current_tracer() is None
        assert maybe_span("anything") is NULL_SPAN
        assert maybe_span("other", "cat", k=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with maybe_span("x") as sp:
            assert sp is NULL_SPAN
            assert sp.set(a=1) is NULL_SPAN
            assert sp.span is None
        NULL_SPAN.close()  # no-op

    def test_tracing_enabled_flag(self):
        assert not tracing_enabled()
        prev = set_tracer(Tracer())
        try:
            assert tracing_enabled()
        finally:
            set_tracer(prev)
        assert not tracing_enabled()


class TestTracer:
    def test_span_nesting_parent_links(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert inner.span.parent == outer.span.id
        assert outer.span.parent is None
        assert [s.name for s in tr.spans] == ["inner", "outer"]

    def test_span_attrs_and_set(self):
        tr = Tracer()
        with tr.span("s", "cat", a=1) as sp:
            sp.set(b=2)
        assert tr.spans[0].attrs == {"a": 1, "b": 2}
        assert tr.spans[0].cat == "cat"

    def test_close_method_equivalent_to_exit(self):
        tr = Tracer()
        sp = tr.span("manual")
        sp.close()
        assert len(tr.spans) == 1
        assert tr.spans[0].t1_wall >= tr.spans[0].t0_wall

    def test_sim_clock_recorded(self):
        ticks = iter(range(100))
        tr = Tracer(sim_clock=lambda: float(next(ticks)))
        with tr.span("s"):
            pass
        s = tr.spans[0]
        assert s.t0_sim == 0.0 and s.t1_sim == 1.0
        assert s.sim_seconds == 1.0

    def test_no_sim_clock_records_none(self):
        tr = Tracer()
        with tr.span("s"):
            pass
        assert tr.spans[0].t0_sim is None
        assert tr.spans[0].sim_seconds is None

    def test_instant_is_zero_duration(self):
        tr = Tracer()
        tr.instant("ev", "cat", k=3)
        s = tr.spans[0]
        assert s.t0_wall == s.t1_wall
        assert s.attrs == {"k": 3}

    def test_instant_nests_under_open_span(self):
        tr = Tracer()
        with tr.span("outer") as sp:
            tr.instant("ev")
        assert tr.spans[0].parent == sp.span.id

    def test_metric_and_count(self):
        tr = Tracer(sim_clock=lambda: 2.5)
        tr.metric("m", 7, tag="x")
        tr.count("c")
        tr.count("c", 2)
        assert tr.metrics[0].value == 7
        assert tr.metrics[0].t_sim == 2.5
        assert tr.metrics[0].attrs == {"tag": "x"}
        assert tr.counters == {"c": 3}

    def test_find_and_lanes(self):
        tr = Tracer()
        with tr.span("a", stage=0):
            pass
        with tr.span("a", stage=1):
            pass
        assert len(tr.find("a")) == 2
        assert len(tr.find("a", stage=1)) == 1
        assert tr.lanes() == [MAIN_LANE]

    def test_thread_lanes_are_independent(self):
        tr = Tracer()
        done = threading.Event()

        def worker():
            tr.set_lane("worker-lane")
            with tr.span("task"):
                pass
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.is_set()
        with tr.span("parent"):
            pass
        by_name = {s.name: s for s in tr.spans}
        assert by_name["task"].lane == "worker-lane"
        assert by_name["parent"].lane == MAIN_LANE
        # Worker-lane spans never become parents of main-lane spans.
        assert by_name["parent"].parent is None

    def test_activate_restores_previous(self):
        tr = Tracer()
        with activate(tr) as active:
            assert active is tr
            assert current_tracer() is tr
            inner = Tracer()
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is tr
        assert current_tracer() is None

    def test_worker_lane_name_in_parent_uses_thread(self):
        name = worker_lane_name()
        assert name.startswith("worker-")


class TestExport:
    def _traced(self):
        ticks = iter(x * 0.5 for x in range(1000))
        tr = Tracer(sim_clock=lambda: next(ticks))
        with tr.span("outer", "summa", phase=0, stage=0):
            with tr.span("inner", "summa"):
                pass
        tr.instant("blip", "resilience")
        tr.metric("gauge", 42.0, tag="t")
        tr.metric("label", "not-a-number")
        return tr

    def test_chrome_events_structure(self):
        tr = self._traced()
        events = chrome_trace_events(tr)
        phs = [e["ph"] for e in events]
        assert "M" in phs and "X" in phs and "i" in phs and "C" in phs
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"wall clock", "simulated clock"}
        # Non-numeric metric values must not become counter events.
        counters = [e for e in events if e["ph"] == "C"]
        assert [c["name"] for c in counters] == ["gauge"]

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tr = self._traced()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(tr, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == n
        assert data["displayTimeUnit"] == "ms"

    def test_metrics_ndjson_roundtrip(self, tmp_path):
        tr = self._traced()
        path = tmp_path / "metrics.ndjson"
        n = write_metrics(tr, path)
        rows = read_metrics_ndjson(path)
        assert len(rows) == n == 2
        assert rows[0]["name"] == "gauge"
        assert rows[0]["value"] == 42.0
        assert rows[0]["attrs"] == {"tag": "t"}

    def test_metric_event_numpy_values_jsonable(self, tmp_path):
        import numpy as np

        ev = MetricEvent("m", np.int64(3), t_wall=0.0, attrs={"f": np.float64(1.5)})
        path = tmp_path / "m.ndjson"
        write_metrics_ndjson([ev], path)
        row = read_metrics_ndjson(path)[0]
        assert row["value"] == 3 and row["attrs"]["f"] == 1.5

    def test_summarize_mentions_spans_and_counters(self):
        tr = self._traced()
        tr.count("kernel.cpu-heap", 4)
        text = summarize(tr)
        assert "spans" in text
        assert "summa/outer" in text
        assert "counter kernel.cpu-heap: 4" in text

    def test_overlap_pairs_synthetic(self):
        tr = Tracer()
        mk = lambda **kw: Span(**{  # noqa: E731
            "id": 0, "parent": None, "name": "", "cat": "summa",
            "lane": MAIN_LANE, "t0_wall": 0.0, "t1_wall": 0.0, **kw,
        })
        tr.spans = [
            mk(id=1, name="merge", t0_wall=0.0, t1_wall=2.0,
               attrs={"phase": 0, "stage": 0}),
            # Overlapping stage-1 multiply in a worker lane: evidence.
            mk(id=2, name="local_multiply", lane="worker-pid1",
               t0_wall=1.0, t1_wall=3.0, attrs={"phase": 0, "stage": 1}),
            # Same stage (not k+1): no evidence.
            mk(id=3, name="local_multiply", lane="worker-pid1",
               t0_wall=1.0, t1_wall=3.0, attrs={"phase": 0, "stage": 0}),
            # Wrong phase: no evidence.
            mk(id=4, name="local_multiply", lane="worker-pid1",
               t0_wall=1.0, t1_wall=3.0, attrs={"phase": 1, "stage": 1}),
            # Main-lane multiply (serial backend): no evidence.
            mk(id=5, name="local_multiply", t0_wall=1.0, t1_wall=3.0,
               attrs={"phase": 0, "stage": 1}),
            # Disjoint in wall time: no evidence.
            mk(id=6, name="local_multiply", lane="worker-pid1",
               t0_wall=5.0, t1_wall=6.0, attrs={"phase": 0, "stage": 1}),
        ]
        pairs = overlap_pairs(tr)
        assert len(pairs) == 1
        task, merge = pairs[0]
        assert task.id == 2 and merge.id == 1


# ---------------------------------------------------------------------------
# Hypothesis: span nesting is structurally sound for arbitrary programs
# ---------------------------------------------------------------------------

#: A random well-formed instrumentation program: "open" pushes a span,
#: "close" pops one (ignored when nothing is open; the tail is closed at
#: the end), "instant" records a point event.
_programs = st.lists(
    st.sampled_from(["open", "close", "instant"]), max_size=60
)


def assert_spans_nest(spans):
    """The satellite-3 invariant: every span nests correctly."""
    by_id = {s.id: s for s in spans}
    for s in spans:
        assert s.t1_wall >= s.t0_wall
        if s.t0_sim is not None and s.t1_sim is not None:
            assert s.t1_sim >= s.t0_sim
        if s.parent is not None:
            p = by_id[s.parent]
            # A parent's interval contains its children's (both clocks):
            # no overlap-violating parents.
            assert p.t0_wall <= s.t0_wall
            assert s.t1_wall <= p.t1_wall
            if None not in (
                s.t0_sim, s.t1_sim, p.t0_sim, p.t1_sim
            ):
                assert p.t0_sim <= s.t0_sim
                assert s.t1_sim <= p.t1_sim


class TestNestingProperty:
    @given(program=_programs)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_programs_nest(self, program):
        ticks = iter(x * 0.25 for x in range(100000))
        tr = Tracer(sim_clock=lambda: next(ticks))
        open_spans = []
        for op in program:
            if op == "open":
                open_spans.append(tr.span(f"s{len(open_spans)}"))
            elif op == "close" and open_spans:
                open_spans.pop().close()
            elif op == "instant":
                tr.instant("ev")
        while open_spans:
            open_spans.pop().close()
        assert_spans_nest(tr.spans)
        # Exactly the opens (plus instants) were recorded.
        assert len(tr.spans) == (
            program.count("open") + program.count("instant")
        )

    @given(program=_programs)
    @settings(max_examples=50, deadline=None)
    def test_exception_unwind_closes_cleanly(self, program):
        tr = Tracer()

        def run(ops):
            if not ops:
                raise RuntimeError("boom")
            op, rest = ops[0], ops[1:]
            if op == "open":
                with tr.span("s"):
                    run(rest)
            else:
                tr.instant("ev") if op == "instant" else None
                run(rest)

        with pytest.raises(RuntimeError):
            run(program)
        assert_spans_nest(tr.spans)
        assert tr._stack() == []
