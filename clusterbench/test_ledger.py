"""Self-checks of the benchmark: ledger mechanics and ledger tiling.

Run from the root of a checkout:

    python3 -m pytest -q clusterbench

The tiling checks run every workload once, traced, for one second of
measurement (about a minute and a half in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from clusterbench import run
from clusterbench.calibrate import Calibration
from clusterbench.ledger import TASK, WINDOW, Ledger
from clusterbench.oracle import same_partition
from clusterbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _fake_module(monkeypatch):
    """A throwaway module with a nested call chain and a class."""
    mod = types.ModuleType("clusterbench_fake")

    def inner(x):
        time.sleep(0.02)
        return x + 1

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) * 2

    class Box:
        def get(self):
            time.sleep(0.01)
            return 7

    mod.inner, mod.outer, mod.Box = inner, outer, Box
    monkeypatch.setitem(sys.modules, "clusterbench_fake", mod)
    return mod


def test_self_times_tile_the_window_and_originals_come_back(monkeypatch):
    mod = _fake_module(monkeypatch)
    originals = (mod.inner, mod.outer, mod.Box.__dict__["get"])
    ledger = Ledger()
    specs = [
        ("clusterbench_fake:outer", "outer", None),
        ("clusterbench_fake:inner", "inner",
         lambda led, out, a, k: led.count("inner.calls")),
        ("clusterbench_fake:Box.get", "box", None),
    ]
    with ledger.installed(specs), ledger.window():
        assert mod.outer(1) == 4
        assert mod.Box().get() == 7
        time.sleep(0.01)
    assert (mod.inner, mod.outer, mod.Box.__dict__["get"]) == originals

    self_s, counts, roots = ledger.totals()
    assert counts == {"inner.calls": 1}
    assert self_s["inner"] >= 0.02
    assert 0.01 <= self_s["outer"] < 0.02 + self_s["inner"]
    assert self_s["box"] >= 0.01
    assert roots[WINDOW + ".self"] >= 0.01
    tiled = sum(self_s.values()) + roots[WINDOW + ".self"]
    assert tiled == pytest.approx(roots[WINDOW], rel=1e-9)


def test_restore_after_a_raising_call(monkeypatch):
    mod = _fake_module(monkeypatch)
    original = mod.inner
    ledger = Ledger()
    with pytest.raises(TypeError):
        with ledger.installed([("clusterbench_fake:inner", "inner", None)]):
            mod.inner("not a number")
    assert mod.inner is original
    assert ledger.totals()[0]["inner"] > 0


def test_worker_threads_keep_their_own_stacks(monkeypatch):
    mod = _fake_module(monkeypatch)
    ledger = Ledger()
    specs = [
        ("clusterbench_fake:inner", "inner", None),
        ("clusterbench_fake:outer", "outer", None),
    ]
    task = ledger.wrap(lambda x: mod.inner(x), TASK)
    with ledger.installed(specs), ledger.window():
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(task, i) for i in range(4)]
            mod.outer(0)
            assert [f.result() for f in futures] == [1, 2, 3, 4]
    self_s, _, roots = ledger.totals()
    # Four worker sleeps of 20 ms land in `inner` even though the bench
    # thread was inside `outer` at the time.
    assert self_s["inner"] >= 5 * 0.02
    assert roots[TASK] >= 4 * 0.02
    tiled = sum(self_s.values()) + roots[WINDOW + ".self"] \
        + roots[TASK + ".self"]
    assert tiled == pytest.approx(roots[WINDOW] + roots[TASK], rel=1e-9)


def test_partition_comparison_ignores_label_names():
    assert same_partition([0, 0, 1, 2], [5, 5, 3, 9])
    assert not same_partition([0, 0, 1, 1], [0, 1, 1, 1])
    assert not same_partition([0, 1, 1], [0, 0, 1])
    assert not same_partition([0, 1], [0, 1, 2])


def test_tail_is_the_highest_percentile_with_ten_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = [float(i) for i in range(1, 41)]
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == 75.0


def test_calibration_rescales_each_stretch_by_its_two_samples():
    cal = Calibration()
    # Samples of 1, 2 and 1 s: both stretches between them run at 1.5 s/cal.
    cal.spans = [(0.0, 1.0), (3.0, 5.0), (6.0, 7.0)]
    assert cal.between(1.0, 6.0) == pytest.approx((3.0, 2.0))
    # The kernel's own time (3..5) is left out of a window across it.
    assert cal.between(2.0, 5.5) == pytest.approx((1.5, 1.0))
    with pytest.raises(ValueError):
        cal.between(0.5, 6.0)
    cal.sample()
    assert len(cal.times) == 4 and cal.times[-1] > 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def _traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "clusterbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_tile_the_traced_wall(workload):
    res = _traced(workload)
    assert res["correct"] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    layers = sum(m[name] for name in run.SELF_TIME.values())
    busy = m["bench.traced_wall_s"] + m["parallel.worker_busy_s"]
    assert layers + m["bench.unattributed_s"] == pytest.approx(busy, rel=1e-6)
    assert m["bench.unattributed_s"] < 0.05 * busy
    assert (m["parallel.tasks"] > 0) == (workload == "dense-thread2")
    service = ("service.queue_s", "checkpoint.self_s", "locality.self_s")
    for name in service:
        assert (m[name] > 0) == (workload == "delta-service"), name
