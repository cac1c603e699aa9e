"""The execution layer's contracts: resolution, pools, ordering, nesting.

Everything here runs the real thread pool (workers=2, tiny tasks), not a
mock, while staying fast enough for tier 1.
"""

import os

import pytest

from repro.parallel import (
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_backend,
    resolve_overlap,
    resolve_workers,
    shutdown_executors,
)
from repro.parallel import executor as executor_mod
from repro.parallel.work import probe_state


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


# ---------------------------------------------------------------------------
# Worker-count resolution
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3
        assert resolve_workers() == 8

    def test_string_values_accepted(self, monkeypatch):
        assert resolve_workers("5") == 5
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert resolve_workers() == 1  # blank env falls through to serial

    def test_auto_resolves_to_usable_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert resolve_workers("auto") == max(1, cores)
        assert resolve_workers(0) == max(1, cores)

    @pytest.mark.parametrize("bad", [-1, "-2", "many", "1.5"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestResolveBackend:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_OVERLAP", raising=False)

    def test_default_is_thread(self):
        assert resolve_backend() == "thread"
        assert resolve_backend(None) == "thread"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend("thread") == "thread"
        assert resolve_backend() == "serial"

    @pytest.mark.parametrize("bad", ["threads", "mpi", "2", "process"])
    def test_invalid_backend_rejected(self, bad, monkeypatch):
        with pytest.raises(ValueError, match="backend.*options"):
            resolve_backend(bad)
        monkeypatch.setenv("REPRO_BACKEND", bad)
        with pytest.raises(ValueError, match="backend.*options"):
            resolve_backend()

    def test_overlap_defaults_off(self):
        assert resolve_overlap() is False
        assert resolve_overlap(None) is False

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [(True, True), (False, False), ("1", True), ("0", False),
         ("on", True), ("off", False), ("Yes", True), ("no", False)],
    )
    def test_overlap_values(self, raw, expected):
        assert resolve_overlap(raw) is expected

    def test_overlap_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        assert resolve_overlap() is True
        assert resolve_overlap(False) is False  # explicit beats env

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            resolve_overlap("sometimes")


# ---------------------------------------------------------------------------
# Executor selection and lifecycle
# ---------------------------------------------------------------------------


class TestGetExecutor:
    def test_serial_for_one_worker(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert get_executor(1) is get_executor(None)

    def test_default_pool_is_a_cached_thread_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ex2 = get_executor(2)
        assert isinstance(ex2, ThreadExecutor)
        assert ex2.workers == 2
        assert get_executor(2) is ex2
        assert get_executor(2, backend="thread") is ex2
        assert get_executor(3) is not ex2

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert get_executor().workers == 2


class TestSerialExecutor:
    def test_runs_inline_in_order(self):
        ex = SerialExecutor()
        assert ex.workers == 1
        out = ex.run_batch(pow, [(2, 3), (3, 2)])
        assert out == [8, 9]
        ex.close()  # no-op


# ---------------------------------------------------------------------------
# Thread backend
# ---------------------------------------------------------------------------


class TestThreadExecutor:
    def test_selected_by_backend_and_cached(self):
        ex = get_executor(2, backend="thread")
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 2
        assert get_executor(2, backend="thread") is ex
        assert get_executor(3, backend="thread") is not ex

    def test_serial_backend_forces_inline(self):
        assert isinstance(get_executor(4, backend="serial"),
                          SerialExecutor)

    def test_environment_selects_thread_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        assert isinstance(get_executor(2), ThreadExecutor)

    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2"):
            ThreadExecutor(1)

    def test_batch_results_in_task_order(self):
        ex = get_executor(2, backend="thread")
        assert ex.run_batch(pow, [(i, 2) for i in range(10)]) == [
            i * i for i in range(10)
        ]
        assert ex.run_batch(pow, []) == []

    def test_zero_copy_same_process(self):
        # The thread backend's whole point: tasks see the parent's
        # objects, no transport, no pickling.
        ex = get_executor(2, backend="thread")
        states = ex.run_batch(probe_state, [()] * 4)
        assert all(s["pid"] == os.getpid() for s in states)
        payload = {"marker": object()}
        (echoed,) = ex.run_batch(dict.get, [(payload, "marker")])
        assert echoed is payload["marker"]

    def test_close_then_reuse_restarts_lazily(self):
        ex = get_executor(2, backend="thread")
        assert ex.run_batch(pow, [(2, 2)]) == [4]
        ex.close()
        assert ex._pool is None
        assert ex.run_batch(pow, [(2, 5)]) == [32]

    def test_nested_request_inside_thread_worker_degrades(self):
        # Regression: the in-worker guard used to be a process-global
        # flag only, so a thread worker could spawn a nested pool.
        ex = get_executor(2, backend="thread")
        states = ex.run_batch(probe_state, [()] * 4)
        for state in states:
            assert state["in_worker"] is True
            assert state["nested_executor"] == "SerialExecutor"
        # The guard is thread-local: once the batch is done, the parent
        # thread is unaffected.
        me = probe_state()
        assert me["in_worker"] is False
        assert me["nested_executor"] == "ThreadExecutor"

    def test_task_error_propagates(self):
        ex = get_executor(2, backend="thread")
        with pytest.raises(ZeroDivisionError):
            ex.run_batch(divmod, [(1, 0)])
        assert ex.run_batch(pow, [(2, 4)]) == [16]  # pool still healthy


class TestSubmitBatch:
    def test_serial_handle_is_lazy_and_ordered(self):
        calls = []

        def record(i):
            calls.append(i)
            return i * 10

        handle = SerialExecutor().submit_batch(record, [(0,), (1,)])
        assert calls == []  # nothing ran at submit time
        assert handle.result() == [0, 10]
        assert calls == [0, 1]

    def test_pool_handles_overlap_in_flight(self):
        ex = get_executor(2, backend="thread")
        first = ex.submit_batch(pow, [(i, 2) for i in range(4)])
        second = ex.submit_batch(pow, [(i, 3) for i in range(4)])
        # Gather out of submission order: both batches complete.
        assert second.result() == [i**3 for i in range(4)]
        assert first.result() == [i**2 for i in range(4)]
        assert first.result() == [i**2 for i in range(4)]  # idempotent


def test_module_has_atexit_shutdown():
    """The pools must not outlive the interpreter."""
    import atexit

    # Registration happened at import; a second registration is harmless,
    # so just assert the hook is the module's own shutdown function.
    assert executor_mod.shutdown_executors is shutdown_executors
    assert atexit  # smoke: the module imported it for registration
