"""Outside-in layer ledger: self time and counters per layer.

The ledger wraps a module attribute (or a class method) with a function
that pushes a frame on a per-thread stack, calls the original, and pops.
A frame's *self time* is its duration minus the time of the frames it
directly encloses, so each wall-clock second lands in exactly one layer
of the thread that spent it.  The program is not edited: the wrappers
are installed where callers look the names up and removed on exit.

Each thread keeps its own stack and its own totals (no lock on the hot
path).  The bench thread opens a ``window`` root frame; a callable
wrapped as layer ``TASK`` is the root frame of a pool worker's task.
Time a root frame
spends outside every layer is *unattributed*, so per thread

    sum(layer self times) + unattributed == root duration

and summed over threads the layer self times plus unattributed equal the
bench thread's window wall plus the workers' busy time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter

#: Root frame names: not layers, their self time is unattributed.
WINDOW = "bench.window"
TASK = "parallel.task"


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "root_s")

    def __init__(self):
        # Frames are [layer, start, enclosed-child seconds].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s: dict[str, float] = defaultdict(float)


class Ledger:
    """Per-layer self times and counters gathered by wrapped callables."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _push(self, layer: str) -> None:
        self._state().stack.append([layer, _now(), 0.0])

    def _pop(self) -> None:
        st = self._local.state
        layer, start, child = st.stack.pop()
        dur = _now() - start
        if layer in (WINDOW, TASK):
            st.root_s[layer] += dur
            st.root_s[layer + ".self"] += dur - child
        else:
            st.self_s[layer] += dur - child
        if st.stack:
            st.stack[-1][2] += dur

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (thread-local, no lock)."""
        self._state().counts[name] += value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, layer: str, after=None):
        """``fn`` timed as ``layer``; ``after(ledger, result, args,
        kwargs)`` runs inside the frame to record counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._push(layer)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self, out, args, kwargs)
                return out
            finally:
                self._pop()

        wrapper.__wrapped_by_ledger__ = True
        return wrapper

    def patch(self, target: str, layer: str, after=None) -> None:
        """Wrap ``"module:attr"`` or ``"module:Class.method"`` in place.

        Modules are resolved through :func:`importlib.import_module`, so a
        package attribute that shadows a submodule (``repro.mcl.hipmcl``
        is both) still reaches the submodule.
        """
        modname, _, path = target.partition(":")
        owner = importlib.import_module(modname)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if getattr(original, "__wrapped_by_ledger__", False):
            raise RuntimeError(f"{target} is already wrapped")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, after))

    def restore(self) -> None:
        """Put every original binding back (reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, specs):
        """Patch every ``(target, layer, after)`` spec; restore on exit."""
        try:
            for target, layer, after in specs:
                self.patch(target, layer, after)
            yield self
        finally:
            self.restore()

    @contextmanager
    def window(self):
        """A bench-thread root frame: its wall is the traced wall."""
        self._push(WINDOW)
        try:
            yield
        finally:
            self._pop()

    # -- totals ------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """``(self_s, counts, roots)`` summed over every thread."""
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        roots: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in ((st.self_s, self_s), (st.counts, counts),
                             (st.root_s, roots)):
                for k, v in src.items():
                    dst[k] += v
        return dict(self_s), dict(counts), dict(roots)
