"""Matrix-keyed memo cache with single-flight concurrency discipline.

Derived quantities (per-column flops profiles, DCSC footprints, phase
slabs) ride on the matrix instance they describe:
the memo store lives in the matrix's ``_memo`` slot, so the cache key *is*
the matrix identity and the entry's lifetime is the matrix's lifetime.
HipMCL squares its iterate — the same ``DistributedCSC`` blocks serve as
both A and B across all h phases of a SUMMA call and across the
estimation pass — so a quantity computed once per block is reused many
times within an iteration, and any matrix that survives into later
iterations keeps its entries.

Thread safety: the thread execution backend hits these caches from many
worker threads at once (every stage-k task asks for the same A-block's
derived quantities).  :func:`memo` is therefore **single-flight**: one
thread builds, concurrent callers for the same ``(mat, key)`` wait for
the in-flight build and then re-read the store — a build never runs twice
for a key, and a ``build()`` that raises releases the flight so a later
caller can retry.

Mutation contract: :class:`~repro.sparse.csc.CSCMatrix` never mutates its
arrays after construction.  External code that does must call
``mat.invalidate_caches()``, which clears this store too — a ``memo``
call sequenced after the invalidation re-reads the fresh (empty) store,
so it can never return a pre-invalidation value.
"""

from __future__ import annotations

import threading

#: Guards every matrix's ``_memo`` slot (store creation, entry lookup and
#: publication).  One process-wide lock is enough: the critical sections
#: are a couple of dict operations; ``build()`` always runs outside it.
_LOCK = threading.Lock()


class _InFlight:
    """Placeholder for a build in progress; waiters block on the event."""

    __slots__ = ("event",)

    def __init__(self):
        self.event = threading.Event()


def memo(mat, key, build):
    """Return ``build()`` memoized under ``key`` on ``mat``'s cache slot."""
    while True:
        with _LOCK:
            store = mat._memo
            if store is None:
                store = {}
                mat._memo = store
            entry = store.get(key, _LOCK)  # _LOCK doubles as the sentinel
            if entry is _LOCK:
                flight = _InFlight()
                store[key] = flight
                break
            if not isinstance(entry, _InFlight):
                return entry
            flight = entry
        # Another thread is building this entry: wait, then re-read the
        # store (the builder may have failed, or an invalidate_caches may
        # have swapped the store — both mean we retry from scratch).
        flight.event.wait()

    try:
        value = build()
    except BaseException:
        with _LOCK:
            if store.get(key) is flight:
                del store[key]
        flight.event.set()
        raise
    with _LOCK:
        if store.get(key) is flight:
            store[key] = value
    flight.event.set()
    return value
