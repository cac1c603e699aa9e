"""Vectorized fast paths for the numeric hot loops.

The simulator has two kinds of code: *modeled* kernels, whose structure
and operation counts feed the machine model (heap/hash op counts, merge
events, prune protocol traffic), and *numeric* code, which only has to
produce the right numbers.  This package accelerates the second kind —
compiled Gustavson ESC, batched k-way merge, partition-based top-k, label
propagation components, arena-backed buffers, instance-level memo caches
— while guaranteeing bit-identical outputs to the faithful slow paths
(every accumulation happens in the same element order; see
``docs/performance.md`` for the contract).

Dispatch is global: :func:`enabled` gates every fast path, controlled by
the ``REPRO_PERF`` environment variable (default on) and the
:func:`fast_paths` context manager / :func:`set_fast_paths` toggle.
"""

from .arena import Arena, global_arena
from .cache import memo
from .dispatch import enabled, fast_paths, set_fast_paths

__all__ = [
    "Arena",
    "global_arena",
    "memo",
    "enabled",
    "fast_paths",
    "set_fast_paths",
]
