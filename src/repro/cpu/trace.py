"""Memory-level traces, stored as columns.

A trace describes a stream of LLC-filtered memory references, as the
workload generators produce them and the trace-file frontend parses them.
Each reference carries the number of non-memory instructions the core
executed since the previous reference (the "gap"), which is what the
interval core model needs to reconstruct time.

A :class:`Trace` stores parallel numpy arrays (``gaps`` / ``addresses`` /
``is_write`` / ``core_ids``), which is what lets
:func:`~repro.workloads.synthetic.generate_trace` build traces without a
per-record Python loop and lets :func:`~repro.sim.simulator.simulate` drive
them as flat columns.  :func:`round_robin_order` is the one multi-core
schedule: the simulator's and ``trace interleave``'s.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


def _readonly(array: np.ndarray) -> np.ndarray:
    """Non-writable view of ``array`` (the caller's array stays writable)."""
    view = array.view()
    view.setflags(write=False)
    return view


class Trace:
    """A materialised trace stored as parallel columns.

    ``core_ids`` defaults to a constant ``core_id`` column, and ``Trace()``
    is the empty trace.  The summary statistics (``instructions``,
    ``write_fraction``, ``footprint_bytes``) are computed with numpy
    reductions and cached, so repeated property access is O(1).
    """

    __slots__ = ("gaps", "addresses", "is_write", "core_ids", "_stat_cache",
                 "__weakref__")

    def __init__(self, gaps: Sequence[int] = (),
                 addresses: Sequence[int] = (),
                 is_write: Sequence[bool] = (),
                 core_ids: Optional[Sequence[int]] = None,
                 core_id: int = 0) -> None:
        gaps = np.ascontiguousarray(gaps, dtype=np.int64)
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        writes = np.ascontiguousarray(is_write, dtype=bool)
        n = len(gaps)
        if core_ids is None:
            cores = np.full(n, core_id, dtype=np.int64)
        else:
            cores = np.ascontiguousarray(core_ids, dtype=np.int64)
        if not len(addresses) == len(writes) == len(cores) == n:
            raise ValueError("trace columns must have equal length")
        # Read-only views: the summary statistics are cached, so in-place
        # column mutation would go silently stale.
        self.gaps = _readonly(gaps)
        self.addresses = _readonly(addresses)
        self.is_write = _readonly(writes)
        self.core_ids = _readonly(cores)
        self._stat_cache: Dict[object, object] = {}

    def __len__(self) -> int:
        return int(self.gaps.shape[0])

    # ------------------------------------------------------------------
    # cached summary statistics
    # ------------------------------------------------------------------
    def _cached(self, key, compute):
        cache = self._stat_cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    @property
    def instructions(self) -> int:
        """Total instructions represented (gaps plus one per reference)."""
        return self._cached(
            "instructions", lambda: int(self.gaps.sum()) + len(self))

    @property
    def demand_references(self) -> int:
        return len(self)

    @property
    def write_fraction(self) -> float:
        n = len(self)
        return self._cached(
            "write_fraction",
            lambda: np.count_nonzero(self.is_write) / n if n else 0.0)

    def footprint_bytes(self, granularity: int = 64) -> int:
        """Number of distinct ``granularity`` blocks touched, in bytes."""
        return self._cached(
            ("footprint", granularity),
            lambda: int(np.unique(self.addresses // granularity).size)
            * granularity)

    def mpki(self) -> float:
        """Memory references per kilo-instruction of this trace."""
        instr = self.instructions
        if instr == 0:
            return 0.0
        return self.demand_references / (instr / 1000.0)


def round_robin_order(lengths: Sequence[int]) -> np.ndarray:
    """Round-robin order of sources of ``lengths`` records each.

    Returns indices into the sources' concatenated columns: one record per
    live source per pass, in source order, exhausted sources dropping out
    (a stable sort on ``(position, source)``).
    """
    sources = np.repeat(np.arange(len(lengths)), lengths)
    positions = np.concatenate([np.arange(n) for n in lengths])
    return np.lexsort((sources, positions))
