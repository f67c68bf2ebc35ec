"""Abstract interface shared by every memory-system design.

Every design in the paper's evaluation — the no-NM baseline, the DRAM
caches, the migration schemes and Hybrid2 itself — presents the same
interface to the simulator:

* :meth:`MemorySystem.access` serves one processor-critical 64 B request and
  returns its latency in ns, and :meth:`MemorySystem.fast_path` hands the
  driver the same request path as a per-reference step plus the value
  columns of a whole address column (both are defined here, once, on top
  of each design's :meth:`~MemorySystem._columns` and
  :meth:`~MemorySystem._step`);
* :attr:`MemorySystem.flat_capacity_bytes` reports how much main memory the
  design exposes to software (the capacity argument of the paper);
* :meth:`MemorySystem.collect_stats` returns the counters every figure of
  the evaluation is built from (NM/FM traffic, energy, NM service ratio).

Paper anchor: the common interface behind every design compared in the
evaluation (Section 5, Figures 12-18) and the motivation study (Section 2,
Figures 1-2).
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, Optional, Sequence

from ..common import LINE_SIZE
from ..memory.controller import MemoryController
from ..params import DramParams, SystemConfig
from ..stats import Stats


#: ``step(*values, is_write, now_ns) -> latency_ns``: serves the reference
#: whose :meth:`MemorySystem._columns` values are ``values``.
Step = Callable[..., float]


class MemorySystem(abc.ABC):
    """One memory-system organisation under evaluation.

    A design implements its access path exactly once, in two pieces:

    * :meth:`_columns` is the pure address arithmetic (wrapping, set
      indices, segment/offset splits, placement addresses).  It is written
      with operators that give the same values for an int64 ndarray and
      for one Python int;
    * :meth:`_step` compiles everything else (state probes and updates,
      DRAM accesses, the counters that depend on state) into a closure
      ``step(*values, is_write, now_ns) -> latency_ns`` that takes one
      reference's column values as arguments, in :meth:`_columns` order.
      Addresses the design knows before the run reach the step as the
      ``(slot, row)`` values of
      :meth:`~repro.memory.controller.MemoryController.locate`.

    The step does not count requests: ``requests`` and ``write_requests``
    depend on the schedule alone, so ``simulate()`` adds them once for the
    measured region, and :meth:`access` counts its own.  Nor does it count
    the requests served from near memory: each is one demand line of the
    near memory, which :attr:`requests_from_nm` reads.

    :meth:`fast_path` hands the step to the driver with the columns of a
    whole run, and :meth:`access` calls the same step on one address's
    values, so a single request and a batch take the same code.
    """

    #: Short identifier used in result tables ("HYBRID2", "MPOD", ...).
    name: str = "memory-system"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.near: Optional[MemoryController] = None
        self.far: Optional[MemoryController] = None
        self.requests = 0
        self.write_requests = 0

    # ------------------------------------------------------------------
    # mandatory interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _columns(self, addresses) -> Sequence:
        """The address-derived columns :meth:`_step` reads, for an int64
        ndarray of addresses or for one Python int address."""

    @abc.abstractmethod
    def _step(self) -> Step:
        """Compile the access path into a per-reference step that takes
        one reference's :meth:`_columns` values."""

    @property
    @abc.abstractmethod
    def flat_capacity_bytes(self) -> int:
        """Main-memory capacity visible to software."""

    # ------------------------------------------------------------------
    # the access path, defined once over _columns/_step
    # ------------------------------------------------------------------
    def fast_path(self, addresses, columns: list) -> Step:
        """Return the step the driver calls once per reference, and append
        its value columns to ``columns``.

        ``addresses`` is the full flattened int64 address column of the run
        (scheduler order, warmup included).  :meth:`_columns` vectorizes the
        address arithmetic over it with numpy once; the columns reach the
        driver as Python lists, because native ints iterate several times
        faster than numpy scalars in a Python loop, and the driver passes
        each reference's values to the step.  Rare events (evictions,
        swaps, interval migrations, XTA misses) run in methods the step
        calls, which go through the controller methods.
        """
        columns.extend(column.tolist()
                       for column in self._columns(addresses))
        return self._step()

    @functools.cached_property
    def _access_step(self) -> Step:
        """The step :meth:`access` calls, compiled on its first call.  A
        run's step is not kept: most steps refer to their system, and a
        system holding its own step would outlive the run until the next
        cyclic garbage collection."""
        return self._step()

    def access(self, address: int, is_write: bool, now_ns: float) -> float:
        """Serve one processor-critical 64 B request; return its latency
        in ns.  Calls the design's step on the :meth:`_columns` values of
        ``address``, the same code the :meth:`fast_path` step runs, and
        counts the request (the step does not)."""
        self.requests += 1
        if is_write:
            self.write_requests += 1
        return self._access_step(*self._columns(int(address)), is_write,
                                 now_ns)

    def reset_measurement(self) -> None:
        """Zero the request, traffic and energy counters after a warm-up.

        The structural state of the design (cache contents, XTA, remap
        tables, DRAM timing state) is kept.  So are the design-specific
        counters (cache hits and misses, fetched and used blocks,
        migrations, swaps, XTA and remap-cache hits, ...): they span the
        warm-up as well, while ``requests``, ``nm.*``/``fm.*`` traffic and
        energy describe the measured region only.
        """
        self.requests = 0
        self.write_requests = 0
        if self.near is not None:
            self.near.reset_counters()
        if self.far is not None:
            self.far.reset_counters()

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _make_controllers(self, near: Optional[DramParams],
                          far: DramParams) -> None:
        self.near = MemoryController(near) if near is not None else None
        self.far = MemoryController(far)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def requests_from_nm(self) -> int:
        """Requests served from near memory since the last reset: the near
        memory's demand lines, since every such request issues exactly one
        and nothing else does (0 without a near memory)."""
        near = self.near
        return near.demand_bytes // LINE_SIZE if near is not None else 0

    @property
    def nm_service_ratio(self) -> float:
        """Fraction of processor requests served from near memory (Fig. 15)."""
        return self.requests_from_nm / self.requests if self.requests else 0.0

    def collect_stats(self) -> Stats:
        """Counters used by the evaluation figures."""
        stats = Stats()
        stats.set("requests", self.requests)
        stats.set("requests.writes", self.write_requests)
        stats.set("requests.from_nm", self.requests_from_nm)
        stats.set("nm_service_ratio", self.nm_service_ratio)
        stats.set("flat_capacity_bytes", self.flat_capacity_bytes)
        # Each memory's energy is derived on read: read it once.
        nm_energy = fm_energy = 0.0
        if self.near is not None:
            nm_energy = self.near.energy_pj
            stats.set("nm.bytes", self.near.total_bytes)
            stats.set("nm.read_bytes", self.near.read_bytes)
            stats.set("nm.write_bytes", self.near.write_bytes)
            stats.set("nm.metadata_bytes", self.near.metadata_bytes)
            stats.set("nm.energy_pj", nm_energy)
        if self.far is not None:
            fm_energy = self.far.energy_pj
            stats.set("fm.bytes", self.far.total_bytes)
            stats.set("fm.read_bytes", self.far.read_bytes)
            stats.set("fm.write_bytes", self.far.write_bytes)
            stats.set("fm.energy_pj", fm_energy)
        stats.set("energy_pj", nm_energy + fm_energy)
        self._extra_stats(stats)
        return stats

    def _extra_stats(self, stats: Stats) -> None:
        """Subclasses add design-specific counters here."""

    def describe(self) -> str:
        """One-line human summary: design name plus exposed capacity."""
        return f"{self.name} (flat capacity {self.flat_capacity_bytes // (1 << 20)} MB)"
