"""System configuration (Table 1 of the paper) and capacity scaling.

The paper simulates an 8-core processor with a three-level SRAM cache
hierarchy, an HBM2 near memory (1/2/4 GB) and a DDR4-3200 far memory
(16 GB).  The model drives LLC-filtered traces, so no SRAM level is
simulated: the one cache number it reads is the LLC latency,
:attr:`CoreParams.llc_latency_cycles`, charged once per reference.

Running the paper's capacities through a pure-Python model is not
practical, so every configuration carries a ``scale`` denominator: all
*capacities* (near memory, far memory, DRAM cache, workload footprints) are
divided by ``scale`` while all *granularities* (cache lines, sectors, pages),
*ratios* (NM:FM) and *timing/energy parameters* are preserved.  The default
``scale`` of 256 turns the paper's 1 GB / 16 GB machine into a 4 MB / 64 MB
model that Python can drive through millions of references.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .common import GIB, KIB, MIB

#: Default capacity scaling denominator (paper capacity / model capacity).
DEFAULT_SCALE = 256


@dataclass(frozen=True)
class CoreParams:
    """Processor core parameters (Table 1, "Cores" row)."""

    num_cores: int = 8
    issue_width: int = 4
    frequency_ghz: float = 3.2
    #: Maximum overlapped LLC misses per core used by the interval model
    #: (MSHR-bound memory-level parallelism).
    max_outstanding_misses: int = 8
    #: Reorder-buffer depth in instructions: misses closer together than this
    #: can overlap (memory-level parallelism window of the interval model).
    rob_size: int = 256
    #: Cycles every reference spends in the shared LLC (Table 1's L3)
    #: before it reaches the memory system.
    llc_latency_cycles: int = 14

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class DramParams:
    """Parameters of one DRAM device (near or far memory).

    Timings follow Table 1: HBM2 at 2 GHz with 8 x 128-bit channels and
    tCAS-tRCD-tRP of 7-7-7; DDR4-3200 with 2 x 64-bit channels and 22-22-22.
    Energy numbers are per-bit read/write+I/O energy and per-activate
    (ACT/PRE) energy.
    """

    name: str
    capacity_bytes: int
    channels: int
    bus_bits: int
    banks_per_channel: int
    clock_mhz: float
    tcas_cycles: int
    trcd_cycles: int
    trp_cycles: int
    rw_energy_pj_per_bit: float
    act_pre_energy_nj: float
    row_bytes: int = 2048
    #: Granularity (bytes) at which consecutive addresses rotate channels.
    channel_interleave_bytes: int = 256

    @property
    def clock_ns(self) -> float:
        """Duration of one memory clock cycle in nanoseconds."""
        return 1000.0 / self.clock_mhz


def hbm2_params(capacity_bytes: int) -> DramParams:
    """HBM2 near memory as configured in Table 1."""
    return DramParams(
        name="HBM2",
        capacity_bytes=capacity_bytes,
        channels=8,
        bus_bits=128,
        banks_per_channel=8,
        clock_mhz=2000.0,
        tcas_cycles=7,
        trcd_cycles=7,
        trp_cycles=7,
        rw_energy_pj_per_bit=6.4,
        act_pre_energy_nj=15.0,
    )


def ddr4_params(capacity_bytes: int) -> DramParams:
    """DDR4-3200 far memory as configured in Table 1."""
    return DramParams(
        name="DDR4-3200",
        capacity_bytes=capacity_bytes,
        channels=2,
        bus_bits=64,
        banks_per_channel=8,
        clock_mhz=1600.0,
        tcas_cycles=22,
        trcd_cycles=22,
        trp_cycles=22,
        rw_energy_pj_per_bit=33.0,
        act_pre_energy_nj=15.0,
    )


@dataclass(frozen=True)
class Hybrid2Params:
    """Configuration knobs of the Hybrid2 design itself (Section 5.1).

    The paper's design-space exploration settles on a 64 MB DRAM cache with
    2 KB sectors and 256 B cache lines, 16-way associative, 9-bit access
    counters and a 100 K-cycle migration-bandwidth window.
    """

    dram_cache_bytes: int = 64 * MIB
    sector_bytes: int = 2048
    cache_line_bytes: int = 256
    associativity: int = 16
    access_counter_bits: int = 9
    bandwidth_window_cycles: int = 100_000
    xta_latency_ns: float = 1.0
    #: Number of Free-FM-Stack entries kept on chip.
    on_chip_stack_entries: int = 16
    #: Fraction of near memory reserved for the remapping structures.
    metadata_fraction: float = 0.035

    @property
    def lines_per_sector(self) -> int:
        return self.sector_bytes // self.cache_line_bytes

    @property
    def cache_sectors(self) -> int:
        return self.dram_cache_bytes // self.sector_bytes

    @property
    def xta_sets(self) -> int:
        return max(1, self.cache_sectors // self.associativity)

    @property
    def counter_max(self) -> int:
        return (1 << self.access_counter_bits) - 1

    def scaled(self, scale: int) -> "Hybrid2Params":
        """Return a copy with the DRAM cache capacity divided by ``scale``."""
        return replace(self, dram_cache_bytes=max(
            self.sector_bytes * self.associativity,
            self.dram_cache_bytes // scale))


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration: Table 1 plus the scaling denominator."""

    cores: CoreParams
    near: DramParams
    far: DramParams
    hybrid2: Hybrid2Params
    scale: int = DEFAULT_SCALE

    @property
    def nm_to_fm_ratio(self) -> float:
        return self.near.capacity_bytes / self.far.capacity_bytes

    def describe(self) -> dict:
        """Dictionary rendering used by the Table 1 bench and the docs.

        The ``l1``/``l2``/``l3`` rows are the paper's values: no SRAM
        level is simulated, and only the L3 latency is read (from
        :attr:`CoreParams.llc_latency_cycles`).
        """
        return {
            "cores": (f"{self.cores.num_cores} cores, {self.cores.issue_width}-way, "
                      f"{self.cores.frequency_ghz} GHz"),
            "l1": "64 KB, 4-way, 1 cycle",
            "l2": "256 KB, 8-way, 9 cycles",
            "l3": (f"8 MB shared, 16-way, "
                   f"{self.cores.llc_latency_cycles} cycles"),
            "near_memory": (f"{self.near.name}, {self.near.capacity_bytes // MIB} MB "
                            f"(scaled 1/{self.scale}), {self.near.channels}x"
                            f"{self.near.bus_bits}-bit channels"),
            "far_memory": (f"{self.far.name}, {self.far.capacity_bytes // MIB} MB "
                           f"(scaled 1/{self.scale}), {self.far.channels}x"
                           f"{self.far.bus_bits}-bit channels"),
            "nm_fm_ratio": f"1:{round(1 / self.nm_to_fm_ratio)}",
            "dram_cache": (f"{self.hybrid2.dram_cache_bytes // KIB} KB, "
                           f"{self.hybrid2.sector_bytes} B sectors, "
                           f"{self.hybrid2.cache_line_bytes} B lines"),
        }


def make_config(nm_gb: int = 1, fm_gb: int = 16, scale: int = DEFAULT_SCALE,
                hybrid2: Hybrid2Params | None = None) -> SystemConfig:
    """Build a paper configuration with the given NM size and scaling.

    ``nm_gb`` is the *paper* near-memory capacity (1, 2 or 4); the returned
    configuration holds the scaled capacity.  ``fm_gb`` is the paper far
    memory capacity (16).
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    near = hbm2_params(nm_gb * GIB // scale)
    far = ddr4_params(fm_gb * GIB // scale)
    h2 = (hybrid2 or Hybrid2Params()).scaled(scale)
    return SystemConfig(
        cores=CoreParams(),
        near=near,
        far=far,
        hybrid2=h2,
        scale=scale,
    )
