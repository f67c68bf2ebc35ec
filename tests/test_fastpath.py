"""Bit-identity of the DRAM timing kernels and the fast-path dispatch.

``tests/test_engine_equivalence.py`` pins the end-to-end contract; the tests
here pin the layers underneath it:

* the controller methods and the kernel pair
  :func:`repro.memory.kernels.make_kernels` compiles for each controller,
  against the frozen golden ``tests/data/golden/dram_timing.json`` (every
  returned latency and the final controller state, float for float),
  recorded from the method-chain timing model the kernels replaced
  and regenerated with ``tools/make_dram_golden.py``;
* the ``MemorySystem`` access protocol: ``access`` and ``fast_path`` are
  defined once, on the base class, over each design's ``_columns`` and
  ``_step``.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import DESIGN_FACTORIES, IdealCache, MemorySystem
from repro.common import LINE_SIZE
from repro.core.hybrid2 import Hybrid2System
from repro.memory.controller import MemoryController
from repro.params import hbm2_params, make_config
from repro.sim.perfbench import NullMemorySystem

CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden"
                     / "dram_timing.json").read_text())
SCHEDULES = runpy.run_path(str(ROOT / "tools" / "make_dram_golden.py"))


def assert_matches_golden(case: str, route: str) -> None:
    got = SCHEDULES["CASES"][case](route)
    expected = GOLDEN[case]
    assert len(got["latencies"]) == len(expected["latencies"])
    for i, (left, right) in enumerate(zip(got["latencies"],
                                          expected["latencies"])):
        assert left == right, f"{case} access {i}: {left!r} != {right!r}"
    for key, value in expected["state"].items():
        assert got["state"][key] == value, f"{case} state {key!r} diverged"


@pytest.mark.parametrize("params_name", ["hbm2", "ddr4"])
def test_line_kernel_matches_controller_access(params_name):
    for route in ("controller", "kernels"):
        assert_matches_golden(f"line_{params_name}", route)


def test_block_kernel_matches_transfer_block():
    """HBM2 and DDR4 blocks, plus unaligned and partial-span blocks on a
    3-channel map whose interleave exceeds its row."""
    for case in ("block", "block_ddr4", "block_unaligned"):
        for route in ("controller", "kernels"):
            assert_matches_golden(case, route)


def test_kernel_interleaves_with_slow_path():
    """Controller-method and kernel accesses share the same live state."""
    assert_matches_golden("interleaved", "mixed")


def test_kernel_counters_reset_in_place():
    """reset_counters() must be visible to already-compiled kernels."""
    controller = MemoryController(hbm2_params(1 << 27))
    line_access = controller.line_access
    line_access(*controller.locate(0), False, 0.0, 0)
    controller.reset_counters()
    assert controller.demand_bytes == 0
    assert controller.activations[0] == 0
    line_access(*controller.locate(LINE_SIZE), True, 500.0, 1)
    assert controller.background_bytes == LINE_SIZE
    assert controller.write_bytes == LINE_SIZE
    assert controller.reads == 0  # zeroed by the reset
    # The activation list is zeroed in place and the line counts are
    # snapshotted, so the kernel's line on the still-open row reads as
    # one row hit since the reset.
    assert (controller.row_hits[0], controller.activations[0]) == (1, 0)


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_access_and_fast_path_are_defined_once():
    """Every design's access path is its ``_columns``/``_step`` pair; no
    design keeps a second copy in an ``access`` or ``fast_path`` of its
    own."""
    designs = list(all_subclasses(MemorySystem))
    assert {Hybrid2System, NullMemorySystem, IdealCache} <= set(designs)
    for cls in designs:
        assert "access" not in vars(cls), cls
        assert "fast_path" not in vars(cls), cls


def test_null_system_steps_without_columns():
    """The step takes no values and counts nothing; ``access`` counts the
    request itself (``simulate()`` counts the steps' requests), and with
    no near memory no request is NM-served."""
    system = NullMemorySystem(CONFIG, latency_ns=75.0)
    columns = []
    step = system.fast_path(np.zeros(4, dtype=np.int64), columns)
    assert columns == []
    assert step(True, 0.0) == 75.0
    assert (system.requests, system.write_requests,
            system.requests_from_nm) == (0, 0, 0)
    assert system.access(64, True, 10.0) == 75.0
    assert (system.requests, system.write_requests,
            system.requests_from_nm) == (1, 1, 0)


@pytest.mark.parametrize("design", sorted(DESIGN_FACTORIES))
def test_every_design_compiles_a_fast_path(design):
    system = DESIGN_FACTORIES[design](CONFIG)
    addresses = (np.arange(64, dtype=np.int64) * 8192) % \
        system.flat_capacity_bytes
    columns = []
    step = system.fast_path(addresses, columns)
    assert all(len(column) == len(addresses) for column in columns)
    latency = step(*[column[0] for column in columns], False, 0.0)
    assert latency > 0.0
    # The step leaves request counting to simulate() and access().
    assert system.requests == 0
    assert system.access(8192, True, 100.0) > 0.0
    assert (system.requests, system.write_requests) == (1, 1)
