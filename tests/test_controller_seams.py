"""The ``MemoryController`` calls the repo benchmark's traced run counts.

``repobench/simwork.py`` requires, in ``REACHED``, that a traced
sim-migrate run reads ``memory.transfer_block_calls``,
``memory.transfer_block_s`` and ``memory.ctrl_access_per_kref`` non-zero,
and fails any HYBRID2 cell that makes no ``transfer_block`` call (its
block-transfer check).  Its tracer wraps the two class methods, as these
tests do, so a change that moves the last call off a seam fails here
too, not only in the benchmark's self-test.
"""

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.memory.controller import MemoryController
from repro.params import make_config
from repro.sim.simulator import simulate
from repro.workloads.catalog import get_workload


def count_calls(monkeypatch, name):
    """Wrap ``MemoryController.<name>`` to count its calls; the counter."""
    calls = [0]
    method = getattr(MemoryController, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return method(self, *args, **kwargs)
    monkeypatch.setattr(MemoryController, name, counted)
    return calls


def run(design, workload):
    """One 2,000-reference cell at the benchmark's configuration."""
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    simulate(DESIGN_FACTORIES[design](config), get_workload(workload),
             2000, seed=1)


@pytest.mark.parametrize("workload", ["dc.B", "lbm"])
def test_hybrid2_moves_blocks_through_the_controller(monkeypatch, workload):
    calls = count_calls(monkeypatch, "transfer_block")
    run("HYBRID2", workload)
    assert calls[0] > 0


def test_mempod_accesses_the_controller(monkeypatch):
    calls = count_calls(monkeypatch, "access")
    run("MPOD", "dc.B")
    assert calls[0] > 0
