"""The ``MemoryController`` calls the repo benchmark's traced run counts.

``repobench/simwork.py`` requires, in ``REACHED``, that a traced
sim-migrate run reads ``memory.transfer_block_calls``,
``memory.transfer_block_s`` and ``memory.ctrl_access_per_kref`` non-zero,
and fails any HYBRID2 cell that makes no ``transfer_block`` call (its
block-transfer check).  Its tracer wraps the two class methods, as these
tests do, so a change that moves the last call off a seam fails here
too, not only in the benchmark's self-test.  It also rebinds
``make_kernels`` in every ``repro.*`` module that binds it, to time and
count the DRAM kernels; the last test checks that the kernels it wraps
move every DRAM line.
"""

import sys

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.common import LINE_SIZE
from repro.memory import kernels
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


def count_kernel_lines(monkeypatch):
    """Rebind ``make_kernels`` in every ``repro.*`` module that binds it,
    as the benchmark's tracer does, to kernels that count the lines they
    move: one per line-kernel call, ``nbytes // 64 or 1`` per block."""
    original = kernels.make_kernels
    moved = [0]

    def counting_make_kernels(controller):
        line, block = original(controller)

        def counted_line(*args):
            moved[0] += 1
            return line(*args)

        def counted_block(address, nbytes, *args):
            moved[0] += nbytes // LINE_SIZE or 1
            return block(address, nbytes, *args)
        return counted_line, counted_block
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "make_kernels", None) is original):
            monkeypatch.setattr(module, "make_kernels",
                                counting_make_kernels)
    return moved


@pytest.mark.parametrize("design,workload", [
    ("HYBRID2", "dc.B"), ("MPOD", "dc.B"), ("CHA", "lbm"),
    ("TAGLESS", "mcf")])
def test_wrapped_kernels_move_every_dram_line(monkeypatch, design,
                                              workload):
    """Every line either memory counts went through a kernel the
    rebinding wrapped, so no DRAM path hides from the traced run.  The
    design's module is imported before the rebinding, as the tracer
    imports every design first."""
    factory = DESIGN_FACTORIES[design]
    moved = count_kernel_lines(monkeypatch)
    system = factory(make_config(nm_gb=1, fm_gb=16, scale=256))
    simulate(system, get_workload(workload), 2000, seed=1)
    lines = sum(system.near.lines) + sum(system.far.lines)
    assert lines > 0
    assert moved[0] == lines
