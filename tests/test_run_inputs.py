"""Reuse of a run's latency-independent inputs across ``simulate()`` calls.

``simulate()`` keeps the generated (or loaded) traces' flattened schedule
of the last generated or trace-file workload and hands it to the next run
with the same key.  A reused run must be bit-identical to a run from an
empty entry, whatever ran before it; any key field that changes must
regenerate; the entry must hold one workload at most; and threads running
different workloads must not see each other's inputs.
"""

import dataclasses
import gc
import shutil
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.params import make_config
from repro.sim import simulator
from repro.sim.simulator import _forget_inputs, simulate
from repro.workloads import TraceFileWorkload, get_workload
from repro.workloads.synthetic import core_footprints, generate_multiprogrammed

CORPUS = Path(__file__).parent / "data" / "traces"
CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
REFS = 1200


@pytest.fixture(autouse=True)
def empty_entry():
    """Every test here starts, and leaves the suite, with no entry."""
    _forget_inputs()
    yield
    _forget_inputs()


@pytest.fixture
def trace_workload(tmp_path):
    """A corpus trace copied into tmp, so no sidecar lands in the repo."""
    shutil.copy(CORPUS / "mixed4.csv", tmp_path / "mixed4.csv")
    return TraceFileWorkload.from_path(tmp_path / "mixed4.csv")


@pytest.fixture
def generations(monkeypatch):
    """The workload names ``generate_multiprogrammed`` is called for."""
    calls = []

    def counted(spec, *args, **kwargs):
        calls.append(spec.name)
        return generate_multiprogrammed(spec, *args, **kwargs)

    monkeypatch.setattr(simulator, "generate_multiprogrammed", counted)
    return calls


def run(design, workload, config=CONFIG, refs=REFS, **kwargs):
    return simulate(DESIGN_FACTORIES[design](config), workload,
                    num_references=refs, seed=kwargs.pop("seed", 1),
                    **kwargs).as_dict()


def fresh(design, workload, **kwargs):
    _forget_inputs()
    return run(design, workload, **kwargs)


@pytest.mark.parametrize("design", list(DESIGN_FACTORIES))
def test_reused_inputs_give_the_fresh_result(design, trace_workload):
    mcf, lbm = get_workload("mcf"), get_workload("lbm")
    other = "HYBRID2" if design != "HYBRID2" else "BASELINE"
    for workload, unrelated in ((mcf, lbm), (trace_workload, mcf)):
        expected = fresh(design, workload)
        unrelated_expected = fresh(other, unrelated)
        run(other, workload)
        assert run(design, workload) == expected
        assert run(other, unrelated) == unrelated_expected
        assert run(design, workload) == expected
        assert run(design, workload) == expected


def test_designs_share_the_entry_when_the_limit_does_not_bind(generations):
    """At 16 GB of FM no design's address space cuts mcf's footprint, so
    the cache designs (FM only) and the flat designs (NM + FM) share one
    generation."""
    spec = get_workload("mcf")
    limits = {DESIGN_FACTORIES[d](CONFIG).flat_capacity_bytes
              for d in DESIGN_FACTORIES}
    assert len(limits) > 1
    for design in DESIGN_FACTORIES:
        run(design, spec)
    assert generations == ["mcf"]


def test_a_binding_limit_is_part_of_the_key(generations):
    """With 2 GB of FM, dc.B's 4 GB footprint is cut to each design's
    address space: designs of another capacity generate their own traces,
    and each still matches its fresh result."""
    config = make_config(nm_gb=1, fm_gb=2, scale=1024)
    spec = get_workload("dc.B")
    capacity = {d: DESIGN_FACTORIES[d](config).flat_capacity_bytes
                for d in ("BASELINE", "TAGLESS", "MPOD", "HYBRID2")}
    assert capacity["BASELINE"] == capacity["TAGLESS"] < capacity["MPOD"]
    assert capacity["HYBRID2"] != capacity["MPOD"]
    expected = {d: fresh(d, spec, config=config) for d in capacity}
    del generations[:]
    got = {d: run(d, spec, config=config) for d in capacity}
    assert got == expected
    # TAGLESS reuses BASELINE's traces; the others each generate.
    assert len(generations) == 3


def test_unbinding_limit_generates_the_same_traces():
    """The key drops a design's address limit when it cuts no core's
    footprint: the premise is that such a limit changes no trace."""
    for name in ("mcf", "lbm", "cg.D", "dc.B"):
        spec = get_workload(name)
        for design in DESIGN_FACTORIES:
            limit = DESIGN_FACTORIES[design](CONFIG).flat_capacity_bytes
            if core_footprints(spec, 8, scale=256, address_limit=limit) \
                    != core_footprints(spec, 8, scale=256):
                continue
            limited = generate_multiprogrammed(spec, 50, scale=256,
                                               address_limit=limit)
            whole = generate_multiprogrammed(spec, 50, scale=256)
            for a, b in zip(limited, whole):
                assert a.addresses.tolist() == b.addresses.tolist()


@pytest.mark.parametrize("change", [
    "spec", "refs", "cores", "scale", "seed", "warmup", "core_params",
    "binding_limit"])
def test_each_key_field_regenerates(change, generations):
    base = dict(design="BASELINE", workload=get_workload("mcf"),
                config=CONFIG, refs=REFS)
    config = make_config(nm_gb=1, fm_gb=2, scale=1024)
    changed = dict(base, **{
        "spec": dict(workload=dataclasses.replace(base["workload"],
                                                  write_fraction=0.5)),
        "refs": dict(refs=REFS + 8),
        "cores": dict(num_cores=4),
        "scale": dict(config=make_config(nm_gb=1, fm_gb=16, scale=512)),
        "seed": dict(seed=2),
        "warmup": dict(warmup_fraction=0.3),
        "core_params": dict(config=dataclasses.replace(
            CONFIG, cores=dataclasses.replace(CONFIG.cores, rob_size=64))),
        "binding_limit": dict(design="MPOD", config=config),
    }[change])
    if change == "binding_limit":
        base.update(workload=get_workload("dc.B"), config=config)
    run(**base)
    run(**base)
    assert len(generations) == 1
    run(**changed)
    assert len(generations) == 2
    run(**base)
    assert len(generations) == 3


def test_trace_files_are_keyed_by_content(trace_workload, tmp_path,
                                          monkeypatch):
    """A trace-file workload is loaded once per key, and an identical
    copy under another path reuses it: the key is the content hash."""
    loads = []
    load_traces = TraceFileWorkload.load_traces

    def counted(self, *args):
        loads.append(self.path)
        return load_traces(self, *args)

    monkeypatch.setattr(TraceFileWorkload, "load_traces", counted)
    expected = run("TAGLESS", trace_workload)
    moved = tmp_path / "moved"
    moved.mkdir()
    shutil.copy(trace_workload.path, moved / "mixed4.csv")
    copy = TraceFileWorkload.from_path(moved / "mixed4.csv")
    assert run("TAGLESS", copy) == expected
    assert run("DFC", trace_workload) == fresh("DFC", trace_workload)
    run("DFC", trace_workload, refs=1000)
    assert len(loads) == 3


def test_explicit_traces_bypass_the_entry(generations):
    """Explicit traces are neither reused nor stored: the entry of the
    last generated workload survives them."""
    traces = generate_multiprogrammed(get_workload("mcf"), 100, scale=256)
    expected = [fresh("BASELINE", w) for w in (traces, traces[0])]
    run("BASELINE", get_workload("lbm"))
    entry = simulator._last_inputs
    for _ in range(2):
        assert [run("BASELINE", w) for w in (traces, traces[0])] == expected
        assert simulator._last_inputs is entry
    assert generations == ["lbm"]


def test_the_cached_address_column_is_read_only():
    run("HYBRID2", get_workload("mcf"))
    addresses = simulator._last_inputs[1][4][0]
    assert not addresses.flags.writeable
    with pytest.raises(ValueError):
        addresses[0] = 0


def test_the_entry_holds_one_workload(monkeypatch):
    """After a run of workload B, nothing of workload A's inputs lives:
    neither its traces nor its flattened columns; and A's entry is gone
    before B's traces are generated."""
    traces, entries = [], []

    def kept(*args, **kwargs):
        entries.append(simulator._last_inputs)
        generated = generate_multiprogrammed(*args, **kwargs)
        traces.extend(weakref.ref(t) for t in generated)
        return generated

    monkeypatch.setattr(simulator, "generate_multiprogrammed", kept)
    run("MPOD", get_workload("mcf"))
    addresses = weakref.ref(simulator._last_inputs[1][4][0])
    assert traces and addresses() is not None
    a_traces = list(traces)
    run("MPOD", get_workload("lbm"))
    gc.collect()
    assert all(ref() is None for ref in a_traces)
    assert addresses() is None
    # B was generated after A's entry was dropped, not beside it.
    assert entries == [None, None]


def test_threads_running_different_workloads_get_serial_results():
    """More threads than cores, switching every few microseconds, over
    three workloads (two threads share mcf): each run sees inputs whose
    key is its own, so every result is the serial one."""
    cells = [("HYBRID2", "mcf"), ("BASELINE", "mcf"), ("TAGLESS", "lbm"),
             ("MPOD", "omnetpp")]
    serial = {cell: fresh(cell[0], get_workload(cell[1]), refs=600)
              for cell in cells}
    _forget_inputs()
    barrier = threading.Barrier(len(cells))
    got, errors = {}, []

    def worker(design, workload):
        try:
            barrier.wait(timeout=30)
            got[design, workload] = [
                run(design, get_workload(workload), refs=600)
                for _ in range(3)]
        except Exception as exc:     # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=cell) for cell in cells]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for cell in cells:
        assert got[cell] == [serial[cell]] * 3
