"""Import budget of the entry points that only read the result store.

``import repro.cli``, ``import repro.serve``, ``repro store stats`` and a
warm sweep import neither numpy nor any design module: those load only
when a cell is simulated.  The lazy re-exports that make this possible
must still resolve every name they advertise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.baselines
import repro.report
import repro.sim.metrics
import repro.workloads
from repro.baselines import DESIGN_FACTORIES
from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

SWEEP = ["sweep", "--designs", "HYBRID2", "TAGLESS", "--workloads", "mcf",
         "--refs", "300", "--scale", "1024"]

#: Runs ``python -m repro ARGS`` (``-m ARGS``) or a statement, then writes
#: the names in ``sys.modules`` to the file given first.
PROBE = """\
import json, runpy, sys
out, argv = sys.argv[1], sys.argv[2:]
if argv[0] == "-m":
    sys.argv = ["repro", *argv[1:]]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
else:
    exec(argv[0])
with open(out, "w") as handle:
    json.dump(sorted(sys.modules), handle)
"""


def probe(tmp_path, *argv):
    """(stdout, heavy modules) of a fresh interpreter running ``argv``."""
    out = tmp_path / "modules.json"
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    heavy = [name for name in json.loads(out.read_text())
             if name == "numpy"
             or name.startswith(("repro.baselines.", "repro.core."))]
    return proc.stdout, heavy


@pytest.mark.parametrize("statement", ["import repro.cli",
                                       "import repro.serve"])
def test_entry_module_imports_no_numpy_or_design(tmp_path, statement):
    assert probe(tmp_path, statement)[1] == []


def test_store_stats_imports_no_numpy_or_design(tmp_path):
    stdout, heavy = probe(tmp_path, "-m", "store", "stats",
                          "--store", str(tmp_path / "store"))
    assert "cells" in stdout
    assert heavy == []


def test_warm_sweep_imports_no_numpy_or_design(tmp_path, capsys):
    store = ["--store", str(tmp_path / "store")]
    assert main([*SWEEP, *store]) == 0          # cold: fills the store
    capsys.readouterr()
    stdout, heavy = probe(tmp_path, "-m", *SWEEP, *store)
    assert ", 0 simulated" in stdout
    assert heavy == []


def test_registry_membership_and_iteration_import_nothing(tmp_path):
    statement = ("from repro.baselines import DESIGN_FACTORIES as d\n"
                 "assert 'HYBRID2' in d and 'hybrid2' not in d\n"
                 "assert len(d) == len(list(d)) == len(d.keys()) == 7")
    assert probe(tmp_path, statement)[1] == []


def test_registry_values_are_the_design_classes():
    for label, factory in DESIGN_FACTORIES.items():
        assert isinstance(factory, type)
        assert factory.name == label
    with pytest.raises(KeyError):
        DESIGN_FACTORIES["NOPE"]
    with pytest.raises(TypeError):
        DESIGN_FACTORIES["NEW"] = object      # read-only


@pytest.mark.parametrize("package", [repro, repro.workloads, repro.report,
                                     repro.baselines],
                         ids=lambda package: package.__name__)
def test_every_lazy_export_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert name in listed
        assert hasattr(package, name), name
    assert not hasattr(package, "no_such_name")


def test_lazy_module_export_is_the_module():
    assert repro.metrics is repro.sim.metrics
