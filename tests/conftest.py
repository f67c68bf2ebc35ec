"""Shared fixtures for the test suite."""

import pytest

from repro.params import Hybrid2Params, make_config
from repro.workloads import generate_trace, get_workload


def _drive(system, workload="mcf", n=1500, seed=3, step_ns=20.0):
    """Feed ``system.access`` the ``n`` references of ``workload``'s
    generated trace, one every ``step_ns``; returns ``system``."""
    trace = generate_trace(get_workload(workload), n,
                           scale=system.config.scale, seed=seed,
                           address_limit=system.flat_capacity_bytes)
    now = 0.0
    for address, is_write in zip(trace.addresses.tolist(),
                                 trace.is_write.tolist()):
        system.access(address, is_write, now)
        now += step_ns
    return system


@pytest.fixture
def small_config():
    """A heavily scaled configuration that keeps unit tests fast.

    NM 1 MB, FM 16 MB (1:16 ratio preserved), 64 KB DRAM cache with 2 KB
    sectors and 256 B cache lines.
    """
    hybrid2 = Hybrid2Params(dram_cache_bytes=64 * 1024)
    return make_config(nm_gb=1, fm_gb=16, scale=1024, hybrid2=hybrid2)


@pytest.fixture
def default_config():
    """The default scaled configuration used by the benches (NM 4 MB)."""
    return make_config(nm_gb=1, fm_gb=16, scale=256)


@pytest.fixture
def drive():
    """The reference-feeding helper; a test module overrides this fixture
    to change its defaults."""
    return _drive
