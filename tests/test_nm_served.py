"""The conservation law behind ``MemorySystem.requests_from_nm``.

No step counts the requests it serves from near memory: the system reads
them as the near memory's demand lines since the last reset.  That rests
on one law every design keeps: a processor request issues exactly one
demand line, on the near memory when it is served from there and on the
far memory otherwise, and nothing else (fills, write-backs, migrations,
swaps, metadata) is demand traffic.  These tests check the law per
request through ``access()`` and over whole ``simulate()`` runs, for
every design, the Figure 14 variants and the motivation study's caches,
and that ``access()`` and ``simulate()`` agree on every counter under
the values-passing step protocol.
"""

import numpy as np
import pytest

from repro.baselines import DESIGN_FACTORIES, DecoupledFusedCache, IdealCache
from repro.common import LINE_SIZE
from repro.core.variants import BREAKDOWN_VARIANTS
from repro.params import make_config
from repro.sim.simulator import simulate
from repro.workloads.catalog import get_workload
from repro.workloads.synthetic import generate_multiprogrammed

from engine_oracle import stepped_reference

CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
REFS = 2500
#: The engine golden's workloads.
WORKLOADS = ("mcf", "cg.D", "omnetpp", "lbm")

SYSTEMS = {
    **DESIGN_FACTORIES,
    **{name: factory for name, factory in BREAKDOWN_VARIANTS.items()
       if name != "HYBRID2"},
    "IDEAL-64": lambda config: IdealCache(config, line_size=64),
    "IDEAL-4096": lambda config: IdealCache(config, line_size=4096),
    "DFC-256": lambda config: DecoupledFusedCache(config, line_size=256),
}


def demand_lines(memory) -> int:
    return memory.demand_bytes // LINE_SIZE if memory is not None else 0


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_each_access_issues_one_demand_line(name):
    """Per request: one demand line in all, on near memory exactly when
    the request counts as NM-served."""
    system = SYSTEMS[name](CONFIG)
    # 600 lines of 48 random 4 KB pages: hot enough that every design
    # serves some from near memory, migrations and cache-mode fills
    # included, and misses some.
    rng = np.random.default_rng(7)
    pages = rng.integers(0, 1 << 14, size=48) * 4096
    addresses = (rng.choice(pages, size=600)
                 + rng.integers(0, 64, size=600) * LINE_SIZE).tolist()
    writes = (rng.random(600) < 0.3).tolist()
    now = 0.0
    served_nm = 0
    for address, is_write in zip(addresses, writes):
        near_before = demand_lines(system.near)
        far_before = demand_lines(system.far)
        now += system.access(address, is_write, now)
        near_step = demand_lines(system.near) - near_before
        far_step = demand_lines(system.far) - far_before
        assert (near_step, far_step) in ((1, 0), (0, 1)), address
        served_nm += near_step
    assert system.requests == len(addresses)
    assert system.requests_from_nm == served_nm
    if system.near is not None:
        # The law is exercised on both memories, not vacuously on one.
        assert 0 < served_nm < len(addresses)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a_run_conserves_demand_lines(name, workload):
    """Over the measured region of a run: NM-served requests are the near
    memory's demand lines, and every request is one demand line."""
    system = SYSTEMS[name](CONFIG)
    result = simulate(system, get_workload(workload), num_references=REFS,
                      seed=2)
    near, far = demand_lines(system.near), demand_lines(system.far)
    assert result.stats["requests.from_nm"] == system.requests_from_nm == near
    assert result.references == system.requests == near + far
    assert result.nm_service_ratio == (near / system.requests)


def test_cache_hits_are_the_nm_served_requests():
    """An independent count: every DRAM-cache hit, and only a hit, is
    served from near memory."""
    for factory in (DESIGN_FACTORIES["TAGLESS"], DESIGN_FACTORIES["DFC"],
                    SYSTEMS["IDEAL-64"]):
        system = factory(CONFIG)
        simulate(system, get_workload("omnetpp"), num_references=REFS,
                 seed=2, warmup_fraction=0.0)
        assert system.requests_from_nm == system.cache_hits > 0


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_access_and_simulate_agree(name):
    """Stepping ``access()`` per reference and driving ``simulate()`` over
    whole columns give the same counters, warm-up reset included."""
    traces = generate_multiprogrammed(get_workload("omnetpp"), 150,
                                      num_cores=4, scale=CONFIG.scale,
                                      seed=5)
    result = simulate(SYSTEMS[name](CONFIG), traces)
    reference = stepped_reference(SYSTEMS[name](CONFIG), traces)
    assert result.as_dict() == reference.as_dict()
    assert result.cycles > 0
