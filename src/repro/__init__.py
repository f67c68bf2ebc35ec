"""Hybrid2 reproduction library.

A trace-driven model of hybrid (3D-stacked DRAM + off-chip DRAM) memory
systems reproducing *"Hybrid2: Combining Caching and Migration in Hybrid
Memory Systems"* (Vasilakis et al., HPCA 2020), together with the DRAM-cache
and migration baselines the paper evaluates against and a benchmark harness
that regenerates every table and figure of its evaluation.

Quickstart::

    from repro import make_config, Hybrid2System, simulate, get_workload

    config = make_config(nm_gb=1, scale=256)       # 1:16 NM:FM, scaled
    system = Hybrid2System(config)
    result = simulate(system, get_workload("mcf"), num_references=50_000)
    print(result.cycles, result.nm_service_ratio)
"""

from .common import lazy_exports

__version__ = "1.2.0"


def package_version() -> str:
    """The installed package version, single-sourced from metadata.

    Prefers the installed distribution's metadata (pyproject reads its
    version *from* ``__version__``, so the two cannot drift by more than
    a stale install) and falls back to ``__version__`` for source-tree
    ``PYTHONPATH=src`` usage.  Deployed servers surface this through
    ``python -m repro --version`` and the ``X-Repro-Version`` response
    header of every serve-layer response.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:              # pragma: no cover - py<3.8 only
        return __version__
    try:
        return version("hybrid2-repro")
    except PackageNotFoundError:
        return __version__


# Everything else loads on first access: ``import repro`` (and so every
# ``repro.*`` import) stays free of numpy and the design modules.
__all__ = [*lazy_exports(__name__, globals(), {
    ".params": ("CoreParams", "DramParams", "Hybrid2Params", "SystemConfig",
                "ddr4_params", "hbm2_params", "make_config"),
    ".common": ("MemoryRequest",),
    ".stats": ("Stats",),
    ".core.hybrid2": ("Hybrid2System",),
    ".baselines": ("DESIGN_FACTORIES", "EVALUATED_DESIGNS", "MemorySystem",
                   "make_design"),
    ".workloads": ("WORKLOADS", "WorkloadSpec", "generate_trace",
                   "get_workload", "representative_workloads",
                   "workloads_by_class"),
    ".sim.result": ("RunResult",),
    ".sim.simulator": ("simulate",),
    ".sim.runner": ("ExperimentRunner", "SweepResult"),
    ".sim.store": ("ResultStore",),
    ".sim.sweep": ("DesignRef", "SweepJob", "run_jobs"),
    ".sim": ("metrics",),
}), "__version__", "package_version"]
