"""Tests for the parallel sweep engine: job hashing, design coercion and
serial-vs-parallel equivalence."""

import copy
import pickle

import pytest

from repro.baselines.dfc import DecoupledFusedCache
from repro.core.variants import cache_only
from repro.params import Hybrid2Params, make_config
from repro.sim.runner import ExperimentRunner
from repro.sim.sweep import (DesignRef, SweepJob, coerce_design,
                             job_from_spec, run_jobs)
from repro.workloads import get_workload

SCALE = 1024
REFS = 600


def make_job(design="HYBRID2", workload="mcf", seed=3, refs=REFS,
             config=None, **design_kwargs):
    config = config or make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    return SweepJob(design=coerce_design(design) if isinstance(design, str)
                    else design,
                    workload=get_workload(workload), config=config,
                    num_references=refs, seed=seed)


# ---------------------------------------------------------------------------
# job hashing
# ---------------------------------------------------------------------------
def test_job_key_is_deterministic():
    assert make_job().cache_key() == make_job().cache_key()


def test_job_key_changes_with_every_input():
    base = make_job().cache_key()
    assert make_job(design="TAGLESS").cache_key() != base
    assert make_job(workload="lbm").cache_key() != base
    assert make_job(seed=4).cache_key() != base
    assert make_job(refs=REFS + 1).cache_key() != base
    other_config = make_config(nm_gb=2, fm_gb=16, scale=SCALE)
    assert make_job(config=other_config).cache_key() != base
    hybrid2 = Hybrid2Params(sector_bytes=4096)
    tweaked = make_config(nm_gb=1, fm_gb=16, scale=SCALE, hybrid2=hybrid2)
    assert make_job(config=tweaked).cache_key() != base


def test_job_key_ignores_display_label():
    ref_a = DesignRef.of("HYBRID2", label="A")
    ref_b = DesignRef.of("HYBRID2", label="B")
    config = make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    job_a = SweepJob(design=ref_a, workload=get_workload("mcf"),
                     config=config, num_references=REFS, seed=3)
    job_b = SweepJob(design=ref_b, workload=get_workload("mcf"),
                     config=config, num_references=REFS, seed=3)
    assert job_a.cache_key() == job_b.cache_key()


def test_design_kwargs_distinguish_jobs():
    target = "repro.baselines.dfc:DecoupledFusedCache"
    small = coerce_design(DesignRef.of(target, label="DFC-256", line_size=256))
    large = coerce_design(DesignRef.of(target, label="DFC-1024",
                                       line_size=1024))
    assert make_job(design=small).cache_key() != \
        make_job(design=large).cache_key()


def test_job_spec_config_must_have_exactly_the_config_fields():
    spec = make_job().spec_dict()
    assert job_from_spec(spec).cache_key() == make_job().cache_key()
    extra = copy.deepcopy(spec)
    extra["config"]["l1"] = {"size_bytes": 65536, "ways": 4,
                             "latency_cycles": 1}
    with pytest.raises(TypeError, match="unknown config field.*'l1'"):
        job_from_spec(extra)
    missing = copy.deepcopy(spec)
    del missing["config"]["near"]
    with pytest.raises(TypeError, match="missing config field.*'near'"):
        job_from_spec(missing)


@pytest.mark.parametrize("refs", [0, -3])
def test_job_refuses_a_non_positive_reference_count(refs):
    """Every path builds its job as a SweepJob, the fsck repair path
    (job_from_spec) included, so none can store a cell of no refs."""
    with pytest.raises(ValueError, match="num_references must be positive"):
        make_job(refs=refs)
    spec = make_job().spec_dict()
    spec["num_references"] = refs
    with pytest.raises(ValueError, match="num_references must be positive"):
        job_from_spec(spec)
    runner = ExperimentRunner(num_references=refs, scale=SCALE)
    with pytest.raises(ValueError, match="num_references must be positive"):
        runner.run_one("HYBRID2", "mcf", runner.config_for(1))


def test_run_jobs_refuses_zero_attempts():
    with pytest.raises(ValueError, match="max_attempts must be >= 1"):
        run_jobs([make_job()], max_attempts=0)


# ---------------------------------------------------------------------------
# design coercion
# ---------------------------------------------------------------------------
def test_coerce_registry_label():
    ref = coerce_design("hybrid2")
    assert isinstance(ref, DesignRef)
    assert ref.label == "HYBRID2"


def test_coerce_unknown_label_raises():
    with pytest.raises(KeyError):
        coerce_design("NOPE")


def test_coerce_module_level_class_and_function():
    ref = coerce_design(DecoupledFusedCache, "DFC")
    assert isinstance(ref, DesignRef)
    assert ref.target.endswith(":DecoupledFusedCache")
    ref = coerce_design(cache_only, "CACHE-ONLY")
    assert isinstance(ref, DesignRef)
    assert ref.target == "repro.core.variants:cache_only"
    assert pickle.loads(pickle.dumps(ref)) == ref


def test_coerce_design_refuses_a_lambda():
    line_size = 256

    def closure(cfg):
        return DecoupledFusedCache(cfg, line_size=line_size)

    for design in (lambda cfg: DecoupledFusedCache(cfg), closure):
        with pytest.raises(TypeError) as excinfo:
            coerce_design(design, "INLINE")
        message = str(excinfo.value)
        assert "DesignRef.of" in message
        assert "module-level factory" in message


def test_design_ref_builds_with_kwargs(small_config):
    ref = DesignRef.of("repro.baselines.dfc:DecoupledFusedCache",
                       label="DFC-256", line_size=256)
    system = ref.build(small_config)
    assert isinstance(system, DecoupledFusedCache)
    assert system.line_size == 256


# ---------------------------------------------------------------------------
# serial vs parallel equivalence
# ---------------------------------------------------------------------------
def _sweep_with_workers(workers):
    runner = ExperimentRunner(num_references=REFS, scale=SCALE, seed=3,
                              workers=workers)
    return runner.sweep_designs_by_name(["HYBRID2", "TAGLESS"],
                                        ["mcf", "lbm"], nm_gb=1)


def test_parallel_sweep_is_bit_identical_to_serial():
    serial = _sweep_with_workers(1)
    parallel = _sweep_with_workers(4)
    assert set(serial.runs) == set(parallel.runs)
    for key in serial.runs:
        a, b = serial.runs[key], parallel.runs[key]
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.nm_traffic_bytes == b.nm_traffic_bytes
        assert a.fm_traffic_bytes == b.fm_traffic_bytes
        assert a.energy_pj == b.energy_pj
        assert a.stats.as_dict() == b.stats.as_dict()
    for name in serial.baselines:
        assert serial.baselines[name].cycles == parallel.baselines[name].cycles


def test_design_labelled_baseline_is_not_misrouted():
    # "baseline" is an ordinary caller label, not a reserved word: the
    # result must land in runs and the no-NM normalisation run must still
    # be simulated separately.
    runner = ExperimentRunner(num_references=REFS, scale=SCALE, seed=3)
    sweep = runner.sweep(["TAGLESS"], ["mcf"], design_names=["baseline"])
    assert ("baseline", "mcf") in sweep.runs
    assert "mcf" in sweep.baselines
    assert sweep.runs[("baseline", "mcf")].design == "TAGLESS"
    assert sweep.speedups("baseline")["mcf"] > 0


def test_sweep_without_baselines():
    runner = ExperimentRunner(num_references=REFS, scale=SCALE, seed=3)
    sweep = runner.sweep(["HYBRID2"], ["mcf"], nm_gb=1, baselines=False)
    assert not sweep.baselines
    assert ("HYBRID2", "mcf") in sweep.runs
    assert sweep.speedups("HYBRID2") == {}


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        ExperimentRunner(workers=0)
    with pytest.raises(ValueError):
        run_jobs([], workers=0)


# ---------------------------------------------------------------------------
# model fingerprint
# ---------------------------------------------------------------------------
def test_job_key_covers_model_fingerprint(monkeypatch):
    """Editing simulator source must invalidate cached cells: the job hash
    folds in the package source digest."""
    from repro.sim import store as store_module

    base = make_job().cache_key()
    monkeypatch.setattr(store_module, "model_fingerprint",
                        lambda: "deadbeefdeadbeef")
    changed = make_job().cache_key()
    assert changed != base
    assert changed == make_job().cache_key()   # still deterministic


def test_job_key_matches_hashing_asdict_per_job(monkeypatch, tmp_path):
    """Keys built from each config's memoised dict are byte-identical to
    the original formula, which ran ``asdict(config)`` for every job."""
    import hashlib
    import json
    from dataclasses import asdict

    from repro.sim import store as store_module
    from repro.sim.sweep import ENGINE_VERSION
    from repro.workloads.tracefile import workload_from_token

    monkeypatch.setattr(store_module, "model_fingerprint",
                        lambda: "0123456789abcdef")
    trace = tmp_path / "bench.tsv"
    trace.write_text("any bytes: the key hashes the content only\n")
    config = make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    jobs = [
        make_job(config=config),
        SweepJob(design=coerce_design("TAGLESS"),
                 workload=workload_from_token(f"trace:{trace}"),
                 config=config, num_references=REFS, seed=3),
        make_job(design=DesignRef.of("repro.baselines.dfc:DecoupledFusedCache",
                                     label="DFC-256", line_size=256),
                 config=make_config(nm_gb=2, fm_gb=16, scale=SCALE)),
    ]

    def original_key(job):
        workload = getattr(job.workload, "cache_dict", job.workload.as_dict)
        payload = {"engine": ENGINE_VERSION, "model": "0123456789abcdef",
                   "design": job.design.key_dict(), "workload": workload(),
                   "config": asdict(job.config),
                   "num_references": job.num_references, "seed": job.seed,
                   "num_cores": job.num_cores}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    expected = [original_key(job) for job in jobs]
    assert len(set(expected)) == 3
    for _ in range(2):               # the second pass hits the memo
        assert [job.cache_key() for job in jobs] == expected


def test_model_fingerprint_is_stable_and_source_sensitive(tmp_path):
    from repro.sim.store import _digest_tree, model_fingerprint

    digest = model_fingerprint()
    assert digest == model_fingerprint()
    assert len(digest) == 16
    # Recomputing without the cache over the same tree agrees.
    model_fingerprint.cache_clear()
    assert model_fingerprint() == digest

    # Content changes, renames and new files all change the digest.
    (tmp_path / "model.py").write_text("LATENCY = 1\n")
    original = _digest_tree(tmp_path)
    assert _digest_tree(tmp_path) == original
    (tmp_path / "model.py").write_text("LATENCY = 2\n")
    edited = _digest_tree(tmp_path)
    assert edited != original
    (tmp_path / "model.py").rename(tmp_path / "timing.py")
    assert _digest_tree(tmp_path) not in (original, edited)
    (tmp_path / "extra.py").write_text("")
    assert len({original, edited, _digest_tree(tmp_path)}) == 3
