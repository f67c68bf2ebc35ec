"""Definitions of the 13 registered benches (Figures 1-18, Tables 1-2, perf).

Each bench regenerates one artifact of the paper's evaluation on the scaled
model and returns a :class:`~repro.report.registry.BenchResult`: rendered
tables (with the chart form the SVG renderer should use), a JSON-friendly
``raw`` dict the :class:`~repro.report.registry.Expectation` paths address,
and free-text notes.  The pytest benches under ``benchmarks/`` and the
``python -m repro report`` pipeline both execute these same definitions.

The published numbers encoded in the expectations are the paper's reported
values; tolerances are deliberately generous because the scaled-capacity,
synthetic-trace model reproduces trends and orderings rather than absolute
figures.  Deviations beyond tolerance are *flagged* in the gallery, not
treated as errors.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..core.variants import BREAKDOWN_VARIANTS
from ..baselines import EVALUATED_DESIGNS
from ..common import MIB
from ..params import Hybrid2Params
from ..sim import metrics, perfbench
from ..sim.sweep import DesignRef
from ..workloads import WORKLOADS, generate_trace
from .context import ReportContext
from .registry import (BenchResult, BenchSpec, Expectation, Table, register)

CLASS_COLUMNS = ["design", "high", "medium", "low", "all"]


def _class_rows(per_design: Mapping[str, Mapping[str, float]]) -> List[list]:
    return [[design] + [by_class.get(klass) for klass in CLASS_COLUMNS[1:]]
            for design, by_class in per_design.items()]


def _series_table(series: Mapping[str, float], key_header: str,
                  value_header: str, *, title: str, slug: str,
                  chart: str = "bar") -> Table:
    return Table(title=title, columns=[key_header, value_header],
                 rows=[[key, value] for key, value in series.items()],
                 slug=slug, chart=chart, y_label=value_header)


# ----------------------------------------------------------------------
# Figure 1 — wasted data vs DRAM-cache line size (motivation)
# ----------------------------------------------------------------------
FIG01_LINE_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
IDEAL_FACTORY = "repro.baselines.ideal_cache:IdealCache"
DFC_FACTORY = "repro.baselines.dfc:DecoupledFusedCache"


def run_fig01(ctx: ReportContext) -> BenchResult:
    designs = [DesignRef.of(IDEAL_FACTORY, label=f"IDEAL-{size}",
                            line_size=size)
               for size in FIG01_LINE_SIZES]
    result = ctx.runner.sweep(designs, ctx.workloads, nm_gb=1,
                              baselines=False)
    series: Dict[str, float] = {}
    for size in FIG01_LINE_SIZES:
        fractions = [result.run_for(f"IDEAL-{size}", spec.name)
                     .stats.get("cache.wasted_fraction")
                     for spec in ctx.workloads]
        series[str(size)] = 100.0 * sum(fractions) / len(fractions)
    table = _series_table(series, "line size (B)", "wasted data (%)",
                          title="Figure 1: average % of fetched data never "
                                "used vs DRAM-cache line size",
                          slug="wasted", chart="line")
    return BenchResult(name="fig01", tables=[table], raw={"series": series})


def check_fig01(result: BenchResult) -> None:
    series = result.raw["series"]
    assert series["64"] <= series["256"] <= series["4096"]
    assert series["64"] < 5.0


register(BenchSpec(
    name="fig01", slug="fig01_wasted_data",
    title="Wasted DRAM-cache fill data vs line size",
    paper_ref="Figure 1 (motivation)",
    description="Fraction of data fetched into a 1 GB DRAM cache but never "
                "used before eviction, swept over cache-line sizes from "
                "64 B to 4 KB on an idealised cache.",
    run=run_fig01, check=check_fig01, uses_sweep=False,
    expectations=(
        Expectation("wasted data at 64 B lines", ("series", "64"),
                    0.0, unit="%", abs_tol=5.0),
        Expectation("wasted data at 4 KB lines", ("series", "4096"),
                    26.0, unit="%", abs_tol=15.0),
    ),
    landmarks="Waste grows monotonically with the line size: ~0% at 64 B "
              "rising to roughly 26% at 4 KB in the paper.",
))


# ----------------------------------------------------------------------
# Figure 2 — motivation study: min/max/geomean of caches vs migration
# ----------------------------------------------------------------------
FIG02_DFC_LINE_SIZES = (256, 1024, 4096)
FIG02_IDEAL_LINE_SIZES = (64, 256, 4096)


def _fig02_designs() -> List[DesignRef]:
    designs = [DesignRef.of(name) for name in ("MPOD", "CHA", "LGM",
                                               "TAGLESS")]
    designs.extend(DesignRef.of(DFC_FACTORY, label=f"DFC-{size}",
                                line_size=size)
                   for size in FIG02_DFC_LINE_SIZES)
    designs.extend(DesignRef.of(IDEAL_FACTORY, label=f"IDEAL-{size}",
                                line_size=size)
                   for size in FIG02_IDEAL_LINE_SIZES)
    return designs


def run_fig02(ctx: ReportContext) -> BenchResult:
    designs = _fig02_designs()
    sweep_result = ctx.runner.sweep(designs, ctx.workloads, nm_gb=1)
    summary: Dict[str, Dict[str, float]] = {}
    for design in designs:
        speedups = sweep_result.speedups(design.label)
        summary[design.label] = metrics.min_max_geomean(
            list(speedups.values()))
    table = Table(
        title="Figure 2: min/max/geomean speedup over the no-NM baseline "
              "(1 GB NM)",
        columns=["design", "min", "max", "geomean"],
        rows=[[design, d["min"], d["max"], d["geomean"]]
              for design, d in summary.items()],
        slug="minmax", chart="bar-grouped", y_label="speedup")
    return BenchResult(name="fig02", tables=[table],
                       raw={"summary": summary})


def check_fig02(result: BenchResult) -> None:
    summary = result.raw["summary"]
    # Large-line caches must show the over-fetch collapse in their minima.
    assert summary["IDEAL-4096"]["min"] < summary["MPOD"]["min"] + 0.5
    assert summary["IDEAL-256"]["geomean"] > 0


register(BenchSpec(
    name="fig02", slug="fig02_motivation",
    title="Motivation: caches reach higher peaks, migration avoids collapse",
    paper_ref="Figure 2 (motivation)",
    description="Min / max / geometric-mean speedup of the migration "
                "schemes (MemPod, Chameleon, LGM), the Tagless cache, and "
                "DFC/idealised caches swept over line sizes, with 1 GB of "
                "3D-stacked DRAM.",
    run=run_fig02, check=check_fig02, uses_sweep=False,
    landmarks="Caches reach higher maxima but their minima collapse for "
              "large lines (over-fetch); migration schemes avoid that "
              "risk at the cost of lower peaks.",
))


# ----------------------------------------------------------------------
# Figure 11 — Hybrid2 design-space exploration
# ----------------------------------------------------------------------
FIG11_CONFIG_POINTS = (
    (64, 2048, 64),
    (64, 2048, 256),
    (64, 2048, 512),
    (64, 4096, 256),
    (128, 2048, 256),
    (128, 4096, 512),
)


def run_fig11(ctx: ReportContext) -> BenchResult:
    series: Dict[str, float] = {}
    for cache_mb, sector, line in FIG11_CONFIG_POINTS:
        hybrid2 = Hybrid2Params(dram_cache_bytes=cache_mb * (1 << 20),
                                sector_bytes=sector, cache_line_bytes=line)
        config = ctx.runner.config_for(nm_gb=1, hybrid2=hybrid2)
        label = f"{cache_mb}MB/{sector}B-sector/{line}B-line"
        point = ctx.runner.sweep(["HYBRID2"], ctx.workloads, config=config)
        series[label] = metrics.geometric_mean(
            point.speedups("HYBRID2").values())
    best = max(series, key=lambda label: series[label])
    table = _series_table(series, "configuration", "geomean speedup",
                          title="Figure 11: Hybrid2 design-space exploration "
                                "(1 GB NM, scaled)", slug="space")
    return BenchResult(name="fig11", tables=[table],
                       raw={"series": series, "summary": {"best": best}})


def check_fig11(result: BenchResult) -> None:
    assert all(value > 0 for value in result.raw["series"].values())


register(BenchSpec(
    name="fig11", slug="fig11_design_space",
    title="Hybrid2 design-space exploration",
    paper_ref="Figure 11 (design-space exploration)",
    description="Geomean speedup of Hybrid2 swept over DRAM-cache size "
                "(64/128 MB), sector size (2/4 KB) and cache-line size "
                "(64-512 B) under a 512 KB XTA budget.",
    run=run_fig11, check=check_fig11, uses_sweep=False,
    expectations=(
        Expectation("best configuration", ("summary", "best"),
                    "64MB/2048B-sector/256B-line"),
    ),
    landmarks="The paper's exploration settles on 64 MB cache, 2 KB "
              "sectors and 256 B cache lines as the best configuration.",
))


# ----------------------------------------------------------------------
# Figure 12 — geomean speedup per MPKI class at 1/2/4 GB NM
# ----------------------------------------------------------------------
def run_fig12(ctx: ReportContext) -> BenchResult:
    by_nm_gb: Dict[str, Dict[str, Dict[str, float]]] = {}
    result_tables = []
    for nm_gb, subfigure in ((1, "a"), (2, "b"), (4, "c")):
        sweep = (ctx.main_sweep if nm_gb == 1 else
                 ctx.runner.sweep_designs_by_name(list(EVALUATED_DESIGNS),
                                                  ctx.workloads, nm_gb=nm_gb))
        per_design = {design: sweep.class_speedups(design)
                      for design in EVALUATED_DESIGNS}
        by_nm_gb[str(nm_gb)] = per_design
        result_tables.append(Table(
            title=f"Figure 12{subfigure}: geomean speedup over baseline, "
                  f"{nm_gb} GB NM ({nm_gb}:16 ratio)",
            columns=list(CLASS_COLUMNS), rows=_class_rows(per_design),
            slug=f"{nm_gb}gb", chart="bar-grouped", y_label="speedup"))
    hybrid = by_nm_gb["1"].get("HYBRID2", {})
    migration = [by_nm_gb["1"][d].get("all") for d in ("MPOD", "CHA", "LGM")]
    caches = [by_nm_gb["1"][d].get("all") for d in ("TAGLESS", "DFC")]
    summary: Dict[str, float] = {}
    if hybrid.get("all") and all(migration) and all(caches):
        best_migration = max(migration)
        best_cache = max(caches)
        summary["hybrid2_over_best_migration_pct"] = (
            100.0 * (hybrid["all"] / best_migration - 1.0))
        summary["best_cache_over_hybrid2_pct"] = (
            100.0 * (best_cache / hybrid["all"] - 1.0))
    return BenchResult(name="fig12", tables=result_tables,
                       raw={"by_nm_gb": by_nm_gb, "summary": summary})


def check_fig12(result: BenchResult) -> None:
    hybrid = result.raw["by_nm_gb"]["1"]["HYBRID2"]
    assert hybrid.get("all", 0) > 0
    # Hybrid2's high-MPKI speedup must exceed its low-MPKI speedup (there is
    # little room for improvement when the memory system is barely used).
    if hybrid.get("high") and hybrid.get("low"):
        assert hybrid["high"] >= hybrid["low"]


register(BenchSpec(
    name="fig12", slug="fig12_speedup_by_ratio",
    title="Geomean speedup per MPKI class at 1:16, 2:16 and 4:16 NM:FM",
    paper_ref="Figure 12 (evaluation)",
    description="Geometric-mean speedup over the no-NM baseline per MPKI "
                "class for NM sizes of 1, 2 and 4 GB.",
    run=run_fig12, check=check_fig12,
    expectations=(
        Expectation("Hybrid2 over the best migration scheme (1 GB, all)",
                    ("summary", "hybrid2_over_best_migration_pct"),
                    7.8, unit="%", abs_tol=10.0),
        Expectation("best DRAM cache over Hybrid2 (1 GB, all)",
                    ("summary", "best_cache_over_hybrid2_pct"),
                    2.8, unit="%", abs_tol=10.0),
    ),
    landmarks="Hybrid2 outperforms the migration schemes by 6.4-9.1% on "
              "average and stays within 0.3-5.3% of the DRAM caches while "
              "exposing 5.9-24.6% more main memory.",
))


# ----------------------------------------------------------------------
# Figure 13 — per-benchmark speedup at 1 GB NM
# ----------------------------------------------------------------------
def run_fig13(ctx: ReportContext) -> BenchResult:
    per_design = {design: ctx.main_sweep.speedups(design)
                  for design in EVALUATED_DESIGNS}
    order = ctx.workload_order
    table = Table(
        title="Figure 13: per-benchmark speedup over baseline (1 GB NM, "
              "1:16)",
        columns=["workload"] + list(EVALUATED_DESIGNS),
        rows=[[workload] + [per_design[d].get(workload) for d in
                            EVALUATED_DESIGNS]
              for workload in order],
        slug="perbench", chart="bar-grouped", y_label="speedup")
    return BenchResult(name="fig13", tables=[table],
                       raw={"per_design": per_design, "order": order})


def check_fig13(result: BenchResult) -> None:
    hybrid = result.raw["per_design"]["HYBRID2"]
    assert all(value > 0 for value in hybrid.values())


register(BenchSpec(
    name="fig13", slug="fig13_per_benchmark",
    title="Per-benchmark speedup over the no-NM baseline",
    paper_ref="Figure 13 (evaluation)",
    description="Speedup of every evaluated design on every workload of "
                "the subset, at the 1:16 NM:FM ratio.",
    run=run_fig13, check=check_fig13,
    landmarks="Hybrid2 is consistently strong for high-MPKI/big-footprint "
              "workloads; the Tagless cache collapses on workloads with "
              "poor spatial locality (omnetpp, deepsjeng); nothing helps "
              "the streaming dc.B much.",
))


# ----------------------------------------------------------------------
# Figure 14 — Hybrid2 performance-factor breakdown
# ----------------------------------------------------------------------
def run_fig14(ctx: ReportContext) -> BenchResult:
    result = ctx.runner.sweep(list(BREAKDOWN_VARIANTS.values()),
                              ctx.workloads, nm_gb=1,
                              design_names=list(BREAKDOWN_VARIANTS))
    series = {label: metrics.geometric_mean(result.speedups(label).values())
              for label in BREAKDOWN_VARIANTS}
    summary: Dict[str, float] = {}
    if series.get("HYBRID2"):
        summary["no_remap_gap_pct"] = (
            100.0 * (series["NO-REMAP"] / series["HYBRID2"] - 1.0))
    table = _series_table(series, "variant", "geomean speedup",
                          title="Figure 14: Hybrid2 performance-factor "
                                "breakdown (1 GB NM)", slug="breakdown")
    return BenchResult(name="fig14", tables=[table],
                       raw={"series": series, "summary": summary})


def check_fig14(result: BenchResult) -> None:
    series = result.raw["series"]
    assert series["HYBRID2"] > 0
    # Removing the remapping overheads can only help.
    assert series["NO-REMAP"] >= series["HYBRID2"] * 0.97


register(BenchSpec(
    name="fig14", slug="fig14_breakdown",
    title="Hybrid2 performance-factor breakdown",
    paper_ref="Figure 14 (evaluation)",
    description="Contribution of each Hybrid2 component: Cache-Only, "
                "Migr-All, Migr-None, No-Remap (free metadata) and the "
                "full design.",
    run=run_fig14, check=check_fig14, uses_sweep=False,
    expectations=(
        Expectation("No-Remap advantage over full Hybrid2",
                    ("summary", "no_remap_gap_pct"), 2.5, unit="%",
                    abs_tol=7.5),
    ),
    landmarks="Hybrid2 beats Cache-Only and both forced-migration "
              "variants; the paper reports a 2.5% gap to No-Remap, i.e. "
              "metadata handling is effectively free.",
))


# ----------------------------------------------------------------------
# Figures 15-18 — shared per-class metric collectors over the main sweep
# ----------------------------------------------------------------------
def _collect_classes(ctx: ReportContext, metric_fn) -> Dict[str, Dict[str, float]]:
    per_design = {}
    for design in EVALUATED_DESIGNS:
        values = ctx.main_sweep.per_workload_metric(design, metric_fn)
        per_design[design] = metrics.group_by_class(values)
    return per_design


def _class_bench_result(name: str, title: str, slug: str, y_label: str,
                        per_design: Mapping[str, Mapping[str, float]]
                        ) -> BenchResult:
    table = Table(title=title, columns=list(CLASS_COLUMNS),
                  rows=_class_rows(per_design), slug=slug,
                  chart="bar-grouped", y_label=y_label)
    return BenchResult(name=name, tables=[table],
                       raw={"per_design": {d: dict(c) for d, c in
                                           per_design.items()}})


def run_fig15(ctx: ReportContext) -> BenchResult:
    per_design = _collect_classes(
        ctx, lambda result, baseline: max(result.nm_service_ratio, 1e-6))
    return _class_bench_result(
        "fig15", "Figure 15: fraction of requests served from NM (1 GB NM)",
        "nmserved", "fraction", per_design)


def check_fig15(result: BenchResult) -> None:
    per_design = result.raw["per_design"]
    # The caches and Hybrid2 must serve clearly more requests from NM than
    # the slow-reacting migration-only schemes (MemPod).
    assert per_design["HYBRID2"]["all"] > per_design["MPOD"]["all"]
    assert per_design["TAGLESS"]["all"] > per_design["MPOD"]["all"]


register(BenchSpec(
    name="fig15", slug="fig15_nm_utilization",
    title="Fraction of processor requests served from near memory",
    paper_ref="Figure 15 (evaluation)",
    description="Per MPKI class and design at 1 GB NM: how many "
                "processor-critical requests each design serves from the "
                "fast 3D-stacked DRAM.",
    run=run_fig15, check=check_fig15,
    expectations=(
        Expectation("Tagless, all classes", ("per_design", "TAGLESS", "all"),
                    0.90, abs_tol=0.20),
        Expectation("DFC, all classes", ("per_design", "DFC", "all"),
                    0.85, abs_tol=0.20),
        Expectation("Hybrid2, all classes", ("per_design", "HYBRID2", "all"),
                    0.84, abs_tol=0.20),
        Expectation("Chameleon, all classes", ("per_design", "CHA", "all"),
                    0.69, abs_tol=0.25),
        Expectation("LGM, all classes", ("per_design", "LGM", "all"),
                    0.54, abs_tol=0.30),
        Expectation("MemPod, all classes", ("per_design", "MPOD", "all"),
                    0.40, abs_tol=0.30),
    ),
    landmarks="Tagless serves ~90% of requests from NM, DFC ~85%, Hybrid2 "
              "~84%, Chameleon ~69%, LGM ~54%, MemPod ~40%.",
))


def run_fig16(ctx: ReportContext) -> BenchResult:
    per_design = _collect_classes(
        ctx, lambda result, baseline: max(
            metrics.normalised_traffic(result, baseline, "fm"), 1e-6))
    return _class_bench_result(
        "fig16", "Figure 16: FM traffic normalised to baseline (1 GB NM)",
        "fmtraffic", "normalised bytes", per_design)


def check_fig16(result: BenchResult) -> None:
    for design in EVALUATED_DESIGNS:
        assert result.raw["per_design"][design]["all"] > 0


register(BenchSpec(
    name="fig16", slug="fig16_fm_traffic",
    title="Far-memory traffic normalised to the no-NM baseline",
    paper_ref="Figure 16 (evaluation)",
    description="Bytes moved on the far-memory channels per design and "
                "MPKI class, normalised to the baseline's total traffic.",
    run=run_fig16, check=check_fig16,
    expectations=(
        Expectation("Hybrid2, all classes", ("per_design", "HYBRID2", "all"),
                    0.67, abs_tol=0.35),
    ),
    landmarks="Caches incur the least FM traffic (copying is cheaper than "
              "swapping); Hybrid2 lands at ~0.67x the baseline, between "
              "LGM and the caches; MemPod/Chameleon are higher.",
))


def run_fig17(ctx: ReportContext) -> BenchResult:
    per_design = _collect_classes(
        ctx, lambda result, baseline: max(
            metrics.normalised_traffic(result, baseline, "nm"), 1e-6))
    return _class_bench_result(
        "fig17", "Figure 17: NM traffic normalised to baseline (1 GB NM)",
        "nmtraffic", "normalised bytes", per_design)


def check_fig17(result: BenchResult) -> None:
    per_design = result.raw["per_design"]
    # Designs that serve more requests from NM move more NM bytes.
    assert per_design["HYBRID2"]["all"] > per_design["MPOD"]["all"]


register(BenchSpec(
    name="fig17", slug="fig17_nm_traffic",
    title="Near-memory traffic normalised to the no-NM baseline",
    paper_ref="Figure 17 (evaluation)",
    description="Bytes moved on the near-memory channels per design and "
                "MPKI class, normalised to the baseline's total traffic.",
    run=run_fig17, check=check_fig17,
    landmarks="Designs that serve more requests from NM show more NM "
              "traffic; Hybrid2 sits slightly above the caches because "
              "its remapping metadata also lives in NM (4.1% of NM "
              "traffic); MemPod and LGM show the least.",
))


def run_fig18(ctx: ReportContext) -> BenchResult:
    per_design = _collect_classes(
        ctx, lambda result, baseline: max(
            metrics.normalised_energy(result, baseline), 1e-6))
    return _class_bench_result(
        "fig18",
        "Figure 18: dynamic memory energy normalised to baseline (1 GB NM)",
        "energy", "normalised energy", per_design)


def check_fig18(result: BenchResult) -> None:
    for design in EVALUATED_DESIGNS:
        assert result.raw["per_design"][design]["all"] > 0


register(BenchSpec(
    name="fig18", slug="fig18_energy",
    title="Dynamic memory energy normalised to the no-NM baseline",
    paper_ref="Figure 18 (evaluation)",
    description="Dynamic energy of the memory devices per design and MPKI "
                "class, normalised to the no-NM baseline.",
    run=run_fig18, check=check_fig18,
    expectations=(
        Expectation("Hybrid2, all classes", ("per_design", "HYBRID2", "all"),
                    1.7, abs_tol=0.7),
        Expectation("MemPod, all classes", ("per_design", "MPOD", "all"),
                    1.3, abs_tol=0.7),
        Expectation("LGM, all classes", ("per_design", "LGM", "all"),
                    1.3, abs_tol=0.7),
    ),
    landmarks="Every NM-using design consumes more dynamic energy than "
              "the baseline; Hybrid2 sits close to Chameleon and the "
              "caches (~1.7x), MemPod and LGM lower (~1.3x).",
))


# ----------------------------------------------------------------------
# Table 1 — system configuration
# ----------------------------------------------------------------------
def run_table1(ctx: ReportContext) -> BenchResult:
    rows = []
    describes = {}
    for nm_gb in (1, 2, 4):
        desc = ctx.runner.config_for(nm_gb=nm_gb).describe()
        describes[str(nm_gb)] = desc
        rows.append([f"{nm_gb} GB (paper)", desc["near_memory"],
                     desc["far_memory"], desc["nm_fm_ratio"],
                     desc["dram_cache"]])
    header = describes["1"]
    notes = (f"cores: {header['cores']}\n"
             f"SRAM caches (paper values, not simulated: the traces are "
             f"LLC-filtered and each reference is charged the L3 latency)\n"
             f"l1: {header['l1']}\nl2: {header['l2']}\nl3: {header['l3']}")
    table = Table(
        title="Table 1: system configuration (scaled model)",
        columns=["NM (paper)", "near memory (scaled)", "far memory (scaled)",
                 "NM:FM", "Hybrid2 DRAM cache"],
        rows=rows, slug="config")
    return BenchResult(name="table1", tables=[table], notes=notes,
                       raw={"configs": describes})


def check_table1(result: BenchResult) -> None:
    assert "NM:FM" in result.render_text()


register(BenchSpec(
    name="table1", slug="table1_config",
    title="System configuration (after capacity scaling)",
    paper_ref="Table 1 (methodology)",
    description="The configuration actually simulated — the paper's "
                "Table 1 after capacity scaling — for each of the three "
                "NM sizes of the evaluation.",
    run=run_table1, check=check_table1, uses_sweep=False,
))


# ----------------------------------------------------------------------
# Table 2 — benchmark characteristics
# ----------------------------------------------------------------------
TABLE2_REFS_PER_WORKLOAD = 4000


def run_table2(ctx: ReportContext) -> BenchResult:
    scale = ctx.runner.scale
    rows = []
    trace_mpki: Dict[str, float] = {}
    for spec in WORKLOADS:
        trace = generate_trace(spec, TABLE2_REFS_PER_WORKLOAD, scale=scale,
                               seed=1)
        trace_mpki[spec.name] = round(trace.mpki(), 2)
        footprint_mb = spec.scaled_footprint_bytes(scale) / MIB
        traffic_mb = TABLE2_REFS_PER_WORKLOAD * 64 / MIB
        rows.append([
            spec.name, spec.suite, spec.mpki_class,
            round(spec.mpki, 2), trace_mpki[spec.name],
            round(spec.footprint_gb, 2), round(footprint_mb, 2),
            round(traffic_mb, 2),
        ])
    table = Table(
        title="Table 2: benchmark characteristics",
        columns=["benchmark", "suite", "class", "MPKI (paper)",
                 "MPKI (trace)", "footprint GB (paper)",
                 "footprint MB (scaled)", "trace traffic MB"],
        rows=rows, slug="workloads")
    return BenchResult(name="table2", tables=[table],
                       raw={"trace_mpki": trace_mpki})


def check_table2(result: BenchResult) -> None:
    text = result.render_text()
    assert "cg.D" in text and "namd" in text


register(BenchSpec(
    name="table2", slug="table2_workloads",
    title="Benchmark characteristics (catalog vs generated traces)",
    paper_ref="Table 2 (methodology)",
    description="MPKI / footprint / traffic characterisation of every "
                "workload in the catalog, regenerated from the traces the "
                "generators actually produce.",
    run=run_table2, check=check_table2, uses_sweep=False,
))


# ----------------------------------------------------------------------
# Engine performance — the repo's own throughput trajectory
# ----------------------------------------------------------------------
def run_perf(ctx: ReportContext) -> BenchResult:
    payload = perfbench.run_benchmark(refs=ctx.perf_refs,
                                      repeat=ctx.perf_repeat)
    fast, gen = payload["fast_path"], payload["generator"]
    summary_rows = [
        ["calibration loop", round(payload["calibration"]["ops_per_sec"]),
         None],
        ["simulate() on NULL", round(fast["refs_per_sec"]),
         round(fast["ratio"], 3)],
        ["trace generator", round(gen["records_per_sec"]),
         round(gen["ratio"], 3)],
    ]
    small = payload.get("fast_path_small")
    if small:
        summary_rows.append(
            [f"simulate() on NULL ({payload['small_refs']} refs)",
             round(small["refs_per_sec"]), round(small["ratio"], 3)])
    summary_table = Table(
        title=f"Engine throughput ({payload['refs']} refs, workload "
              f"{payload['workload']}, {payload['repeat']} rounds)",
        columns=["path", "rate /s", "per calibration op"],
        rows=summary_rows,
        slug="engine")
    design_table = Table(
        title="Per-design refs/sec as a share of the NULL system's "
              "(rates machine-dependent, shares gated)",
        columns=["design", "share of NULL", "refs/s"],
        rows=[[label, round(rate["ratio"], 3), round(rate["refs_per_sec"])]
              for label, rate in payload["designs"].items()],
        slug="designs", chart="bar", y_label="share of NULL refs/s")
    return BenchResult(name="perf", tables=[summary_table, design_table],
                       raw=payload)


def check_perf(result: BenchResult) -> None:
    payload = result.raw
    # The ratios are gated against the checked-in baseline
    # (perfbench.compare_to_baseline); what is checked here holds on any
    # host.  Below ~20k refs the engine's fixed setup stops amortising, so
    # reduced smoke runs only record the trajectory.
    if payload["refs"] >= 20_000:
        fast, gen = payload["fast_path"], payload["generator"]
        assert gen["records_per_sec"] > fast["refs_per_sec"], (
            "generating a trace is slower than simulating it")
        for label, rate in payload.get("designs", {}).items():
            assert rate["ratio"] < 1.0, (
                f"{label} outran the fixed-latency NULL system "
                f"({rate['ratio']:.2f}x its refs/sec)")


register(BenchSpec(
    name="perf", slug="perf_engine",
    title="Simulation-engine throughput (refs/sec trajectory)",
    paper_ref="(repo artifact — not a paper figure)",
    description="Refs/sec of simulate() on the fixed-latency NULL memory "
                "system and of the vectorized trace generator, each over "
                "the rate of a fixed pure-Python calibration loop, plus "
                "every catalog design's refs/sec as a share of the NULL "
                "system's on the same trace.",
    run=run_perf, check=check_perf, uses_sweep=False,
    landmarks="A design's share of the NULL system's refs/sec is the "
              "engine floor it keeps: every design is slower than NULL, "
              "and the share falls when its step or DRAM kernels get "
              "slower.  The generator outruns the simulation it feeds.  "
              "Raw rates are machine-dependent; CI gates the ratios.",
))


# ----------------------------------------------------------------------
# Real-trace twin — the evaluated designs over the checked-in corpus
# ----------------------------------------------------------------------
def _corpus_dir() -> "Path":
    """Locate the trace corpus: ``REPRO_TRACE_CORPUS``, the repo-relative
    ``tests/data/traces``, or the same path under the cwd."""
    import os
    from pathlib import Path

    env = os.environ.get("REPRO_TRACE_CORPUS")
    if env:
        return Path(env)
    repo_root = Path(__file__).resolve().parents[3]
    for base in (repo_root, Path.cwd()):
        candidate = base / "tests" / "data" / "traces"
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "trace corpus not found: set REPRO_TRACE_CORPUS or run from the "
        "repository root (tests/data/traces)")


def run_trace01(ctx: ReportContext) -> BenchResult:
    from ..workloads.tracefile import TraceFileWorkload

    corpus = _corpus_dir()
    names = ("stream8.tsv", "hotcold.tsv.gz", "mixed4.csv")
    workloads = [TraceFileWorkload.from_path(corpus / name)
                 for name in names if (corpus / name).is_file()]
    if not workloads:
        raise FileNotFoundError(f"no corpus traces under {corpus}")
    sweep = ctx.runner.sweep_designs_by_name(list(EVALUATED_DESIGNS),
                                             workloads)
    per_design = {design: sweep.speedups(design)
                  for design in EVALUATED_DESIGNS}
    order = [w.name for w in workloads]
    table = Table(
        title="Real-trace twin: speedup over the no-NM baseline on the "
              "checked-in trace corpus (1 GB NM)",
        columns=["trace"] + list(EVALUATED_DESIGNS),
        rows=[[trace] + [per_design[d].get(trace)
                         for d in EVALUATED_DESIGNS]
              for trace in order],
        slug="realtrace", chart="bar-grouped", y_label="speedup")
    traces = {w.name: {"path": w.path, "content_hash": w.content_hash}
              for w in workloads}
    return BenchResult(
        name="trace01", tables=[table],
        notes="Workloads here are real trace files driven through "
              "repro.trace (content-hashed mmap cache), not the synthetic "
              "generators — the sweep cells are keyed by trace content.",
        raw={"per_design": per_design, "order": order, "traces": traces})


def check_trace01(result: BenchResult) -> None:
    per_design = result.raw["per_design"]
    assert result.raw["order"], "no corpus traces were swept"
    for design, speedups in per_design.items():
        for trace, value in speedups.items():
            assert value > 0, f"{design} on {trace}: speedup {value}"


register(BenchSpec(
    name="trace01", slug="trace01_realtrace",
    title="Real-trace twin of the main speedup figure",
    paper_ref="(repo artifact — real-trace ingestion)",
    description="Every evaluated design driven by the checked-in external "
                "trace corpus (TSV, gzip TSV and multi-core CSV dialects) "
                "through the repro.trace file frontend, normalised to the "
                "no-NM baseline per trace.",
    run=run_trace01, check=check_trace01, uses_sweep=False,
    landmarks="A twin of Figure 13 on file-backed traces: the same engine "
              "and designs, but the workload columns come from external "
              "trace files via the content-hashed mmap cache.",
))
