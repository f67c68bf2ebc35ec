"""Tests for the report layer: registry, expectations, artifacts, pipeline."""

import importlib.util
import json
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.report import (ARTIFACT_FORMAT, BenchResult, Expectation,
                          ReportSettings, Table, all_benches, artifact_path,
                          generate_report, get_bench, load_artifact,
                          rebuild_gallery, result_from_artifact, run_bench,
                          status_of, write_artifact)
from repro.report import apidoc
from repro.report.render import chart_for_table

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every bench of the paper's evaluation plus the real-trace twin
#: gallery page.
EXPECTED_BENCHES = (
    "fig01", "fig02", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "table1", "table2", "trace01",
)


# ----------------------------------------------------------------------
# registry completeness
# ----------------------------------------------------------------------
def test_all_13_benches_registered():
    specs = all_benches()
    assert tuple(spec.name for spec in specs) == EXPECTED_BENCHES
    assert len(specs) == 13


def test_specs_are_complete_and_slugs_unique():
    specs = all_benches()
    assert len({spec.slug for spec in specs}) == len(specs)
    for spec in specs:
        assert spec.title and spec.paper_ref and spec.description
        assert callable(spec.run)
        assert callable(spec.check)
    # The shared-main-sweep benches must be flagged as such.
    sweep_users = {spec.name for spec in specs if spec.uses_sweep}
    assert sweep_users == {"fig12", "fig13", "fig15", "fig16", "fig17",
                           "fig18"}


def test_get_bench_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="fig12"):
        get_bench("nope")


# ----------------------------------------------------------------------
# expectation / deviation-flagging logic
# ----------------------------------------------------------------------
def test_expectation_within_abs_tolerance_is_ok():
    exp = Expectation("m", ("a", "b"), 10.0, abs_tol=2.0)
    out = exp.evaluate({"a": {"b": 11.5}})
    assert out["status"] == "ok"
    assert out["deviation"] == pytest.approx(1.5)
    assert out["deviation_pct"] == pytest.approx(15.0)


def test_expectation_beyond_tolerance_is_flagged():
    exp = Expectation("m", ("a",), 10.0, abs_tol=2.0)
    assert exp.evaluate({"a": 13.0})["status"] == "flag"
    rel = Expectation("m", ("a",), 10.0, rel_tol=0.5)
    assert rel.evaluate({"a": 13.0})["status"] == "ok"
    assert rel.evaluate({"a": 16.0})["status"] == "flag"


def test_expectation_string_and_missing_and_info():
    label = Expectation("cfg", ("best",), "64MB")
    assert label.evaluate({"best": "64MB"})["status"] == "ok"
    assert label.evaluate({"best": "128MB"})["status"] == "flag"
    assert label.evaluate({})["status"] == "missing"
    info = Expectation("m", ("a",), 1.0)   # no tolerance: informational
    assert info.evaluate({"a": 99.0})["status"] == "info"


def test_status_aggregation():
    flag = {"status": "flag"}
    ok = {"status": "ok"}
    info = {"status": "info"}
    missing = {"status": "missing"}
    assert status_of([ok, flag]) == "deviates"
    assert status_of([ok, ok]) == "ok"
    assert status_of([info]) == "info"
    assert status_of([]) == "info"
    assert status_of([ok], check_error="boom") == "check-failed"
    # A vanished metric path must never read as "within tolerance".
    assert status_of([ok, missing]) == "incomplete"


# ----------------------------------------------------------------------
# artifact round-trip
# ----------------------------------------------------------------------
def _fake_result() -> BenchResult:
    table = Table(title="T", columns=["k", "v"], rows=[["a", 1.0],
                                                       ["b", None]],
                  slug="t", chart="bar", y_label="v")
    return BenchResult(name="fig01", tables=[table],
                       raw={"series": {"a": 1.0}}, notes="hello")


def test_artifact_round_trip(tmp_path):
    spec = get_bench("fig01")
    result = _fake_result()
    deviations = spec.evaluate(result)
    path = write_artifact(spec, result, deviations,
                          {"refs": 123}, tmp_path)
    assert path == artifact_path(tmp_path, spec)
    payload = load_artifact(path)
    assert payload["format"] == ARTIFACT_FORMAT
    assert payload["bench"] == "fig01"
    assert payload["settings"] == {"refs": 123}
    restored = result_from_artifact(payload)
    assert restored == result            # full dataclass round-trip
    assert restored.tables[0].rows[1][1] is None


def test_load_artifact_rejects_stale_format(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format": -1}))
    with pytest.raises(ValueError, match="format"):
        load_artifact(path)


# ----------------------------------------------------------------------
# chart rendering from tables
# ----------------------------------------------------------------------
def test_chart_for_table_forms_are_well_formed_xml():
    bar = Table(title="b", columns=["k", "v"], rows=[["x", 1.0]],
                chart="bar")
    line = Table(title="l", columns=["k", "v"], rows=[["x", 1.0],
                                                      ["y", 2.0]],
                 chart="line")
    grouped = Table(title="g", columns=["k", "s1", "s2"],
                    rows=[["x", 1.0, None], ["y", 2.0, 3.0]],
                    chart="bar-grouped")
    for table in (bar, line, grouped):
        ET.fromstring(chart_for_table(table))
    assert chart_for_table(Table(title="n", columns=["k"], rows=[["x"]],
                                 chart=None)) is None


# ----------------------------------------------------------------------
# pipeline end-to-end (cheap benches + one tiny sweep bench)
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_settings(tmp_path):
    return ReportSettings(refs=300, per_class=1, scale=1024, seed=1,
                          workers=1, store=str(tmp_path / "store"))


def test_generate_report_writes_gallery_and_artifacts(tmp_path,
                                                      tiny_settings):
    out = tmp_path / "artifacts"
    gallery = tmp_path / "EXPERIMENTS.md"
    summary = generate_report(["table1", "fig13"], settings=tiny_settings,
                              out_dir=out, gallery=gallery)
    assert set(summary["benches"]) == {"table1", "fig13"}
    assert (out / "table1.json").exists()
    assert (out / "fig13.md").exists()
    svg = out / "fig13.perbench.svg"
    assert svg.exists()
    ET.parse(svg)                         # well-formed XML
    text = gallery.read_text()
    assert "table1" in text and "fig13" in text
    assert "fig13.md" in text             # gallery links the bench page


def test_artifacts_are_byte_identical_across_runs(tmp_path, tiny_settings,
                                                  monkeypatch):
    """The same code, settings and seed write the same artifacts: a
    simulated run and a store-served rerun into another directory, each
    reading the trace corpus from its own checkout."""
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out in dirs:
        corpus = out.parent / f"{out.name}-checkout" / "traces"
        shutil.copytree(Path(__file__).parent / "data" / "traces", corpus)
        monkeypatch.setenv("REPRO_TRACE_CORPUS", str(corpus))
        generate_report(["table1", "fig13", "trace01"],
                        settings=tiny_settings, out_dir=out,
                        gallery=out / "EXPERIMENTS.md")
    names = sorted(path.name for path in dirs[0].iterdir()
                   if path.suffix in (".json", ".md", ".svg")
                   and path.name != "EXPERIMENTS.md")
    assert {"table1.json", "table1.md", "fig13.json", "fig13.md",
            "fig13.perbench.svg", "trace01.json"} <= set(names)
    assert names == sorted(path.name for path in dirs[1].iterdir()
                           if path.name != "EXPERIMENTS.md")
    for name in names:
        assert (dirs[0] / name).read_bytes() == \
            (dirs[1] / name).read_bytes(), name


def test_gallery_merges_existing_artifacts(tmp_path, tiny_settings):
    out = tmp_path / "artifacts"
    gallery = tmp_path / "EXPERIMENTS.md"
    generate_report(["table1"], settings=tiny_settings, out_dir=out,
                    gallery=gallery)
    generate_report(["table2"], settings=tiny_settings, out_dir=out,
                    gallery=gallery)
    text = gallery.read_text()
    # The second (partial) run must keep the first bench in the gallery.
    assert "table1" in text and "table2" in text


def test_run_bench_records_check_failures(tmp_path, tiny_settings):
    spec = get_bench("table1")
    broken = type(spec)(
        name=spec.name, slug=spec.slug, title=spec.title,
        paper_ref=spec.paper_ref, description=spec.description,
        run=spec.run, check=lambda result: (_ for _ in ()).throw(
            AssertionError("intentional")),
        expectations=spec.expectations, landmarks=spec.landmarks,
        uses_sweep=spec.uses_sweep)
    ctx = tiny_settings.make_context()
    outcome = run_bench(broken, ctx, tiny_settings, tmp_path)
    assert outcome.status == "check-failed"
    assert "intentional" in outcome.check_error
    payload = load_artifact(outcome.artifact)
    assert payload["status"] == "check-failed"


def test_rebuild_gallery_without_artifacts_is_empty_but_valid(tmp_path):
    gallery = rebuild_gallery(tmp_path / "artifacts",
                              tmp_path / "EXPERIMENTS.md")
    assert "Experiments" in gallery.read_text()


# ----------------------------------------------------------------------
# graceful degradation: one failing bench must not sink the report
# ----------------------------------------------------------------------
def _broken_spec():
    spec = get_bench("table1")
    return type(spec)(
        name=spec.name, slug=spec.slug, title=spec.title,
        paper_ref=spec.paper_ref, description=spec.description,
        run=lambda ctx: (_ for _ in ()).throw(
            RuntimeError("bench exploded")),
        check=None, expectations=spec.expectations,
        landmarks=spec.landmarks, uses_sweep=spec.uses_sweep)


def test_failing_bench_degrades_to_failure_artifact(tmp_path, tiny_settings,
                                                    monkeypatch):
    monkeypatch.setattr("repro.report.pipeline.get_bench",
                        lambda name: _broken_spec() if name == "table1"
                        else get_bench(name))
    out = tmp_path / "artifacts"
    gallery = tmp_path / "EXPERIMENTS.md"
    summary = generate_report(["table1", "table2"], settings=tiny_settings,
                              out_dir=out, gallery=gallery)
    # The failing bench is flagged, the healthy one still rendered.
    assert summary["benches"]["table1"] == "failed"
    assert summary["benches"]["table2"] != "failed"
    assert summary["failed"] == {"table1": "RuntimeError: bench exploded"}
    assert (out / "table2.json").exists()
    payload = load_artifact(out / "table1.json")
    assert payload["status"] == "failed"
    assert payload["error"]["type"] == "RuntimeError"
    assert "bench exploded" in payload["error"]["traceback"]
    text = gallery.read_text()
    assert "Failed benches" in text
    assert "bench exploded" in text
    assert "table2" in text                  # the rest of the gallery stands
    page = (out / "table1.md").read_text()
    assert "RuntimeError" in page and "bench exploded" in page


def test_strict_report_reraises_bench_failures(tmp_path, tiny_settings,
                                               monkeypatch):
    monkeypatch.setattr("repro.report.pipeline.get_bench",
                        lambda name: _broken_spec())
    tiny_settings.strict = True
    with pytest.raises(RuntimeError, match="bench exploded"):
        generate_report(["table1"], settings=tiny_settings,
                        out_dir=tmp_path / "artifacts",
                        gallery=tmp_path / "EXPERIMENTS.md")


def test_report_settings_strict_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")
    assert ReportSettings.from_env().strict
    monkeypatch.delenv("REPRO_STRICT")
    assert not ReportSettings.from_env().strict
    assert ReportSettings.from_env(strict=True).strict


BAD_ENV_KNOBS = [
    ("REPRO_BENCH_REFS", "abc", "must be an integer, got 'abc'"),
    ("REPRO_BENCH_REFS", "2.7", "must be an integer, got '2.7'"),
    ("REPRO_BENCH_REFS", "0", "must be >= 1, got 0"),
    ("REPRO_BENCH_WORKLOADS_PER_CLASS", "0", "must be >= 1, got 0"),
    ("REPRO_BENCH_SCALE", "-4", "must be >= 1, got -4"),
    ("REPRO_BENCH_WORKERS", "-3", "must be >= 1, got -3"),
    ("REPRO_BENCH_WORKERS", "many", "must be an integer, got 'many'"),
    ("REPRO_BENCH_SEED", "-1", "must be >= 0, got -1"),
]


@pytest.mark.parametrize("name, value, message", BAD_ENV_KNOBS,
                         ids=[f"{name}={value}"
                              for name, value, _ in BAD_ENV_KNOBS])
def test_report_settings_refuse_bad_env_knobs(monkeypatch, name, value,
                                              message):
    """A bad knob is refused with its name instead of running a report
    over zero workloads or silently with one worker."""
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        ReportSettings.from_env()


def test_report_settings_read_valid_env_knobs(monkeypatch):
    for name, value in (("REPRO_BENCH_REFS", "500"),
                        ("REPRO_BENCH_WORKLOADS_PER_CLASS", "1"),
                        ("REPRO_BENCH_SCALE", "1024"),
                        ("REPRO_BENCH_SEED", "0"),
                        ("REPRO_BENCH_WORKERS", "3")):
        monkeypatch.setenv(name, value)
    settings = ReportSettings.from_env(refs=700)
    assert (settings.refs, settings.per_class, settings.scale,
            settings.seed, settings.workers) == (700, 1, 1024, 0, 3)


# ----------------------------------------------------------------------
# apidoc generation
# ----------------------------------------------------------------------
def test_apidoc_generates_baselines_reference(tmp_path):
    target = tmp_path / "api.md"
    apidoc.write_api_doc(target)
    text = target.read_text()
    for needle in ("repro.baselines.mempod", "class MemorySystem",
                   "Paper anchor"):
        assert needle in text
    assert apidoc.check_api_doc(target)
    target.write_text(text + "drift\n")
    assert not apidoc.check_api_doc(target)


def test_checked_in_api_doc_is_current():
    """docs/api.md must match the docstrings (regenerate with
    `python -m repro apidoc`)."""
    assert apidoc.check_api_doc(REPO_ROOT / "docs" / "api.md")


# ----------------------------------------------------------------------
# the markdown link checker used by the CI docs lane
# ----------------------------------------------------------------------
def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_links_flags_broken_relative_links(tmp_path, capsys):
    check_links = _load_check_links()
    (tmp_path / "good.md").write_text(
        "[ok](sub/target.md) [web](https://example.com) [anchor](#x)\n"
        "code, not a link: `table[key](arg)`\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "target.md").write_text("hi\n")
    assert check_links.main([str(tmp_path)]) == 0
    (tmp_path / "bad.md").write_text("![img](missing.svg)\n")
    assert check_links.main([str(tmp_path)]) == 1
    assert "missing.svg" in capsys.readouterr().err


def test_repo_markdown_links_are_valid():
    """The repo's own checked-in markdown must pass the CI link gate."""
    check_links = _load_check_links()
    assert check_links.main([str(REPO_ROOT)]) == 0
