"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workloads import WORKLOADS

SWEEP_ARGS = ["sweep", "--designs", "HYBRID2", "--workloads", "mcf",
              "--refs", "500", "--scale", "1024"]


def test_sweep_writes_json_report(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = main(SWEEP_ARGS + ["--store", str(tmp_path / "store"),
                              "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {run["design"] for run in payload["runs"]} == {"HYBRID2"}
    # Every run carries its sweep label, joinable with the speedups section.
    assert {run["label"] for run in payload["runs"]} == {"HYBRID2"}
    assert "mcf" in payload["baselines"]
    assert payload["speedups"]["HYBRID2"]["mcf"] > 0
    captured = capsys.readouterr().out
    assert "2 simulated" in captured


def test_sweep_second_run_is_fully_cached(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store]) == 0
    capsys.readouterr()
    assert main(SWEEP_ARGS + ["--store", store, "--workers", "2"]) == 0
    captured = capsys.readouterr().out
    assert "0 simulated" in captured
    assert "2 from store" in captured


def test_sweep_no_store_and_no_baselines(tmp_path, capsys):
    code = main(SWEEP_ARGS + ["--no-store", "--no-baselines"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "1 total, 1 simulated" in captured
    assert "speedup" not in captured


def test_sweep_workload_classes_and_dedup(tmp_path, capsys):
    code = main(["sweep", "--designs", "HYBRID2",
                 "--workloads", "class:low", "mcf", "mcf",
                 "--refs", "200", "--scale", "1024", "--no-store",
                 "--no-baselines"])
    assert code == 0
    low = [spec for spec in WORKLOADS if spec.mpki_class == "low"]
    captured = capsys.readouterr().out
    assert f"{len(low) + 1} workloads" in captured


def test_sweep_factory_path_designs(tmp_path, capsys):
    code = main(["sweep", "--designs",
                 "DFC-256=repro.baselines.dfc:DecoupledFusedCache",
                 "--workloads", "mcf", "--refs", "200", "--scale", "1024",
                 "--no-store"])
    assert code == 0
    assert "DFC-256" in capsys.readouterr().out


def test_sweep_unknown_design_fails(capsys):
    code = main(["sweep", "--designs", "NOPE", "--workloads", "mcf",
                 "--no-store"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown design" in err and "HYBRID2" in err


def test_sweep_unknown_workload_fails(capsys):
    code = main(["sweep", "--designs", "HYBRID2", "--workloads", "nosuch",
                 "--no-store"])
    assert code == 2
    assert "unknown workload" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "report"])
def test_negative_seed_is_refused_at_parse_time(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--seed", "-1", "--no-store",
              "--out-dir" if command == "report" else "--out",
              str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, value", [("--refs", "0"),
                                           ("--refs", "-3"),
                                           ("--max-attempts", "0")])
def test_sweep_refuses_non_positive_counts_at_parse_time(option, value,
                                                         tmp_path, capsys):
    """A sweep with no references once stored a cell keyed as 0 refs that
    simulated one per core, and zero attempts was run as one."""
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as excinfo:
        main(SWEEP_ARGS + [option, value, "--store", str(store)])
    assert excinfo.value.code == 2
    assert f"must be a positive integer, got {value}" in \
        capsys.readouterr().err
    assert not store.exists()


def test_designs_listing(capsys):
    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "HYBRID2" in out and "BASELINE" in out


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(WORKLOADS)
    assert main(["workloads", "--class", "high"]) == 0
    assert all("high" in line for line in
               capsys.readouterr().out.splitlines())


def test_report_list(capsys):
    assert main(["report", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig12" in out and "table2" in out and "trace01" in out
    assert len(out.strip().splitlines()) == 14


def test_report_single_bench_writes_gallery_and_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    gallery = tmp_path / "EXPERIMENTS.md"
    code = main(["report", "--bench", "table1", "--no-store",
                 "--out-dir", str(out_dir), "--gallery", str(gallery)])
    assert code == 0
    assert (out_dir / "table1.json").exists()
    assert (out_dir / "table1.md").exists()
    assert "table1" in gallery.read_text()
    assert "wrote" in capsys.readouterr().out


def test_report_unknown_bench_fails(capsys):
    assert main(["report", "--bench", "fig99", "--no-store"]) == 2
    assert "unknown bench" in capsys.readouterr().err


def test_apidoc_write_and_check(tmp_path, capsys):
    target = tmp_path / "api.md"
    assert main(["apidoc", "--out", str(target)]) == 0
    assert target.exists()
    assert main(["apidoc", "--out", str(target), "--check"]) == 0
    target.write_text(target.read_text() + "drift\n")
    capsys.readouterr()
    assert main(["apidoc", "--out", str(target), "--check"]) == 1
    assert "stale" in capsys.readouterr().err


def test_store_info_and_clear(tmp_path, capsys):
    store = str(tmp_path / "store")
    main(SWEEP_ARGS + ["--store", store])
    capsys.readouterr()
    assert main(["store", "--store", store]) == 0
    assert "2 cached results" in capsys.readouterr().out
    assert main(["store", "--store", store, "--clear"]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["store", "--store", store]) == 0
    assert "0 cached results" in capsys.readouterr().out


def test_sweep_with_exhausted_fault_degrades_and_exits_nonzero(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS",
                       '[{"job": 0, "mode": "crash", "attempts": 99}]')
    code = main(SWEEP_ARGS + ["--store", str(tmp_path / "store"),
                              "--no-baselines", "--max-attempts", "2",
                              "--backoff", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "1 FAILED" in captured.out
    assert "InjectedFault" in captured.err


def test_sweep_strict_fails_fast_on_fault(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS",
                       '[{"job": 0, "mode": "crash", "attempts": 99}]')
    code = main(SWEEP_ARGS + ["--no-store", "--no-baselines", "--strict",
                              "--max-attempts", "1", "--backoff", "0"])
    assert code == 1
    assert "injected crash" in capsys.readouterr().err


def test_store_fsck_detects_quarantines_and_repairs(tmp_path, capsys):
    from repro.sim.faults import corrupt_store_cell
    from repro.sim.store import ResultStore

    store = str(tmp_path / "store")
    main(SWEEP_ARGS + ["--store", store, "--no-baselines"])
    capsys.readouterr()
    assert main(["store", "fsck", "--store", store]) == 0
    assert "1 cells scanned, 1 ok" in capsys.readouterr().out
    key = next(iter(ResultStore(store).keys()))

    def stored_text():
        return ResultStore(store).backend.fetch_many([key])[key]

    pristine = stored_text()
    corrupt_store_cell(ResultStore(store), key)
    assert main(["store", "fsck", "--store", store, "--no-quarantine"]) == 1
    captured = capsys.readouterr()
    assert "1 corrupt" in captured.out and key in captured.err
    assert main(["store", "fsck", "--store", store, "--repair"]) == 0
    assert "1 repaired" in capsys.readouterr().out
    assert stored_text() == pristine


def test_store_refuses_a_json_uri(tmp_path, capsys):
    assert main(["store", "--store", f"json:{tmp_path / 'old'}"]) == 2
    assert "unsupported store URI" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_store_fsck_purge_quarantine(tmp_path, capsys):
    from repro.sim.faults import corrupt_store_cell
    from repro.sim.store import ResultStore

    store = str(tmp_path / "store")
    main(SWEEP_ARGS + ["--store", store, "--no-baselines"])
    handle = ResultStore(store)
    corrupt_store_cell(handle, next(iter(handle.keys())))
    capsys.readouterr()
    assert main(["store", "fsck", "--store", store]) == 1
    assert "quarantine holds 1" in capsys.readouterr().out
    assert main(["store", "fsck", "--store", store,
                 "--purge-quarantine"]) == 0
    assert "1 quarantined cell(s) purged" in capsys.readouterr().out
    assert ResultStore(store).quarantine_stats() == (0, 0)


# ---------------------------------------------------------------------------
# trace subcommands
# ---------------------------------------------------------------------------
def write_demo_trace(tmp_path, name="demo.tsv", records=40):
    from repro.trace import write_trace
    from repro.workloads import get_workload
    from repro.workloads.synthetic import generate_trace

    path = tmp_path / name
    write_trace(generate_trace(get_workload("mcf"), records, scale=1024,
                               seed=9), path)
    return path


def test_trace_convert_builds_then_reuses_cache(tmp_path, capsys):
    path = write_demo_trace(tmp_path)
    assert main(["trace", "convert", str(path), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["from_cache"] is False
    assert first["records"] == 40
    assert (tmp_path / "demo.tsv.trcache").is_dir()
    assert main(["trace", "convert", str(path), "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["from_cache"] is True
    assert second["content_hash"] == first["content_hash"]
    assert main(["trace", "convert", str(path), "--force", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["from_cache"] is False


def test_trace_inspect_json_shape(tmp_path, capsys):
    path = write_demo_trace(tmp_path)
    assert main(["trace", "inspect", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 40
    assert payload["cores"] == {"0": 40}
    assert 0.0 <= payload["write_fraction"] <= 1.0
    assert payload["instructions"] > payload["records"]
    assert payload["footprint_bytes"] % 64 == 0
    assert {"mpki", "demand_references", "path", "content_hash",
            "from_cache"} <= set(payload)
    # --no-cache parses the text directly and omits provenance keys.
    assert main(["trace", "inspect", str(path), "--no-cache",
                 "--json"]) == 0
    uncached = json.loads(capsys.readouterr().out)
    assert "from_cache" not in uncached
    assert uncached["records"] == payload["records"]


def test_trace_subsample_and_interleave(tmp_path, capsys):
    a = write_demo_trace(tmp_path, "a.tsv")
    b = write_demo_trace(tmp_path, "b.tsv")
    cut = tmp_path / "cut.tsv"
    assert main(["trace", "subsample", str(a), "--out", str(cut),
                 "--first", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"source": str(a), "out": str(cut),
                       "records_in": 40, "records_out": 10}
    merged = tmp_path / "merged.csv"
    assert main(["trace", "interleave", str(a), str(b), "--out",
                 str(merged), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cores"] == 2 and payload["records"] == 80
    assert main(["trace", "inspect", str(merged), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cores"] == {"0": 40,
                                                            "1": 40}


def test_trace_malformed_input_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t100\t0\n1\tzz\t0\n")
    assert main(["trace", "inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and "address" in err


def test_trace_missing_file_exits_2(tmp_path, capsys):
    assert main(["trace", "convert", str(tmp_path / "nope.tsv")]) == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_sweep_accepts_trace_workload_tokens(tmp_path, capsys):
    path = write_demo_trace(tmp_path, records=120)
    out = tmp_path / "results.json"
    code = main(["sweep", "--designs", "HYBRID2",
                 "--workloads", f"trace:{path}",
                 "--refs", "100", "--scale", "1024", "--no-store",
                 "--out", str(out)])
    assert code == 0
    assert "2 simulated" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert {run["workload"] for run in payload["runs"]} == {"demo"}
    assert payload["speedups"]["HYBRID2"]["demo"] > 0
