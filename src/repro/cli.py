"""Command-line interface: ``python -m repro`` (or the ``repro-sweep``
console script after ``pip install -e .``).

Subcommands:

* ``sweep`` — run a (design x workload) sweep through the parallel engine,
  optionally writing a JSON report and caching every cell in the
  persistent result store::

      python -m repro sweep --designs HYBRID2 DFC --workloads mcf lbm \
          --workers 4 --out results.json

* ``bench`` — measure engine throughput (refs/sec of ``simulate()`` on
  the NULL memory system, of the trace generator and of every design) and
  write/update ``BENCH_engine.json``; optionally gate the in-process
  ratios on a stored baseline::

      python -m repro bench --out BENCH_engine.json \
          --baseline benchmarks/results/BENCH_engine_baseline.json

* ``report`` — regenerate the paper-artifact gallery: run any subset of
  the 13 registered benches and render ``EXPERIMENTS.md`` plus per-bench
  JSON/markdown/SVG artifacts, with measured-vs-published deviation
  flags::

      python -m repro report                         # all 14 benches
      python -m repro report --bench fig12 fig15 --workers 4
      python -m repro report --list                  # show the registry

* ``trace`` — work with external trace files (``repro.trace``):
  ``convert`` builds the content-hashed mmap cache beside a source file,
  ``inspect`` summarises a trace (record count, footprint, read/write
  mix, per-core histogram), ``subsample`` and ``interleave`` write
  derived traces.  ``sweep --workloads trace:PATH`` drives any design
  with a trace file directly::

      python -m repro trace convert traces/mcf.tsv
      python -m repro trace inspect traces/mcf.tsv --json
      python -m repro sweep --designs HYBRID2 --workloads trace:traces/mcf.tsv

* ``serve`` — start the results-serving HTTP API (``repro.serve``): store
  cells, bench slices and on-demand SVG charts on the read path (LRU
  response cache + ETags), job submission with store/in-flight dedup and
  long-poll progress on the write path::

      python -m repro serve --port 8765 --store .repro-store
      curl http://127.0.0.1:8765/v1/benches

* ``serve-bench`` — drive the serve layer with the built-in load
  generator and write/gate ``BENCH_serve.json`` (structural gates only:
  zero errors, warm conditional requests served as ``304``).
* ``apidoc`` — (re)generate ``docs/api.md`` from the ``repro.baselines``
  docstrings; ``--check`` fails when the page drifted from the code.
* ``designs`` — list the design registry (paper labels).
* ``workloads`` — list the Table 2 workload catalog.
* ``store`` — inspect or clear the result store; ``store fsck`` verifies
  every cell's checksum and quarantines corruption (``--repair``
  re-simulates from the embedded job specs, ``--purge-quarantine``
  empties the post-mortem copies); ``store stats`` summarises cell
  health.  ``fsck``/``stats`` take ``--json`` for machine-readable
  reports, as do ``designs`` and ``workloads`` (the same serializers
  that back the serve layer's ``/v1/designs`` and ``/v1/workloads``
  endpoints).

``python -m repro --version`` prints the package version, single-sourced
from ``repro.__version__`` (the serve layer surfaces the same value in
its ``X-Repro-Version`` response header).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import package_version
from .baselines import DESIGN_FACTORIES, EVALUATED_DESIGNS
from .sim.runner import ExperimentRunner
from .sim.store import ResultStore, default_store_root
from .sim.sweep import DesignRef, SweepExecutionError, check_design
from .workloads.catalog import (MPKI_CLASSES, WORKLOADS, get_workload,
                                representative_workloads, workloads_by_class)
from .workloads.tracefile import is_trace_token, workload_from_token


def _parse_workloads(tokens: Sequence[str], per_class: Optional[int]) -> List:
    """Expand workload tokens: names, ``all``, ``class:<name>`` and
    ``trace:<path>`` (a trace file driven directly)."""
    if per_class is not None:
        return representative_workloads(per_class=per_class)
    specs = []
    for token in tokens:
        if token == "all":
            specs.extend(WORKLOADS)
        elif token.startswith("class:"):
            specs.extend(workloads_by_class(token.split(":", 1)[1]))
        elif is_trace_token(token):
            specs.append(workload_from_token(token))
        else:
            specs.append(get_workload(token))
    seen = set()
    unique = []
    for spec in specs:
        if spec.name not in seen:
            seen.add(spec.name)
            unique.append(spec)
    return unique


def _seed(text: str) -> int:
    """argparse type of ``--seed``: trace seeds seed numpy's
    ``default_rng``, which refuses a negative one."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be non-negative, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type of ``sweep --refs`` and ``--max-attempts``: a job
    needs at least one reference and one attempt."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _parse_designs(tokens: Sequence[str]) -> List[DesignRef]:
    """Expand design tokens: registry labels, ``evaluated`` and
    ``module:attr`` factory paths (optionally ``label=module:attr``)."""
    refs = []
    for token in tokens:
        if token == "evaluated":
            refs.extend(DesignRef.of(name) for name in EVALUATED_DESIGNS)
            continue
        label = None
        if "=" in token:
            label, _, token = token.partition("=")
        refs.append(DesignRef.of(token, label=label))
    # Fail fast on registry typos here: under the fault-tolerant engine an
    # unknown label would otherwise be retried and degrade to a JobFailure
    # per job instead of an immediate usage error.  Factory paths are left
    # to the engine: checking one here would import it.
    for ref in refs:
        if ":" not in ref.target:
            check_design(ref.target)
    return refs


def _add_sweep_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="run a design x workload sweep")
    p.add_argument("--designs", nargs="+", default=["evaluated"],
                   help="design labels, 'evaluated', or module:attr factory "
                        "paths (optionally label=module:attr)")
    p.add_argument("--workloads", nargs="+", default=["all"],
                   help="workload names, 'all', or class:<high|medium|low>")
    p.add_argument("--per-class", type=int, default=None,
                   help="use the first N workloads of every MPKI class "
                        "instead of --workloads")
    p.add_argument("--nm-gb", type=int, default=1, choices=(1, 2, 4),
                   help="paper near-memory capacity (default 1)")
    p.add_argument("--fm-gb", type=int, default=16,
                   help="paper far-memory capacity (default 16)")
    p.add_argument("--refs", type=_positive, default=40_000,
                   help="references per run (default 40000)")
    p.add_argument("--scale", type=int, default=256,
                   help="capacity scale denominator (default 256)")
    p.add_argument("--seed", type=_seed, default=1, help="trace seed")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help=f"result-store directory or sqlite:PATH URI "
                        f"(default {default_store_root()})")
    p.add_argument("--no-store", action="store_true",
                   help="disable the persistent result store")
    p.add_argument("--no-baselines", action="store_true",
                   help="skip the no-NM baseline runs (no speedups)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the full sweep as JSON")
    p.add_argument("--strict", action="store_true",
                   help="fail fast on the first exhausted job instead of "
                        "degrading to partial results")
    p.add_argument("--max-attempts", type=_positive, default=None, metavar="N",
                   help="attempts per job before it is recorded as failed "
                        "(default REPRO_SWEEP_MAX_ATTEMPTS or 3)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-job wall-clock timeout; hung workers are "
                        "killed and the job retried (default "
                        "REPRO_SWEEP_TIMEOUT; 0 disables)")
    p.add_argument("--backoff", type=float, default=None, metavar="SECONDS",
                   help="base retry delay, doubled per attempt (default "
                        "REPRO_SWEEP_BACKOFF or 0.5)")


def _cmd_sweep(args: argparse.Namespace) -> int:
    designs = _parse_designs(args.designs)
    workloads = _parse_workloads(args.workloads, args.per_class)
    if not designs or not workloads:
        print("nothing to sweep: no designs or no workloads", file=sys.stderr)
        return 2
    store = None if args.no_store else ResultStore(args.store)
    runner = ExperimentRunner(num_references=args.refs, scale=args.scale,
                              fm_gb=args.fm_gb, seed=args.seed,
                              workers=args.workers, store=store,
                              strict=args.strict,
                              max_attempts=args.max_attempts,
                              timeout=args.timeout, backoff=args.backoff)
    result = runner.sweep(designs, workloads, nm_gb=args.nm_gb,
                          baselines=not args.no_baselines)
    report = runner.last_report
    print(f"sweep: {len(designs)} designs x {len(workloads)} workloads "
          f"(nm {args.nm_gb} GB, {args.refs} refs, seed {args.seed}, "
          f"workers {args.workers})")
    if report is not None:
        print(f"jobs: {report.total} total, {report.simulated} simulated, "
              f"{report.cached} from store"
              + (f", {report.failed} FAILED ({report.attempts} attempts)"
                 if report.failures else ""))
        for failure in report.failures:
            print(f"FAILED: {failure.describe()}", file=sys.stderr)
    if not args.no_baselines:
        for design in result.design_labels():
            by_class = result.class_speedups(design)
            rendered = "  ".join(f"{klass}={by_class[klass]:.3f}"
                                 for klass in (*MPKI_CLASSES, "all")
                                 if klass in by_class)
            print(f"  {design:12s} speedup {rendered}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if result.failures else 0


def _add_bench_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench",
                       help="measure engine refs/sec (perf trajectory)")
    p.add_argument("--refs", type=int, default=60_000,
                   help="references per measurement (default 60000)")
    p.add_argument("--repeat", type=int, default=5,
                   help="measurement rounds: rates are the best round, "
                        "gated ratios the median (default 5)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the benchmark report JSON here (over the "
                        "baseline file, to refresh it)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="compare the ratios (engine rates over a "
                        "calibration loop, design rates over the NULL "
                        "system) against this stored report and fail on "
                        "a drop of more than 30%%")


def _cmd_bench(args: argparse.Namespace) -> int:
    from .sim import perfbench

    payload = perfbench.run_benchmark(refs=args.refs, repeat=args.repeat)
    print(perfbench.render_report(payload))
    if args.out:
        perfbench.write_report(payload, args.out)
        print(f"wrote {args.out}")
    if args.baseline:
        baseline = perfbench.load_report(args.baseline)
        # The gated ratios are interpreter-sensitive (numpy-bound work
        # over a pure-Python calibration loop), so flag runtime skew
        # between this run and the stored baseline before judging it.
        skew = {key: (value, payload["environment"].get(key))
                for key, value in baseline.get("environment", {}).items()
                if payload["environment"].get(key) != value}
        if skew:
            rendered = ", ".join(f"{key} {ours} vs baseline {theirs}"
                                 for key, (theirs, ours) in skew.items())
            print(f"note: runtime differs from baseline ({rendered}); "
                  f"regenerate the baseline on this runtime if the gate "
                  f"misfires", file=sys.stderr)
        failures = perfbench.compare_to_baseline(payload, baseline)
        if baseline.get("schema") == perfbench.BENCH_SCHEMA:
            print(perfbench.render_gate(payload, baseline))
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no perf regression vs {args.baseline} "
              f"(>{perfbench.MAX_REGRESSION:.0%} gate)")
    return 0


def _add_report_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("report",
                       help="regenerate the paper-artifact gallery "
                            "(EXPERIMENTS.md + per-bench artifacts)")
    p.add_argument("--bench", nargs="+", default=None, metavar="NAME",
                   help="bench names to (re)run (default: all 14); the "
                        "gallery keeps benches whose artifacts already "
                        "exist")
    p.add_argument("--list", action="store_true",
                   help="list the bench registry and exit")
    p.add_argument("--refs", type=int, default=None,
                   help="references per run (default REPRO_BENCH_REFS or "
                        "16000)")
    p.add_argument("--per-class", type=int, default=None,
                   help="workloads per MPKI class (default "
                        "REPRO_BENCH_WORKLOADS_PER_CLASS or 2)")
    p.add_argument("--scale", type=int, default=None,
                   help="capacity scale denominator (default 256)")
    p.add_argument("--seed", type=_seed, default=None, help="trace seed")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default REPRO_BENCH_WORKERS or "
                        "one per CPU, max 8)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="result-store directory (default REPRO_BENCH_STORE "
                        "or benchmarks/results/store)")
    p.add_argument("--no-store", action="store_true",
                   help="disable the persistent result store")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="artifact directory (default artifacts/)")
    p.add_argument("--gallery", default=None, metavar="FILE",
                   help="gallery path (default EXPERIMENTS.md)")
    p.add_argument("--strict", action="store_true",
                   help="fail fast: re-raise the first bench failure "
                        "instead of writing a failure artifact and "
                        "continuing (also REPRO_STRICT=1)")


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import (DEFAULT_GALLERY, DEFAULT_OUT_DIR, ReportSettings,
                         all_benches, generate_report)

    if args.list:
        for spec in all_benches():
            print(f"{spec.name:8s} {spec.paper_ref:40s} {spec.title}")
        return 0
    settings = ReportSettings.from_env(
        refs=args.refs, per_class=args.per_class, scale=args.scale,
        seed=args.seed, workers=args.workers, store=args.store,
        strict=args.strict or None)
    if args.no_store:
        settings.store = None
    summary = generate_report(
        args.bench, settings=settings,
        out_dir=args.out_dir or DEFAULT_OUT_DIR,
        gallery=args.gallery or DEFAULT_GALLERY, log=print)
    for bench, status in summary["benches"].items():
        print(f"  {bench:8s} {status}")
    jobs = summary["jobs"]
    print(f"jobs: {jobs['total']} total, {jobs['simulated']} simulated, "
          f"{jobs['cached']} from store")
    print(f"wrote {summary['gallery']} and {len(summary['benches'])} "
          f"artifact(s) under {summary['out_dir']} "
          f"({summary['flagged']} deviation(s) beyond tolerance)")
    for bench, error in summary["check_failures"].items():
        print(f"SANITY CHECK FAILED [{bench}]: {error}", file=sys.stderr)
    for bench, error in summary["failed"].items():
        print(f"BENCH FAILED [{bench}]: {error}", file=sys.stderr)
    return 1 if summary["check_failures"] or summary["failed"] else 0


def _add_trace_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("trace",
                       help="convert, inspect and transform external "
                            "trace files (repro.trace)")
    actions = p.add_subparsers(dest="action", required=True)

    convert = actions.add_parser(
        "convert", help="parse a text trace and build its content-hashed "
                        "mmap cache (a second load is milliseconds)")
    convert.add_argument("source", help="trace file (TSV, gzip TSV, or CSV)")
    convert.add_argument("--force", action="store_true",
                         help="rebuild the cache even when it is valid")
    convert.add_argument("--json", action="store_true",
                         help="print a machine-readable summary")

    inspect = actions.add_parser(
        "inspect", help="summarise a trace: records, footprint, "
                        "read/write mix, per-core histogram")
    inspect.add_argument("source", help="trace file")
    inspect.add_argument("--no-cache", action="store_true",
                         help="re-parse the text even when a cache exists "
                              "(and do not write one)")
    inspect.add_argument("--json", action="store_true",
                         help="print the summary as JSON")

    subsample = actions.add_parser(
        "subsample", help="write a reduced trace (--first N records "
                          "and/or every K-th record per core)")
    subsample.add_argument("source", help="trace file")
    subsample.add_argument("--out", required=True, metavar="FILE",
                           help="output trace (*.csv[.gz] for the CSV "
                                "dialect, anything else TSV)")
    subsample.add_argument("--first", type=int, default=None, metavar="N",
                           help="keep the first N records")
    subsample.add_argument("--every", type=int, default=None, metavar="K",
                           help="keep every K-th record per core, folding "
                                "dropped records into the gaps")
    subsample.add_argument("--json", action="store_true")

    interleave = actions.add_parser(
        "interleave", help="round-robin merge single-core traces into one "
                           "multi-core CSV trace (source i becomes core i)")
    interleave.add_argument("sources", nargs="+",
                            help="single-core trace files, one per core")
    interleave.add_argument("--out", required=True, metavar="FILE",
                            help="output trace (*.csv[.gz]; the merged "
                                 "trace is multi-core)")
    interleave.add_argument("--json", action="store_true")


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import trace as tracemod

    if args.action == "convert":
        if args.force:
            tracemod.drop_cache(args.source)
        _, info = tracemod.load_trace_info(args.source)
        payload = {"path": info.path, "content_hash": info.content_hash,
                   "records": info.records, "from_cache": info.from_cache,
                   "cache_dir": str(tracemod.cache_dir_for(args.source))}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            verb = ("cache already valid" if info.from_cache
                    else "built cache")
            print(f"{verb} for {info.path}: {info.records} records, "
                  f"sha256 {info.content_hash[:12]}… "
                  f"-> {payload['cache_dir']}")
        return 0

    if args.action == "inspect":
        if args.no_cache:
            trace = tracemod.parse_trace(args.source)
            info = None
        else:
            trace, info = tracemod.load_trace_info(args.source)
        payload = tracemod.inspect_trace(trace, info)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            cores = ", ".join(f"core {c}: {n}"
                              for c, n in payload["cores"].items())
            print(f"{args.source}: {payload['records']} records, "
                  f"{payload['instructions']} instructions, "
                  f"mpki {payload['mpki']}, "
                  f"write fraction {payload['write_fraction']:.3f}, "
                  f"footprint {payload['footprint_bytes']} B")
            print(f"  {cores}")
            if info is not None:
                source = "cache" if info.from_cache else "text parse"
                print(f"  sha256 {info.content_hash[:12]}… "
                      f"(loaded from {source})")
        return 0

    if args.action == "subsample":
        trace = tracemod.load_trace(args.source)
        reduced = tracemod.subsample(trace, first=args.first,
                                     every=args.every)
        tracemod.write_trace(reduced, args.out)
        payload = {"source": args.source, "out": args.out,
                   "records_in": len(trace), "records_out": len(reduced)}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"wrote {args.out}: {len(reduced)} of {len(trace)} "
                  f"records")
        return 0

    # interleave
    traces = [tracemod.load_trace(source) for source in args.sources]
    merged = tracemod.interleave_traces(traces)
    tracemod.write_trace(merged, args.out)
    payload = {"sources": list(args.sources), "out": args.out,
               "cores": len(traces), "records": len(merged)}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"wrote {args.out}: {len(merged)} records over "
              f"{len(traces)} cores")
    return 0


def _add_serve_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve",
                       help="serve the result store, bench registry and "
                            "job queue over HTTP (repro.serve)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port; 0 picks an ephemeral port "
                        "(default 8765)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help=f"result-store directory or sqlite:PATH URI "
                        f"(default {default_store_root()})")
    p.add_argument("--workers", type=int, default=1,
                   help="job-queue worker threads (default 1)")
    p.add_argument("--read-only", action="store_true",
                   help="open the store read-only and disable job "
                        "submission (safe beside live sweep writers)")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="bench-artifact directory served by /v1/charts "
                        "and /v1/benches/<name> (default artifacts/)")
    p.add_argument("--cache-size", type=int, default=128,
                   help="response-cache entries (default 128)")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeApp, make_server

    app = ServeApp(args.store, read_only=args.read_only,
                   queue_workers=args.workers,
                   cache_capacity=args.cache_size,
                   artifacts_dir=args.artifacts)
    server = make_server(app, args.host, args.port)
    host, port = server.server_address[:2]
    mode = "read-only" if app.read_only else "read-write"
    print(f"repro serve {package_version()}: http://{host}:{port} "
          f"(store {app.store.root} [{app.store.backend.kind}, {mode}], "
          f"artifacts {app.artifacts_dir})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:           # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        app.close()
    return 0


def _add_serve_bench_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve-bench",
                       help="drive the serve layer with the load "
                            "generator and write BENCH_serve.json")
    p.add_argument("--url", default=None, metavar="URL",
                   help="measure a running server instead of starting "
                        "an in-process one")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="store for the in-process server (ignored with "
                        "--url)")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="artifact directory for the in-process server")
    p.add_argument("--warm", type=int, default=5,
                   help="conditional re-requests per endpoint "
                        "(default 5)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the benchmark payload JSON here")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="gate structural metrics against this stored "
                        "baseline")


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import threading

    from .serve import ServeApp, make_server
    from .serve import loadgen

    app = server = thread = None
    url = args.url
    if url is None:
        app = ServeApp(args.store, artifacts_dir=args.artifacts)
        server = make_server(app, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
    try:
        payload = loadgen.run_loadgen(url, warm_requests=args.warm)
    finally:
        if server is not None:
            server.shutdown()
            thread.join(timeout=5.0)
            server.server_close()
            app.close()
    print(f"serve-bench {url}: {payload['requests']} requests, "
          f"{payload['errors']} error(s), {payload['rps']} req/s, "
          f"warm 304 ratio {payload['warm_304_ratio']}")
    for alias, entry in sorted(payload["endpoints"].items()):
        print(f"  {alias:24s} cold {entry['cold_status']} "
              f"{entry['cold_ms']:8.2f} ms   warm p50 "
              f"{entry['warm_p50_ms']:7.2f} ms  p95 "
              f"{entry['warm_p95_ms']:7.2f} ms")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = loadgen.compare_to_baseline(payload, baseline)
        if failures:
            for failure in failures:
                print(f"SERVE REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no structural regression vs {args.baseline}")
    return 0


def _add_apidoc_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("apidoc",
                       help="generate docs/api.md from the baselines "
                            "docstrings")
    p.add_argument("--out", default="docs/api.md", metavar="FILE",
                   help="output path (default docs/api.md)")
    p.add_argument("--check", action="store_true",
                   help="verify the file matches the docstrings instead "
                        "of writing it")


def _cmd_apidoc(args: argparse.Namespace) -> int:
    from .report import apidoc

    if args.check:
        if apidoc.check_api_doc(args.out):
            print(f"{args.out} is up to date")
            return 0
        print(f"{args.out} is stale; regenerate with "
              f"`python -m repro apidoc --out {args.out}`", file=sys.stderr)
        return 1
    apidoc.write_api_doc(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_designs(args: argparse.Namespace) -> int:
    if args.json:
        from .serve.schemas import design_entries

        print(json.dumps({"designs": design_entries()}, indent=2,
                         sort_keys=True))
        return 0
    for name in DESIGN_FACTORIES:
        marker = "*" if name in EVALUATED_DESIGNS else " "
        print(f"{marker} {name}")
    print("(* = evaluated in the paper's main figures)")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    if args.json:
        from .serve.schemas import workload_entries

        print(json.dumps({"workloads": workload_entries(args.mpki_class)},
                         indent=2, sort_keys=True))
        return 0
    specs = (workloads_by_class(args.mpki_class) if args.mpki_class
             else WORKLOADS)
    for spec in specs:
        print(f"{spec.name:12s} {spec.suite:4s} {spec.mpki_class:6s} "
              f"mpki={spec.mpki:<6g} footprint={spec.footprint_gb}GB")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.action == "fsck":
        report = store.fsck(repair=args.repair,
                            quarantine=not args.no_quarantine,
                            purge_quarantine=args.purge_quarantine)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
            return 0 if report.clean else 1
        print(report.summary())
        for issue in report.issues:
            detail = issue.status
            if issue.repaired:
                detail += ", repaired"
            elif issue.quarantined_to is not None:
                detail += f", quarantined to {issue.quarantined_to}"
            if issue.error:
                detail += f" ({issue.error})"
            print(f"  {issue.key}: {detail}", file=sys.stderr)
        return 0 if report.clean else 1
    if args.action == "stats":
        stats = store.stats_dict()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"store {stats['root']} ({stats['backend']}"
              + (", read-only" if stats["read_only"] else "") + ")")
        for field in ("cells", "ok", "stale", "corrupt", "unreadable",
                      "quarantined_cells", "quarantine_bytes"):
            print(f"  {field:18s} {stats[field]}")
        return 0
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} cached results from {store.root}")
    else:
        quarantined, _ = store.quarantine_stats()
        print(f"store {store.root} ({store.backend.kind}): "
              f"{len(store)} cached results"
              + (f", {quarantined} quarantined cell(s)"
                 if quarantined else ""))
    return 0


class _VersionAction(argparse.Action):
    """``--version``, which reads the package metadata only when given
    (importing ``importlib.metadata`` would slow every other command)."""

    def __init__(self, option_strings: Sequence[str], dest: str,
                 help: Optional[str] = None) -> None:
        super().__init__(option_strings, dest, nargs=0,
                         default=argparse.SUPPRESS, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"repro {package_version()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid2 reproduction: parallel design-space sweeps")
    parser.add_argument("--version", action=_VersionAction,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_sweep_parser(sub)
    _add_bench_parser(sub)
    _add_report_parser(sub)
    _add_trace_parser(sub)
    _add_serve_parser(sub)
    _add_serve_bench_parser(sub)
    _add_apidoc_parser(sub)
    p_designs = sub.add_parser("designs", help="list the design registry")
    p_designs.add_argument("--json", action="store_true",
                           help="emit the /v1/designs JSON schema")
    p_workloads = sub.add_parser("workloads",
                                 help="list the Table 2 workload catalog")
    p_workloads.add_argument("--class", dest="mpki_class", default=None,
                             choices=MPKI_CLASSES)
    p_workloads.add_argument("--json", action="store_true",
                             help="emit the /v1/workloads JSON schema")
    p_store = sub.add_parser(
        "store", help="inspect, clear or fsck the result store "
                      "or print its stats")
    p_store.add_argument("action", nargs="?", default=None,
                         choices=("fsck", "stats"),
                         help="fsck: verify every cell's checksum and "
                              "quarantine corruption; "
                              "stats: cell-health summary")
    p_store.add_argument("--store", default=None, metavar="DIR",
                         help="store directory or sqlite:PATH URI "
                              "(default REPRO_STORE or .repro-store)")
    p_store.add_argument("--clear", action="store_true")
    p_store.add_argument("--repair", action="store_true",
                         help="fsck: re-simulate corrupted cells from their "
                              "embedded job specs")
    p_store.add_argument("--no-quarantine", action="store_true",
                         help="fsck: leave corrupted cells in place instead "
                              "of quarantining them")
    p_store.add_argument("--purge-quarantine", action="store_true",
                         help="fsck: delete every quarantined post-mortem "
                              "copy after the scan")
    p_store.add_argument("--json", action="store_true",
                         help="fsck/stats: print the full report "
                              "as JSON instead of a summary line")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "serve-bench": _cmd_serve_bench,
        "apidoc": _cmd_apidoc,
        "designs": _cmd_designs,
        "workloads": _cmd_workloads,
        "store": _cmd_store,
    }
    try:
        return handlers[args.command](args)
    except SweepExecutionError as exc:
        # --strict fail-fast: the first exhausted job aborts the command.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        # Unknown designs/workloads and malformed options raise with a
        # message that already names the valid choices.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
