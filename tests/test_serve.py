"""Tests for the results-serving layer (``repro.serve``).

Covers the transport-agnostic app (routing, response cache, ETags, job
queue) and one true end-to-end pass over a real
``ThreadingHTTPServer``: POST a job against an empty store, long-poll
its events to completion, GET the produced cell and its SVG chart,
verify dedup (a repeated identical POST must not simulate again) and
conditional-request ``304`` behaviour.
"""

import contextlib
import copy
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import package_version
from repro.cli import main
from repro.params import make_config
from repro.report.artifacts import write_artifact
from repro.report.registry import BenchResult, Table, get_bench
from repro.serve import JobSpecError, ResponseCache, ServeApp, make_server
from repro.serve.app import MAX_BODY_BYTES, _RequestHandler
from repro.serve.jobqueue import JobQueue
from repro.serve.respcache import CacheEntry, etag_of
from repro.serve.router import Router
from repro.sim.faults import corrupt_store_cell
from repro.sim.simulator import RunResult
from repro.sim.store import (STORE_FORMAT, ResultStore, SqliteBackend,
                             _canonical, _text_checksum)
from repro.sim.sweep import DesignRef, SweepJob
from repro.stats import Stats
from repro.workloads import get_workload

REFS = 300
JOB = {"design": "HYBRID2", "workload": "mcf", "refs": REFS,
       "scale": 1024}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def make_app(tmp_path, **kwargs):
    kwargs.setdefault("artifacts_dir", tmp_path / "artifacts")
    return ServeApp(tmp_path / "store", **kwargs)


def body_of(response):
    return json.loads(response.body.decode())


def sample_result(cycles=1.0):
    return RunResult(
        design="HYBRID2", workload="mcf", cycles=cycles, instructions=10,
        references=5, nm_service_ratio=0.5, nm_traffic_bytes=64.0,
        fm_traffic_bytes=128.0, energy_pj=1.0, flat_capacity_bytes=1 << 20,
        stats=Stats())


def write_verified(store, key, result):
    """Store any JSON ``result`` under ``key`` with a matching checksum."""
    write_verified_text(store, key, _canonical(result))


def write_verified_text(store, key, text):
    """Store result ``text`` under ``key`` with a matching checksum."""
    store.backend.insert([(key, STORE_FORMAT, _text_checksum(None, text),
                           None, text)])


#: Checksum-valid result bodies with a JSON array where a run result has
#: an object: the result itself, or its stats.
ARRAY_RESULTS = ([1, 2], dict(sample_result().as_dict(), stats=[1.0]))

#: A checksum-valid result body holding a number no chart can draw.
INFINITE_RESULT = dict(sample_result().as_dict(),
                       fm_traffic_bytes=float("inf"))


def corrupt_cell_body(key):
    return {"error": f"cell {key} is corrupt", "key": key,
            "status": "corrupt"}


def wait_terminal(app, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    after = 0
    names = []
    while time.monotonic() < deadline:
        record, events = app.queue.wait_events(job_id, after=after,
                                               timeout=2.0)
        names.extend(e["event"] for e in events)
        after = max([e["seq"] for e in events], default=after)
        if record.status in ("done", "failed", "cached"):
            return record, names
    raise AssertionError(f"job {job_id} never finished")


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------
def test_router_distinguishes_404_from_405():
    router = Router()
    router.get(r"/x/(?P<name>\w+)", lambda *a: "get")
    router.post(r"/x/(?P<name>\w+)", lambda *a: "post")
    hit = router.match("GET", "/x/abc")
    assert hit.found and hit.params == {"name": "abc"}
    miss = router.match("GET", "/nope")
    assert not miss.found and miss.allowed == ()
    wrong = router.match("DELETE", "/x/abc")
    assert not wrong.found and set(wrong.allowed) == {"GET", "POST"}
    # Patterns are anchored: a suffix must not match.
    assert not router.match("GET", "/x/abc/extra").found


# ---------------------------------------------------------------------------
# response cache
# ---------------------------------------------------------------------------
def test_respcache_lru_eviction_and_stats():
    cache = ResponseCache(capacity=2)
    for path in ("/a", "/b", "/c"):
        cache.put(path, CacheEntry(body=path.encode(), content_type="t",
                                   etag=etag_of(path.encode())))
    assert len(cache) == 2
    assert cache.get("/a") is None          # evicted, oldest first
    assert cache.get("/c").body == b"/c"
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_respcache_source_revalidation(tmp_path):
    from repro.serve.respcache import source_sig

    source = tmp_path / "artifact.json"
    source.write_text("one")
    cache = ResponseCache()
    cache.put("/p", CacheEntry(body=b"one", content_type="t",
                               etag='"x"',
                               sources=(source_sig(str(source)),)))
    assert cache.get("/p") is not None
    source.write_text("two!")               # size changed -> sig changed
    assert cache.get("/p") is None
    assert cache.stats.revalidation_evictions == 1


def test_respcache_absent_source_invalidates_on_appearance(tmp_path):
    from repro.serve.respcache import source_sig

    source = tmp_path / "later.json"
    cache = ResponseCache()
    cache.put("/p", CacheEntry(body=b"none", content_type="t",
                               etag='"x"',
                               sources=(source_sig(str(source)),)))
    assert cache.get("/p") is not None
    source.write_text("now it exists")
    assert cache.get("/p") is None


# ---------------------------------------------------------------------------
# app-level read path
# ---------------------------------------------------------------------------
def test_health_and_version_header(tmp_path):
    app = make_app(tmp_path)
    try:
        response = app.handle("GET", "/v1/health")
        assert response.status == 200
        assert response.headers["X-Repro-Version"] == package_version()
        payload = body_of(response)
        assert payload["status"] == "ok"
        assert payload["store"]["cells"] == 0
        assert payload["jobs"]["workers"] == 1
    finally:
        app.close()


@pytest.mark.parametrize("cells", [1_000, 10_000])
def test_listing_and_health_cost_no_store_read(tmp_path, monkeypatch, cells):
    """On an unchanged store, listings and health calls read no row, at
    1,000 cells as at 10,000; a job's write reads no more than its own
    probes; ``?deep=1`` and ``fsck()`` still classify every row."""
    app = make_app(tmp_path)
    result = sample_result()
    app.store.backend.insert([ResultStore._cell_row(f"{i:064x}", result,
                                                    None)
                              for i in range(cells)])
    calls = {"_classify": 0, "probe_many": 0}
    for name in calls:
        def counting(*args, _name=name, _unpatched=getattr(ResultStore,
                                                           name), **kw):
            calls[_name] += 1
            return _unpatched(*args, **kw)
        monkeypatch.setattr(ResultStore, name, counting)
    backend = app.store.backend

    def store_stats(target="/v1/health"):
        response = app.handle("GET", target)
        assert response.status == 200
        return body_of(response)["store"]

    try:
        assert store_stats()["ok"] == cells          # the cold scan
        assert calls["_classify"] == cells
        queries = backend.select_queries
        for page in range(20):
            listing = body_of(app.handle(
                "GET", f"/v1/cells?offset={page * 50}&limit=50"))
            assert listing["total"] == cells
            assert listing["keys"] == [f"{i:064x}" for i in
                                       range(page * 50, page * 50 + 50)]
            assert store_stats()["ok"] == cells
        assert backend.select_queries == queries
        assert calls["_classify"] == cells

        response = app.handle("POST", "/v1/jobs",
                              body=json.dumps(JOB).encode())
        assert response.status == 202
        record, _ = wait_terminal(app, body_of(response)["job"]["id"])
        assert record.status == "done"
        assert store_stats()["ok"] == cells + 1
        assert body_of(app.handle("GET", "/v1/cells"))["total"] == cells + 1
        # The job read the store only through its one-key probes.
        assert backend.select_queries - queries == calls["probe_many"]

        calls["_classify"] = 0
        assert store_stats("/v1/health?deep=1") == store_stats()
        assert calls["_classify"] == cells + 1
        assert app.store.fsck().scanned == cells + 1
        assert calls["_classify"] == 2 * (cells + 1)
        assert app.handle("GET", "/v1/health?deep=yes").status == 400
    finally:
        app.close()


def test_listings_and_errors(tmp_path):
    app = make_app(tmp_path)
    try:
        designs = body_of(app.handle("GET", "/v1/designs"))["designs"]
        assert {d["name"] for d in designs} >= {"HYBRID2", "BASELINE"}
        workloads = body_of(
            app.handle("GET", "/v1/workloads?class=high"))["workloads"]
        assert len(workloads) == 10
        assert app.handle("GET", "/v1/workloads?class=nope").status == 400
        benches = body_of(app.handle("GET", "/v1/benches"))["benches"]
        assert len(benches) == 13
        assert app.handle("GET", "/v1/benches/perf").status == 404
        assert app.handle("GET", "/v1/nope").status == 404
        method = app.handle("DELETE", "/v1/designs")
        assert method.status == 405 and "GET" in method.headers["Allow"]
    finally:
        app.close()


def test_listings_share_schema_with_cli_json(tmp_path, capsys):
    app = make_app(tmp_path)
    try:
        assert main(["designs", "--json"]) == 0
        cli_designs = json.loads(capsys.readouterr().out)
        assert cli_designs == body_of(app.handle("GET", "/v1/designs"))
        assert main(["workloads", "--json"]) == 0
        cli_workloads = json.loads(capsys.readouterr().out)
        assert cli_workloads == body_of(app.handle("GET", "/v1/workloads"))
    finally:
        app.close()


def test_bench_detail_and_artifact(tmp_path):
    app = make_app(tmp_path)
    try:
        spec = get_bench("fig12")
        detail = body_of(app.handle("GET", "/v1/benches/fig12"))
        assert detail["name"] == "fig12"
        assert detail["artifact"] is None
        assert detail["expectations"], "bench slices carry expectations"
        assert app.handle("GET", "/v1/benches/nope").status == 404

        # Generating the artifact invalidates the cached response even
        # though the path is unchanged (absent-source fingerprint).
        result = BenchResult(name=spec.slug, tables=[
            Table(title="t", columns=["k", "v"], rows=[["a", 1.0]],
                  slug="t", chart="bar")])
        write_artifact(spec, result, [], {}, tmp_path / "artifacts")
        detail = body_of(app.handle("GET", "/v1/benches/fig12"))
        assert detail["artifact"]["bench"] == "fig12"

        chart = app.handle("GET", "/v1/charts/fig12.svg")
        assert chart.status == 200
        assert chart.content_type == "image/svg+xml"
        assert chart.body.startswith(b"<svg")
        assert app.handle("GET", "/v1/charts/fig15.svg").status == 404
    finally:
        app.close()


def test_etag_roundtrip_cold_200_then_304(tmp_path):
    app = make_app(tmp_path)
    try:
        cold = app.handle("GET", "/v1/designs")
        assert cold.status == 200
        etag = cold.headers["ETag"]
        warm = app.handle("GET", "/v1/designs",
                          headers={"If-None-Match": etag})
        assert warm.status == 304 and warm.body == b""
        assert warm.headers["ETag"] == etag
        mismatch = app.handle("GET", "/v1/designs",
                              headers={"If-None-Match": '"other"'})
        assert mismatch.status == 200
        assert app.cache.stats.hits >= 2
    finally:
        app.close()


def test_cell_miss_and_malformed_key(tmp_path):
    app = make_app(tmp_path)
    try:
        missing = app.handle("GET", f"/v1/cells/{'0' * 64}")
        assert missing.status == 404
        assert body_of(missing)["status"] == "miss"
        # Not 64-hex: no route matches at all.
        assert app.handle("GET", "/v1/cells/abc").status == 404
    finally:
        app.close()


def test_cell_get_reads_the_backend_once(tmp_path):
    """An uncached ``GET /v1/cells/<key>`` verifies the cell and serves
    its checksum and job description from one backend select."""
    app = ServeApp(f"sqlite:{tmp_path / 'store'}",
                   artifacts_dir=tmp_path / "artifacts")
    try:
        keys = [f"{i:064x}" for i in (1, 2)]
        for cycles, key in enumerate(keys):
            result = RunResult(
                design="HYBRID2", workload="mcf", cycles=float(cycles),
                instructions=10, references=5, nm_service_ratio=0.5,
                nm_traffic_bytes=64.0, fm_traffic_bytes=128.0, energy_pj=1.0,
                flat_capacity_bytes=1 << 20, stats=Stats())
            app.store.put(key, result, job={"design": "HYBRID2"})
        backend = app.store.backend
        for key in keys:
            before = backend.select_queries
            response = app.handle("GET", f"/v1/cells/{key}")
            assert backend.select_queries - before == 1
            cell = body_of(response)
            assert response.status == 200 and cell["status"] == "ok"
            assert cell["checksum"] == \
                app.store.backend.fetch_many([key])[key][1]
            assert cell["job"] == {"design": "HYBRID2"}
            before = backend.select_queries
            assert app.handle("GET", f"/v1/cells/{key}").status == 200
            assert backend.select_queries == before      # response cache
    finally:
        app.close()


@pytest.mark.parametrize("backend", ["sqlite"])
@pytest.mark.parametrize("body", ARRAY_RESULTS + (INFINITE_RESULT,),
                         ids=["result", "stats", "infinite"])
def test_array_result_cell_is_served_as_corrupt(tmp_path, backend, body):
    app = ServeApp(f"{backend}:{tmp_path / 'store'}",
                   artifacts_dir=tmp_path / "artifacts")
    try:
        healthy, broken = f"{1:064x}", f"{2:064x}"
        app.store.put(healthy, sample_result())
        write_verified(app.store, broken, body)
        listing = body_of(app.handle("GET", "/v1/cells"))
        assert (listing["total"], listing["keys"]) == (1, [healthy])
        store = body_of(app.handle("GET", "/v1/health"))["store"]
        assert (store["ok"], store["corrupt"]) == (1, 1)
        response = app.handle("GET", f"/v1/cells/{broken}")
        assert response.status == 500
        assert body_of(response) == corrupt_cell_body(broken)
        assert app.handle("GET", f"/v1/charts/{broken}.svg").status == 404
    finally:
        app.close()


@pytest.fixture(scope="module")
def mixed_app(tmp_path_factory):
    """A read-only app over healthy, stale and corrupt cells, among them
    checksum-valid ones whose result is an array, has stats that are one,
    holds an integer no float holds or an infinity, is missing, or nests
    deeper than the JSON decoder recurses, and one whose job text does not
    decode."""
    root = tmp_path_factory.mktemp("mixed") / "store"
    store = ResultStore(f"sqlite:{root}")
    keys = {"ok": f"{1:064x}", "stale": f"{2:064x}", "corrupt": f"{3:064x}",
            "array": f"{4:064x}", "array_stats": f"{5:064x}",
            "huge": f"{6:064x}", "no_result": f"{7:064x}",
            "infinite": f"{8:064x}", "deep": f"{9:064x}",
            "bad_job": f"{10:064x}"}
    for name, key in keys.items():
        store.put(key, sample_result(cycles=float(len(name))))
    store.backend.insert([(keys["stale"], -1, None, None, "{}")])
    corrupt_store_cell(store, keys["corrupt"])
    write_verified(store, keys["array"], ARRAY_RESULTS[0])
    write_verified(store, keys["array_stats"], ARRAY_RESULTS[1])
    write_verified(store, keys["huge"],
                   dict(sample_result().as_dict(), fm_traffic_bytes=10 ** 400))
    write_verified(store, keys["infinite"], INFINITE_RESULT)
    store.backend.insert([(keys["no_result"], STORE_FORMAT,
                           _text_checksum(None, "null"), None, None)])
    write_verified_text(store, keys["deep"], "[" * 100_000)
    text = _canonical(sample_result().as_dict())
    store.backend.insert([(keys["bad_job"], STORE_FORMAT,
                           _text_checksum("{not json", text), "{not json",
                           text)])
    store.backend.close()
    app = ServeApp(root, read_only=True,
                   artifacts_dir=tmp_path_factory.mktemp("artifacts"))
    yield app, keys
    app.close()


query_values = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.text(max_size=8),
    st.sampled_from(["", "\x00", "1\x00", "%00", "nan", "1e3", "0x10",
                     " 7 ", "+3", "9" * 5000]))
query_strings = st.lists(
    st.tuples(st.sampled_from(["offset", "limit", "x"]), query_values),
    max_size=4).map(lambda pairs: "&".join(f"{k}={v}" for k, v in pairs))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_get_fuzz_never_answers_an_undocumented_5xx(mixed_app, data):
    app, keys = mixed_app
    name = data.draw(st.one_of(st.sampled_from(sorted(keys.values())),
                               st.just("f" * 64), st.text(max_size=70)))
    target = data.draw(st.sampled_from([
        "/v1/cells?" + data.draw(query_strings),
        f"/v1/cells/{name}",
        f"/v1/charts/{name}.svg",
        "/v1/health",
    ]))
    response = app.handle("GET", target)
    if response.status >= 500:
        # The one documented 5xx: a verified-bad cell asked for by key.
        corrupt = (keys["corrupt"], keys["array"], keys["array_stats"],
                   keys["huge"], keys["no_result"], keys["infinite"],
                   keys["deep"], keys["bad_job"])
        assert target in {f"/v1/cells/{key}" for key in corrupt}
        assert response.status == 500
        assert body_of(response) == corrupt_cell_body(name)
    elif response.content_type == "application/json":
        body_of(response)                 # every answer is a JSON document
    if target.startswith("/v1/cells?") and response.status == 200:
        listing = body_of(response)
        assert listing["total"] == 1
        assert listing["keys"] == [keys["ok"]][listing["offset"]:][
            :listing["limit"]]


@pytest.fixture(scope="module")
def jobs_app(tmp_path_factory):
    """A writable app whose job queue never runs a job (its worker threads
    exit at once), holding one finished job: a submission cached in the
    store."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JobQueue, "_worker", lambda self: None)
        app = ServeApp(tmp_path_factory.mktemp("jobs") / "store",
                       artifacts_dir=tmp_path_factory.mktemp("artifacts"))
    app.store.put(app.queue._job_from_payload(JOB).cache_key(),
                  sample_result())
    record, deduped = app.queue.submit(JOB)
    assert deduped and record.status == "cached"
    yield app, record.id
    app.close()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner,
                                     max_size=3)),
    max_leaves=6)
#: JSON text for a drawn value, or a number token Python's parser reads
#: as an infinity or NaN.
json_tokens = st.one_of(
    st.sampled_from(["1e999", "-1e999", "NaN", "Infinity"]),
    json_values.map(json.dumps))
SHORTHAND = dict(JOB, nm_gb=1, fm_gb=16, seed=1, num_cores=None,
                 priority=0)


def _field_paths(spec):
    """Every top-level field of a spec and every field one level in."""
    paths = []
    for name, value in sorted(spec.items()):
        paths.append((name,))
        if isinstance(value, dict):
            paths.extend((name, inner) for inner in sorted(value))
    return paths


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_post_fuzz_never_answers_a_5xx(jobs_app, data):
    app, finished = jobs_app
    spec = app.queue._job_from_payload(JOB).spec_dict()
    body, path = data.draw(st.one_of(
        st.sampled_from(sorted(SHORTHAND)).map(
            lambda name: (copy.deepcopy(SHORTHAND), (name,))),
        st.sampled_from(_field_paths(spec)).map(
            lambda path: ({"spec": copy.deepcopy(spec)}, ("spec",) + path))))
    holder = body
    for name in path[:-1]:
        holder = holder[name]
    holder[path[-1]] = "\x00drawn"
    text = json.dumps(body).replace(json.dumps("\x00drawn"),
                                    data.draw(json_tokens))
    job_id = data.draw(st.one_of(
        st.just(finished),
        st.integers(10 ** 4, 10 ** 30).map(lambda n: f"job-{n}"),
        st.text(max_size=12)))
    after, wait = (data.draw(st.one_of(
        query_values, st.sampled_from(["1e999", "inf", "-1", "nan"])))
        for _ in range(2))
    for method, target, payload in (
            ("POST", "/v1/jobs", text.encode()),
            ("GET", f"/v1/jobs/{job_id}", b""),
            ("GET", f"/v1/jobs/{job_id}/events?after={after}&wait={wait}",
             b"")):
        response = app.handle(method, target, body=payload)
        assert response.status < 500, (target, text, body_of(response))
        assert response.content_type == "application/json"
        answer = body_of(response)        # every answer is a JSON document
        if method == "POST" and response.status < 300:
            # An accepted job is one the engine can run: num_cores is
            # null or a core count the references can be split over, and
            # the seed is one numpy's default_rng accepts.
            accepted = answer["job"]["spec"]
            cores = accepted["num_cores"]
            assert cores is None or (
                type(cores) is int
                and 1 <= cores <= accepted["num_references"]), text
            assert type(accepted["seed"]) is int, text
            assert accepted["seed"] >= 0, text


def test_post_reproducers_answer_400(jobs_app):
    app, _ = jobs_app
    spec = app.queue._job_from_payload(JOB).spec_dict()
    bodies = [json.dumps(SHORTHAND).replace(f'"{name}": {value}',
                                            f'"{name}": 1e999')
              for name, value in (("refs", REFS), ("seed", 1),
                                  ("priority", 0), ("nm_gb", 1),
                                  ("fm_gb", 16), ("scale", 1024))]
    assert all(text.count("1e999") == 1 for text in bodies)
    for field, value in (("num_references", "x"), ("num_references", []),
                         ("workload", "mcf")):
        bodies.append(json.dumps({"spec": dict(spec, **{field: value})}))
    # num_cores: not an integer, not positive, more cores than references
    # (300 refs), and a count the worker would loop over core by core.
    for cores in ("x", -3, 2000, 10 ** 12):
        bodies.append(json.dumps(dict(SHORTHAND, num_cores=cores)))
        bodies.append(json.dumps({"spec": dict(spec, num_cores=cores)}))
    # A negative seed, which numpy's default_rng refuses.
    bodies.append(json.dumps(dict(SHORTHAND, seed=-1)))
    bodies.append(json.dumps({"spec": dict(spec, seed=-1)}))
    # A config with a field the model does not have (the SRAM ``l1`` of an
    # older layout) or without one it needs.
    for config in (dict(spec["config"], l1={"size_bytes": 65536}),
                   {k: v for k, v in spec["config"].items() if k != "far"}):
        bodies.append(json.dumps({"spec": dict(spec, config=config)}))
    # JSON nested deeper than the decoder recurses, under the body limit.
    bodies.append("[" * 100_000)
    for text in bodies:
        response = app.handle("POST", "/v1/jobs", body=text.encode())
        assert response.status == 400, (text, body_of(response))


# ---------------------------------------------------------------------------
# write path (app level)
# ---------------------------------------------------------------------------
def test_job_submit_validation(tmp_path):
    app = make_app(tmp_path)
    try:
        bad = app.handle("POST", "/v1/jobs", body=b"not json")
        assert bad.status == 400
        unknown = app.handle(
            "POST", "/v1/jobs",
            body=json.dumps({"design": "NOPE", "workload": "mcf"}).encode())
        assert unknown.status == 400
        assert "NOPE" in body_of(unknown)["error"]
        with pytest.raises(JobSpecError):
            app.queue.submit({"design": "HYBRID2", "workload": "mcf",
                              "refs": 10 ** 9})
        # A non-positive count answers the service's own message in both
        # submission forms, not the job's.
        spec = SweepJob(DesignRef.of("HYBRID2"), get_workload("mcf"),
                        make_config(scale=1024), 2000, 1).spec_dict()
        for body in ({"design": "HYBRID2", "workload": "mcf", "refs": 0},
                     {"spec": dict(spec, num_references=-3)}):
            refused = app.handle("POST", "/v1/jobs",
                                 body=json.dumps(body).encode())
            assert refused.status == 400
            assert body_of(refused)["error"].startswith("refs must be in "
                                                        "1..1000000 (got ")
        with pytest.raises(JobSpecError):
            app.queue.submit({"design": "HYBRID2", "workload": "mcf",
                              "bogus_field": 1})
    finally:
        app.close()


def test_read_only_server_disables_write_path(tmp_path):
    (tmp_path / "store").mkdir()
    app = make_app(tmp_path, read_only=True)
    try:
        assert app.queue is None
        refused = app.handle("POST", "/v1/jobs",
                             body=json.dumps(JOB).encode())
        assert refused.status == 403
        assert body_of(app.handle("GET", "/v1/jobs"))["read_only"]
        assert app.handle("GET", "/v1/jobs/job-0001").status == 404
        assert body_of(app.handle("GET", "/v1/health"))["read_only"]
    finally:
        app.close()


def test_job_cached_submission_after_store_hit(tmp_path):
    app = make_app(tmp_path)
    try:
        record, deduped = app.queue.submit(JOB)
        assert not deduped
        record, _ = wait_terminal(app, record.id)
        assert record.status == "done" and record.simulated == 1
        assert app.queue.sim_count == 1
    finally:
        app.close()
    # A fresh app over the same store dedups against the *store*.
    app = make_app(tmp_path)
    try:
        record, deduped = app.queue.submit(JOB)
        assert deduped and record.status == "cached"
        assert record.result["workload"] == "mcf"
        assert app.queue.sim_count == 0
    finally:
        app.close()


class BlockingBackend(SqliteBackend):
    """A backend whose reads, once armed, wait for ``release``."""

    def __init__(self, root):
        super().__init__(root)
        self.armed = False
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()

    def fetch_many(self, keys):
        if self.armed:
            self.entered.release()
            self.release.wait(60)
        return super().fetch_many(keys)


def test_submit_probes_the_store_outside_the_queue_lock(tmp_path):
    backend = BlockingBackend(tmp_path / "store")
    store = ResultStore(backend=backend)
    queue = JobQueue(store)
    try:
        first, second = (dict(JOB, seed=seed) for seed in (1, 2))
        # Both cells are stored, so every submission completes as
        # ``cached`` and nothing is simulated.
        for payload in (first, second):
            store.put(queue._job_from_payload(payload).cache_key(),
                      sample_result())
        done, _ = queue.submit(first)
        assert done.status == "cached"
        backend.armed = True
        outcomes = []
        submits = [threading.Thread(
            target=lambda: outcomes.append(queue.submit(second)))
            for _ in range(2)]
        for thread in submits:
            thread.start()
        # Both identical submissions are inside the store probe at once.
        for _ in submits:
            assert backend.entered.acquire(timeout=10)
        answered = []
        reader = threading.Thread(target=lambda: answered.append(
            (queue.wait_events(done.id, timeout=0), queue.jobs())))
        reader.start()
        reader.join(timeout=10)
        assert answered, "the queue lock is held across the store probe"
        (record, events), jobs = answered[0]
        assert record is done and [job.id for job in jobs] == [done.id]
        backend.release.set()
        for thread in submits:
            thread.join(timeout=30)
        assert len(outcomes) == 2
        assert outcomes[0][0] is outcomes[1][0]      # one job, not twins
        assert outcomes[0][0].status == "cached"
        assert len(queue.jobs()) == 2 and queue.sim_count == 0
    finally:
        backend.release.set()
        queue.close()


# ---------------------------------------------------------------------------
# end to end over real HTTP
# ---------------------------------------------------------------------------
def _get(base, path, headers=None):
    request = urllib.request.Request(base + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path, method="POST", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@contextlib.contextmanager
def serving(app):
    """Run ``app`` on an ephemeral port; yields ``(host, port)``."""
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        app.close()


def _post_declared(address, length, body=b""):
    """POST ``/v1/jobs`` declaring ``Content-Length: length`` but sending
    only ``body``; returns ``(status, headers, payload)``."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        response = conn.getresponse()
        return (response.status, dict(response.headers),
                json.loads(response.read()))
    finally:
        conn.close()


def test_oversized_request_body_is_refused_unread(tmp_path):
    app = make_app(tmp_path)
    with serving(app) as address:
        status, headers, payload = _post_declared(
            address, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert payload["limit"] == MAX_BODY_BYTES
        assert headers["Connection"] == "close"
        assert headers["X-Repro-Version"] == package_version()
        # A body within the limit still reaches the handler.
        status, _, payload = _post_declared(address, "8", b"not json")
        assert status == 400 and "not valid JSON" in payload["error"]
        assert app.queue.jobs() == []


@pytest.mark.parametrize("declared", ["abc", "-5", "1.5"])
def test_malformed_content_length_is_a_400(tmp_path, declared):
    with serving(make_app(tmp_path)) as address:
        status, headers, payload = _post_declared(address, declared)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert headers["Connection"] == "close"


def _raw_exchange(address, request):
    """Send the raw ``request`` bytes on a fresh connection; return
    ``(status, headers, body, trailing)`` of the one response read until
    the server closes, where ``trailing`` is anything sent after it."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, rest = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    length = int(headers["Content-Length"])
    return (int(status_line.split()[1]), headers, json.loads(rest[:length]),
            rest[length:])


@pytest.mark.parametrize("request_bytes, status, mentions", [
    (b"GARBAGE\r\n\r\n", 400, "GARBAGE"),
    (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked"
     b"\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 411, "Content-Length"),
], ids=["request-line", "chunked-body"])
def test_unreadable_request_gets_one_json_refusal(tmp_path, request_bytes,
                                                  status, mentions):
    """What the stdlib parser refuses itself, and a chunked body, get one
    JSON error and a closed connection: the chunk bytes are never parsed
    as a second request."""
    app = make_app(tmp_path)
    with serving(app) as address:
        answer = _raw_exchange(address, request_bytes)
        assert app.queue.jobs() == []
    got, headers, payload, trailing = answer
    assert got == status and mentions in payload["error"]
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert headers["X-Repro-Version"] == package_version()
    assert trailing == b""


def test_expect_100_continue_is_answered_before_the_body(tmp_path):
    """The interim response leaves at once, not buffered behind the final
    one; a request the transport refuses gets the refusal instead."""
    with serving(make_app(tmp_path)) as address:
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 8\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        status, _, payload, _ = _raw_exchange(
            address, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Expect: 100-continue\r\n\r\n")
        assert status == 411 and "Content-Length" in payload["error"]


def test_other_methods_are_routed(tmp_path):
    """Methods other than GET and POST answer 405 with ``Allow`` on a
    known path and 404 elsewhere, in JSON, and keep the connection."""
    with serving(make_app(tmp_path)) as address:
        conn = http.client.HTTPConnection(*address, timeout=30)
        try:
            conn.request("PUT", "/v1/jobs")
            response = conn.getresponse()
            assert response.status == 405
            assert response.headers["Allow"] == "POST, GET"
            assert response.headers["Content-Type"] == "application/json"
            assert "PUT" in json.loads(response.read())["error"]
            # Methods are case-sensitive: "get" is not GET.
            conn.request("get", "/v1/designs")
            response = conn.getresponse()
            assert response.status == 405
            assert response.headers["Allow"] == "GET"
            response.read()
            conn.request("DELETE", "/v1/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert "/v1/nope" in json.loads(response.read())["error"]
            # A HEAD answer declares its body's length but sends none.
            conn.request("HEAD", "/v1/designs")
            response = conn.getresponse()
            assert response.status == 405
            assert response.headers["Allow"] == "GET"
            assert response.read() == b""
            conn.request("GET", "/v1/designs")
            assert conn.getresponse().status == 200
        finally:
            conn.close()


def _server_writes(monkeypatch, port):
    """Record every socket write made from ``port`` (the server's side of
    each accepted connection) as ``(bytes, TCP_NODELAY is set)``."""
    writes = []
    for name in ("send", "sendall"):
        def counting(sock, data, *args, _write=getattr(socket.socket, name)):
            if sock.getsockname()[1] == port:
                writes.append((len(data), bool(sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))))
            return _write(sock, data, *args)
        monkeypatch.setattr(socket.socket, name, counting)
    return writes


def test_each_response_leaves_in_one_socket_write(tmp_path, monkeypatch):
    """Status line, headers and body go out in one write: written apart,
    the body waits for the client's delayed ACK under Nagle."""
    app = make_app(tmp_path)
    key = f"{1:064x}"
    app.store.put(key, sample_result(), job={"design": "HYBRID2"})
    with serving(app) as address:
        writes = _server_writes(monkeypatch, address[1])
        conn = http.client.HTTPConnection(*address, timeout=30)

        def get(path, headers=None):
            before = len(writes)
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            response.read()
            return response.status, response.headers, len(writes) - before

        try:
            status, headers, count = get(f"/v1/cells/{key}")
            assert status == 200 and count == 1
            status, _, count = get(f"/v1/cells/{key}",
                                   {"If-None-Match": headers["ETag"]})
            assert status == 304 and count == 1
            status, _, count = get("/v1/nope")
            assert status == 404 and count == 1
        finally:
            conn.close()
        status, _, _ = _post_declared(address, str(MAX_BODY_BYTES + 1))
        assert status == 413 and len(writes) == 4
    # A body larger than the write buffer would leave in several writes:
    # TCP_NODELAY keeps those from waiting on ACKs.
    assert all(nodelay for _, nodelay in writes)


def test_keep_alive_requests_do_not_wait_for_delayed_acks(tmp_path):
    """20 requests on one keep-alive connection: a ~40 ms delayed-ACK
    stall per response would cost at least 0.8 s."""
    with serving(make_app(tmp_path)) as address:
        conn = http.client.HTTPConnection(*address, timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/designs")
                response = conn.getresponse()
                assert response.status == 200 and response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
    assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"


def _handler_threads():
    return {thread for thread in threading.enumerate()
            if "process_request_thread" in thread.name}


def test_idle_connections_are_closed(tmp_path, monkeypatch):
    """A client that stops mid-request, or idles on a kept-alive
    connection, is disconnected once a socket read has blocked for the
    handler's ``timeout``, and its thread exits; a long-poll that waits
    longer than that on the server's side still completes."""
    assert 0 < _RequestHandler.timeout <= 60      # no handler waits forever
    monkeypatch.setattr(_RequestHandler, "timeout", 0.3)
    monkeypatch.setattr(JobQueue, "_worker", lambda self: None)
    app = make_app(tmp_path)
    before = _handler_threads()
    with serving(app) as address:
        record, _ = app.queue.submit(JOB)        # stays queued
        stalled = socket.create_connection(address, timeout=10)
        stalled.sendall(b"GET /v1/designs HTTP/1.1\r\n")
        idle = http.client.HTTPConnection(*address, timeout=10)
        try:
            idle.request("GET", "/v1/designs")
            response = idle.getresponse()
            assert response.status == 200 and response.read()
            start = time.perf_counter()
            assert stalled.recv(1) == b""        # closed, no answer
            assert idle.sock.recv(1) == b""
            assert time.perf_counter() - start < 5.0
        finally:
            stalled.close()
            idle.close()
        _, events = app.queue.wait_events(record.id, timeout=0)
        start = time.perf_counter()
        status, _, body = _get(f"http://{address[0]}:{address[1]}",
                               f"/v1/jobs/{record.id}/events"
                               f"?after={events[-1]['seq']}&wait=1")
        assert status == 200 and json.loads(body)["status"] == "queued"
        assert time.perf_counter() - start >= 0.9
        deadline = time.monotonic() + 5.0
        while _handler_threads() - before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _handler_threads() - before


@pytest.mark.slow
def test_service_end_to_end(tmp_path):
    """Empty store -> POST job -> events to completion -> cell + chart."""
    app = make_app(tmp_path)
    with serving(app) as (host, port):
        base = f"http://{host}:{port}"
        status, _, body = _get(base, "/v1/health")
        assert status == 200
        assert json.loads(body)["store"]["cells"] == 0

        status, submitted = _post(base, "/v1/jobs", JOB)
        assert status == 202 and not submitted["deduped"]
        job_id = submitted["job"]["id"]

        after, names, job_status = 0, [], None
        deadline = time.monotonic() + 90
        while time.monotonic() < deadline:
            status, _, body = _get(
                base, f"/v1/jobs/{job_id}/events?after={after}&wait=5")
            assert status == 200
            events = json.loads(body)
            names += [e["event"] for e in events["events"]]
            after = events["next"]
            job_status = events["status"]
            if job_status in ("done", "failed", "cached"):
                break
        assert job_status == "done", names
        assert names[:2] == ["queued", "started"]
        assert names[-1] == "finished"

        status, detail = _get(base, f"/v1/jobs/{job_id}")[0], None
        status, _, body = _get(base, f"/v1/jobs/{job_id}")
        detail = json.loads(body)["job"]
        key = detail["key"]
        assert detail["simulated"] == 1

        # The produced cell and its chart.
        status, headers, body = _get(base, f"/v1/cells/{key}")
        assert status == 200
        cell = json.loads(body)
        assert cell["status"] == "ok"
        assert cell["result"]["workload"] == "mcf"
        assert cell["checksum"]
        etag = headers["ETag"]
        status, headers, body = _get(base, f"/v1/cells/{key}",
                                     {"If-None-Match": etag})
        assert status == 304 and body == b""

        status, headers, body = _get(base, f"/v1/charts/{key}.svg")
        assert status == 200
        assert headers["Content-Type"].startswith("image/svg+xml")
        assert body.startswith(b"<svg")

        # A repeated identical POST is deduped: same job, no second
        # simulation (pinned by the queue's sim counter).
        status, duplicate = _post(base, "/v1/jobs", JOB)
        assert status == 200 and duplicate["deduped"]
        assert duplicate["job"]["id"] == job_id
        assert app.queue.sim_count == 1

        status, _, body = _get(base, "/v1/cells")
        listed = json.loads(body)
        assert listed["total"] == 1 and listed["keys"] == [key]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {package_version()}" in capsys.readouterr().out


def test_store_stats_json(tmp_path, capsys):
    store = ResultStore(tmp_path / "store")
    assert main(["store", "stats", "--json",
                 "--store", str(store.root)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["cells"] == 0 and stats["backend"] == "sqlite"
    assert main(["store", "fsck", "--json",
                 "--store", str(store.root)]) == 0
    fsck = json.loads(capsys.readouterr().out)
    assert fsck["clean"] and fsck["scanned"] == 0


@pytest.mark.slow
def test_serve_bench_cli(tmp_path, capsys):
    import pathlib

    baseline = (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "results" / "BENCH_serve_baseline.json")
    out = tmp_path / "BENCH_serve.json"
    code = main(["serve-bench", "--store", str(tmp_path / "store"),
                 "--artifacts", str(tmp_path / "artifacts"),
                 "--warm", "2", "--out", str(out),
                 "--baseline", str(baseline)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(out.read_text())
    assert payload["errors"] == 0
    assert payload["warm_304_ratio"] == 1.0
    assert "/v1/designs" in payload["endpoints"]
    assert "no structural regression" in captured.out
