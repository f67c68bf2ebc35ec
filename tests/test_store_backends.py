"""Semantics suite for the SQLite (WAL) result store.

Round-trip fidelity, the probe status matrix, quarantine/clear hygiene,
fsck repair, sweep resume, verification on the stored column text, plus
how a store is opened, batched dedup reads (one indexed query per chunk
of keys, no per-cell I/O) and multi-process concurrent writers.
"""

import hashlib
import json
import math
import multiprocessing
import sqlite3
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import make_config
from repro.sim import store as store_module
from repro.sim.faults import corrupt_store_cell
from repro.sim.store import (CELL_CORRUPT, CELL_MISS, CELL_OK, CELL_STALE,
                             CELL_UNREADABLE, STORE_FORMAT, ResultStore,
                             SqliteBackend, _canonical, _text_checksum)
from repro.sim.simulator import RunResult
from repro.sim.sweep import SweepJob, coerce_design, run_jobs
from repro.stats import Stats
from repro.workloads import get_workload

SCALE = 1024
REFS = 300

@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    """A fresh store opened by ``sqlite:`` URI."""
    return ResultStore(f"{request.param}:{tmp_path / 'store'}")


def sample_result(cycles=123.5) -> RunResult:
    stats = Stats()
    stats.inc("nm.bytes", 4096.0)
    return RunResult(design="HYBRID2", workload="mcf", cycles=cycles,
                     instructions=42_000, references=600,
                     nm_service_ratio=0.75, nm_traffic_bytes=4096.0,
                     fm_traffic_bytes=8192.0, energy_pj=1.5e6,
                     flat_capacity_bytes=1 << 20, stats=stats)


def make_job(seed=3):
    config = make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    return SweepJob(design=coerce_design("HYBRID2"),
                    workload=get_workload("mcf"), config=config,
                    num_references=REFS, seed=seed)


def synthetic_key(i: int) -> str:
    return f"{i:064x}"


# ---------------------------------------------------------------------------
# opening a store, and the cell semantics
# ---------------------------------------------------------------------------
def test_plain_paths_create_sqlite_stores_and_other_schemes_raise(tmp_path):
    plain = ResultStore(str(tmp_path / "plain"))
    plain.put("a" * 64, sample_result())
    assert [p.name for p in plain.root.glob("*.db")] == ["cells.db"]
    # The same directory opened by URI is the same store.
    assert ResultStore(f"sqlite:{plain.root}").get("a" * 64) is not None
    for uri in (f"json:{tmp_path / 'old'}", f"nosuch:{tmp_path / 'old'}"):
        with pytest.raises(ValueError, match="unsupported store URI"):
            ResultStore(uri)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


def test_round_trip_and_miss(store):
    original = sample_result()
    store.put("a" * 64, original)
    loaded = store.get("a" * 64)
    assert loaded is not None
    assert loaded.as_dict() == original.as_dict()
    assert store.get("b" * 64) is None
    assert ("b" * 64) not in store
    for bad in ("", "../escape", "a/b", "a.b"):
        with pytest.raises(ValueError):
            store.probe(bad)


def test_probe_status_matrix(store):
    key = "f" * 64
    assert store.probe(key) == (CELL_MISS, None)
    store.put(key, sample_result())
    status, result = store.probe(key)
    assert status == CELL_OK and result is not None
    corrupt_store_cell(store, key)           # silent bit rot
    assert store.probe(key) == (CELL_CORRUPT, None)
    store.backend.insert([(key, -1, None, None, None)])
    assert store.probe(key) == (CELL_STALE, None)
    store.backend.insert([(key, STORE_FORMAT, None, None, "{not json")])
    assert store.probe(key) == (CELL_CORRUPT, None)


def test_probe_many_matches_individual_probes(store):
    keys = [synthetic_key(i) for i in range(8)]
    for key in keys[:4]:
        store.put(key, sample_result())
    corrupt_store_cell(store, keys[0])
    batched = store.probe_many(keys)
    for key in keys:
        assert batched[key][0] == store.probe(key)[0]
        if batched[key][1] is not None:
            assert (batched[key][1].as_dict()
                    == store.probe(key)[1].as_dict())


def test_keys_len_scan_and_clear(store):
    good, bad = "a" * 64, "b" * 64
    store.put(good, sample_result())
    store.put(bad, sample_result())
    corrupt_store_cell(store, bad)
    assert list(store.keys()) == [good]      # corrupt cells never served
    assert len(store) == 1
    assert bad not in store
    assert dict(store.scan()) == {good: CELL_OK, bad: CELL_CORRUPT}
    assert store.clear() == 2                # cells removed, healthy or not
    assert len(store) == 0 and dict(store.scan()) == {}


def test_put_many_equals_repeated_put(store):
    items = [(synthetic_key(i), sample_result(cycles=100.0 + i), None)
             for i in range(10)]
    store.put_many(items)
    for key, result, _ in items:
        assert store.get(key).as_dict() == result.as_dict()
    assert len(store) == 10


def test_quarantine_uniquifies_repeated_keys(store):
    """Satellite: a second quarantine of the same key must keep both
    post-mortem copies, not overwrite the first."""
    key = "c" * 64
    for _ in range(2):
        store.put(key, sample_result())
        corrupt_store_cell(store, key)
        report = store.fsck()
        assert [issue.key for issue in report.corrupt] == [key]
        assert report.corrupt[0].quarantined_to is not None
    count, size = store.quarantine_stats()
    assert count == 2 and size > 0


def test_clear_removes_quarantined_cells(store):
    """Satellite: ``clear()`` empties the quarantine too — post-mortem
    copies no longer survive forever."""
    key = "d" * 64
    store.put(key, sample_result())
    corrupt_store_cell(store, key)
    store.fsck()                             # moves the cell to quarantine
    assert store.quarantine_stats()[0] == 1
    assert store.clear() == 0                # quarantined ≠ cached cells
    assert store.quarantine_stats() == (0, 0)


def test_fsck_reports_and_purges_quarantine(store):
    key = "e" * 64
    store.put(key, sample_result())
    corrupt_store_cell(store, key)
    store.fsck()
    report = store.fsck()
    assert report.quarantined_cells == 1 and report.quarantine_bytes > 0
    assert "quarantine holds 1" in report.summary()
    purged = store.fsck(purge_quarantine=True)
    assert purged.purged_quarantine == 1
    assert store.quarantine_stats() == (0, 0)
    assert store.fsck().quarantined_cells == 0


def test_unreadable_cells_are_never_quarantined(store):
    """Satellite: a transient read error (EACCES/EIO) must surface as
    CELL_UNREADABLE — not corruption — and fsck must leave the healthy
    bytes alone instead of quarantining them."""
    key = "a1" * 32
    store.put(key, sample_result())

    def flaky(keys):
        return dict.fromkeys(keys, sqlite3.OperationalError("EIO: fault"))

    unpatched = store.backend.fetch_many
    store.backend.fetch_many = flaky
    assert store.probe(key) == (CELL_UNREADABLE, None)
    report = store.fsck(repair=True)
    assert report.clean                      # unreadable ≠ unhealthy
    assert [issue.key for issue in report.unreadable] == [key]
    assert report.unreadable[0].quarantined_to is None
    assert not report.unreadable[0].repaired
    assert "unreadable" in report.summary()
    store.backend.fetch_many = unpatched
    status, result = store.probe(key)        # the cell survived untouched
    assert status == CELL_OK and result is not None
    assert store.quarantine_stats() == (0, 0)


def test_a_cell_deleted_mid_scan_reads_as_a_miss(store):
    """``all_keys`` and ``fetch_many`` are separate statements, so a cell
    quarantined or cleared by another process in between is listed but
    not fetched: the scan yields a miss for it, and the scans built on it
    (``keys``, ``len``, ``stats_dict``, ``fsck``) neither count it nor
    raise."""
    kept, gone = synthetic_key(1), synthetic_key(2)
    store.put(kept, sample_result())
    store.put(gone, sample_result(cycles=7.0))
    unpatched = store.backend.fetch_many

    def racing(keys):
        rows = unpatched(keys)
        rows.pop(gone, None)
        return rows

    store.backend.fetch_many = racing
    assert dict(store.scan()) == {kept: CELL_OK, gone: CELL_MISS}
    assert list(store.keys()) == [kept] and len(store) == 1
    summary = store.stats_dict()
    assert (summary["cells"], summary["ok"], summary["corrupt"]) == (1, 1, 0)
    report = store.fsck(repair=True)
    assert report.clean and report.ok == 1 and report.issues == []
    store.backend.fetch_many = unpatched


def test_fsck_repair_restores_identical_payloads(store):
    job = make_job()
    run_jobs([job], workers=1, store=store)
    key = job.cache_key()
    pristine = stored_row(store, key)
    corrupt_store_cell(store, key)
    assert stored_row(store, key) != pristine
    report = store.fsck(repair=True)
    assert report.clean
    assert [issue.key for issue in report.repaired] == [key]
    assert stored_row(store, key) == pristine    # deterministic re-sim


def test_run_jobs_resumes_from_store(store):
    jobs = [make_job(seed=s) for s in (3, 4, 5)]
    first = run_jobs(jobs, workers=1, store=store)
    assert first.simulated == 3 and first.cached == 0
    second = run_jobs(jobs, workers=2, store=store)
    assert second.simulated == 0 and second.cached == 3
    for a, b in zip(first.results, second.results):
        assert a.as_dict() == b.as_dict()


def stored_row(store, key):
    """The ``cells`` row stored under ``key``, as the backend reads it."""
    return store.backend.fetch_many([key])[key]


def insert_row(store, row):
    """Write one ``(key, format, checksum, job, result)`` row verbatim."""
    store.backend.insert([row])


# ---------------------------------------------------------------------------
# verification on the stored text: the same verdict as decoding every cell
# ---------------------------------------------------------------------------
def decoded_verdict(row):
    """Reference classification of a ``cells`` row: decode its job and
    result texts, re-encode them canonically, recompute the checksum."""
    key, fmt, checksum, job, result = row
    try:
        payload = {"format": fmt, "checksum": checksum,
                   "job": None if job is None else json.loads(job),
                   "result": None if result is None else json.loads(result)}
    except ValueError:
        return CELL_CORRUPT, None
    if payload.get("format") != STORE_FORMAT:
        return CELL_STALE, None
    canonical = json.dumps({"job": payload.get("job"),
                            "result": payload.get("result")},
                           sort_keys=True, separators=(",", ":"))
    if payload.get("checksum") != hashlib.sha256(
            canonical.encode("utf-8")).hexdigest():
        return CELL_CORRUPT, None
    try:
        return CELL_OK, RunResult.from_dict(payload["result"]).as_dict()
    except (KeyError, TypeError, ValueError):
        return CELL_CORRUPT, None


#: Text SQLite can hold (no lone surrogates).
storable_text = st.text(st.characters(blacklist_categories=("Cs",)),
                        max_size=12)
#: Integers SQLite can hold (a signed 64-bit INTEGER; sqlite3 raises
#: OverflowError on anything wider, so no row can carry one).
storable_int = st.integers(-(1 << 63), (1 << 63) - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)
run_results = st.builds(
    lambda cycles, refs, counters: RunResult(
        design="HYBRID2", workload="mcf", cycles=cycles, instructions=refs,
        references=refs, nm_service_ratio=0.5, nm_traffic_bytes=cycles,
        fm_traffic_bytes=1.0, energy_pj=2.5, flat_capacity_bytes=1 << 20,
        stats=Stats().merge(counters)),
    finite, st.integers(0, 1 << 40),
    st.dictionaries(st.text("abc.", min_size=1, max_size=6), finite,
                    max_size=4))
job_specs = st.one_of(
    st.none(),
    st.dictionaries(storable_text,
                    st.one_of(st.integers(), finite, storable_text,
                              st.none()), max_size=4))
DAMAGE = ("none", "flip_checksum", "format", "reformat", "truncate_job",
          "truncate_result", "garbage_job", "garbage_result", "job_null",
          "result_null", "garbage_job_rechecksummed")


def reformat(text):
    """The same JSON in another spelling: spaced separators, keys in
    reverse order."""
    doc = json.loads(text)
    if isinstance(doc, dict):
        doc = dict(reversed(list(doc.items())))
    return json.dumps(doc, indent=1)


@pytest.fixture(scope="module")
def row_store(tmp_path_factory):
    store = ResultStore(f"sqlite:{tmp_path_factory.mktemp('rows')}")
    yield store
    store.backend.close()


@settings(max_examples=150, deadline=None)
@given(result=run_results, job=job_specs, damage=st.sampled_from(DAMAGE),
       data=st.data())
def test_stored_text_verdict_matches_decoding(row_store, result, job,
                                              damage, data):
    key = "5a" * 32
    key, fmt, checksum, job_text, result_text = \
        row_store._cell_row(key, result, job)
    if damage == "flip_checksum":
        at = data.draw(st.integers(0, len(checksum) - 1))
        swap = data.draw(st.sampled_from(
            [c for c in "0123456789abcdef" if c != checksum[at]]))
        checksum = checksum[:at] + swap + checksum[at + 1:]
    elif damage == "format":
        fmt = data.draw(st.one_of(
            st.none(), st.just(str(STORE_FORMAT)),
            storable_int.filter(lambda f: f != STORE_FORMAT)))
    elif damage == "reformat":
        result_text = reformat(result_text)
        if job_text is not None and data.draw(st.booleans()):
            job_text = reformat(job_text)
    elif damage == "truncate_job" and job_text is not None:
        job_text = job_text[:data.draw(st.integers(0, len(job_text) - 1))]
    elif damage == "truncate_result":
        result_text = result_text[:data.draw(
            st.integers(0, len(result_text) - 1))]
    elif damage == "garbage_job":
        job_text = data.draw(storable_text)
    elif damage == "garbage_job_rechecksummed":
        # A checksum that matches the stored texts does not make an
        # undecodable job text readable.
        job_text = data.draw(st.one_of(storable_text, st.just("{not json")))
        checksum = _text_checksum(job_text, result_text)
    elif damage == "garbage_result":
        result_text = data.draw(storable_text)
    elif damage == "job_null":
        job_text = None
    elif damage == "result_null":
        result_text = None
    # Scan the undamaged cell first: the damaged row must get its verdict
    # from its own bytes, whatever the scan remembers of the intact one.
    row_store.put(key, result, job=job)
    assert dict(row_store.scan()) == {key: CELL_OK}
    insert_row(row_store, (key, fmt, checksum, job_text, result_text))
    # The reference reads the row back: column affinity may have
    # converted a value on the way in (the text '2' becomes the integer).
    stored = row_store.backend._conn().execute(
        "SELECT key, format, checksum, job, result FROM cells "
        "WHERE key = ?", (key,)).fetchone()
    expected = decoded_verdict(stored)
    status, loaded = row_store.probe(key)
    assert (status, None if loaded is None else loaded.as_dict()) \
        == expected
    assert dict(row_store.scan()) == {key: expected[0]}


# ---------------------------------------------------------------------------
# scans decode each verified content once per store
# ---------------------------------------------------------------------------
def write_verified(store, key, result, job=None):
    """Store any JSON ``result`` under ``key`` with a matching checksum."""
    job_text = None if job is None else _canonical(job)
    text = _canonical(result)
    insert_row(store, (key, STORE_FORMAT, _text_checksum(job_text, text),
                       job_text, text))


def count_decodes(monkeypatch):
    """Count the :meth:`RunResult.from_dict` calls."""
    calls = {"from_dict": 0}
    unpatched = RunResult.from_dict

    def counting(data):
        calls["from_dict"] += 1
        return unpatched(data)

    monkeypatch.setattr(RunResult, "from_dict", counting)
    return calls


def write_without_result(store, key):
    """Store a row with no result text at all; its checksum, over a null
    job and result, still matches."""
    insert_row(store, (key, STORE_FORMAT, _text_checksum(None, "null"),
                       None, None))


def ill_typed_results():
    """Checksum-valid result bodies that are not run results: JSON arrays
    where a run result has objects (the result itself, or its stats), a
    string for a number, an integer no float holds, an ``Infinity``."""
    sample = sample_result().as_dict()
    return [[1, 2], dict(sample, stats=[["nm.bytes", 1]]),
            dict(sample, cycles="1"), dict(sample, stats={"x": 10 ** 400}),
            dict(sample, fm_traffic_bytes=float("inf"))]


def test_checksum_valid_ill_typed_results_are_corrupt(store):
    healthy = synthetic_key(0)
    store.put(healthy, sample_result())
    bad = []
    for i, body in enumerate(ill_typed_results(), start=1):
        bad.append(synthetic_key(i))
        write_verified(store, bad[-1], body)
    bad.append(synthetic_key(len(bad) + 1))
    write_without_result(store, bad[-1])
    for key in bad:
        assert store.probe(key) == (CELL_CORRUPT, None)
    assert list(store.keys()) == [healthy] and len(store) == 1
    summary = store.stats_dict()
    assert (summary["ok"], summary["corrupt"]) == (1, len(bad))
    report = store.fsck(quarantine=False)
    assert sorted(issue.key for issue in report.corrupt) == bad


def test_ill_typed_result_column_text_is_corrupt(tmp_path):
    """The same on SQLite's column path, whose texts verify undecoded."""
    store = ResultStore(f"sqlite:{tmp_path}")
    key = synthetic_key(1)
    for text in map(_canonical, ill_typed_results()):
        insert_row(store, (key, STORE_FORMAT, _text_checksum(None, text),
                           None, text))
        assert store.probe(key) == (CELL_CORRUPT, None)
        assert dict(store.scan()) == {key: CELL_CORRUPT}


def test_a_warm_scan_decodes_no_cell(store, monkeypatch):
    keys = [synthetic_key(i) for i in range(20)]
    store.put_many([(key, sample_result(cycles=float(i)), None)
                    for i, key in enumerate(keys)])
    calls = count_decodes(monkeypatch)
    assert store.stats_dict()["ok"] == 20
    assert calls == {"from_dict": 20}
    assert store.stats_dict()["ok"] == 20
    assert list(store.keys()) == keys and len(store) == 20
    assert calls == {"from_dict": 20}
    status, result = store.probe(keys[3])        # probes still hydrate
    assert status == CELL_OK and result.cycles == 3.0
    assert calls == {"from_dict": 21}


def test_a_warm_scan_still_sees_damage(store):
    key, twin = synthetic_key(1), synthetic_key(2)
    store.put(key, sample_result())
    store.put(twin, sample_result())             # the same content
    assert store.stats_dict()["ok"] == 2
    corrupt_store_cell(store, key)               # result edited, checksum kept
    assert dict(store.scan()) == {key: CELL_CORRUPT, twin: CELL_OK}
    # A verified body that does not hydrate stays corrupt, scan after scan.
    body = sample_result().as_dict()
    del body["design"]
    write_verified(store, key, body)
    for _ in range(2):
        assert dict(store.scan()) == {key: CELL_CORRUPT, twin: CELL_OK}


def test_a_moved_frame_split_cannot_borrow_a_proof(tmp_path):
    """SQLite verifies the text ``{"job":J,"result":R}``.  A stats counter
    named ``result`` lets a longer J and a shorter R frame the same text
    under the same checksum; that R does not decode, and a scan that has
    seen the intact row must still say so."""
    store = ResultStore(f"sqlite:{tmp_path}")
    key = synthetic_key(1)
    result = sample_result()
    result.stats.inc("result", 2.0)
    store.put(key, result, job={"seed": 1})
    assert dict(store.scan()) == {key: CELL_OK}
    fmt, checksum, job, text = stored_row(store, key)
    cut = text.index(',"result":')
    job, text = (job + ',"result":' + text[:cut],
                 text[cut + len(',"result":'):])
    assert _text_checksum(job, text) == checksum
    insert_row(store, (key, fmt, checksum, job, text))
    assert store.probe(key) == (CELL_CORRUPT, None)
    assert dict(store.scan()) == {key: CELL_CORRUPT}


#: JSON text nested deeper than the decoder recurses.
DEEP = "[" * 100_000


def test_deeply_nested_rows_are_corrupt_and_unrepairable(store):
    """A result or job text nested past the decoder's recursion limit, or
    a job text that does not decode at all, reads corrupt whether its
    checksum matches or not, and the cell cannot be re-simulated."""
    healthy = synthetic_key(0)
    store.put(healthy, sample_result(), job={"seed": 1})
    result = _canonical(sample_result().as_dict())
    deep = [synthetic_key(i) for i in range(1, 5)]
    insert_row(store, (deep[0], STORE_FORMAT, _text_checksum(None, DEEP),
                       None, DEEP))
    insert_row(store, (deep[1], STORE_FORMAT, "0" * 64, DEEP, DEEP))
    insert_row(store, (deep[2], STORE_FORMAT, _text_checksum(DEEP, result),
                       DEEP, result))
    insert_row(store, (deep[3], STORE_FORMAT,
                       _text_checksum("{not json", result), "{not json",
                       result))
    for key in deep:
        assert store.probe(key) == (CELL_CORRUPT, None)
        assert store.read_cell(key) == (CELL_CORRUPT, None, None, None)
        assert store.job_spec(key) is None
    assert {key: status for key, (status, _)
            in store.probe_many([healthy] + deep).items()} == \
        {healthy: CELL_OK, **dict.fromkeys(deep, CELL_CORRUPT)}
    summary = store.stats_dict()
    assert (summary["ok"], summary["corrupt"]) == (1, 4)
    report = store.fsck(repair=True)
    assert not report.clean and report.ok == 1
    assert sorted(issue.key for issue in report.unrepaired_corrupt) == deep
    assert all(issue.quarantined_to is not None
               and "no readable job description" in issue.error
               for issue in report.corrupt)
    assert store.quarantine_stats()[0] == 4
    assert list(store.keys()) == [healthy]


def test_the_scan_memo_is_capped(store, monkeypatch):
    monkeypatch.setattr(store_module, "_PROVEN_CAP", 4)
    keys = [synthetic_key(i) for i in range(10)]
    store.put_many([(key, sample_result(cycles=float(i)), None)
                    for i, key in enumerate(keys)])
    for _ in range(3):
        assert list(store.keys()) == keys
        assert len(store._proven) == 4


# ---------------------------------------------------------------------------
# sqlite specifics: batched reads, concurrent writers
# ---------------------------------------------------------------------------
def test_sqlite_dedup_probe_is_batched(tmp_path):
    """Acceptance: a 10k-cell dedup pass issues one indexed query per
    chunk of keys — no per-cell reads on the SQLite backend."""
    store = ResultStore(f"sqlite:{tmp_path}")
    backend = store.backend
    assert isinstance(backend, SqliteBackend)
    result = sample_result()
    store.put_many([(synthetic_key(i), result, None)
                    for i in range(10_000)])
    before = backend.select_queries
    probes = store.probe_many([synthetic_key(i) for i in range(10_000)])
    queries = backend.select_queries - before
    assert queries <= math.ceil(10_000 / store_module._SQLITE_CHUNK) == 12
    assert sum(1 for status, _ in probes.values()
               if status == CELL_OK) == 10_000


def test_run_jobs_warm_start_uses_one_batched_probe(tmp_path):
    """The run_jobs dedup pass goes through probe_many: a warm re-run
    makes one fetch_many call for the whole batch, not one per job."""
    store = ResultStore(f"sqlite:{tmp_path}")
    jobs = [make_job(seed=s) for s in (3, 4)]
    run_jobs(jobs, workers=1, store=store)

    calls = []
    unpatched = store.backend.fetch_many

    def counting(keys):
        calls.append(list(keys))
        return unpatched(keys)

    store.backend.fetch_many = counting
    report = run_jobs(jobs, workers=1, store=store)
    assert report.cached == 2 and report.simulated == 0
    assert len(calls) == 1                   # one probe_many for the batch
    assert len(calls[0]) == 2


#: Wall-clock budget for all concurrent writers together; a hang fails
#: fast.
WRITERS_TIMEOUT_S = 120


def _concurrent_writer(root, start, count):
    store = ResultStore(f"sqlite:{root}")
    store.put_many([(synthetic_key(i), sample_result(cycles=float(i)), None)
                    for i in range(start, start + count)])


def test_sqlite_concurrent_multiprocess_writers(tmp_path):
    """WAL + busy-timeout make concurrent writer processes safe: every
    cell lands, nothing is corrupted."""
    # Spawned, not forked, under one shared deadline: a forked child can
    # inherit a lock another thread holds and hang.
    context = multiprocessing.get_context("spawn")
    procs = [context.Process(target=_concurrent_writer,
                             args=(str(tmp_path), base * 50, 50))
             for base in range(4)]
    for proc in procs:
        proc.start()
    deadline = time.monotonic() + WRITERS_TIMEOUT_S
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = [proc for proc in procs if proc.is_alive()]
    for proc in hung:
        proc.terminate()
        proc.join(timeout=10)
    exit_codes = [proc.exitcode for proc in procs]
    assert not hung, f"writers still running at the deadline: {exit_codes}"
    assert exit_codes == [0] * 4, f"writer exit codes {exit_codes}"
    store = ResultStore(f"sqlite:{tmp_path}")
    assert len(store) == 200, f"writer exit codes {exit_codes}"
    report = store.fsck()
    assert report.clean and report.scanned == 200 and report.ok == 200, \
        f"writer exit codes {exit_codes}: {report.summary()}"
