"""Endpoint handlers and the route table of the serve layer.

Every handler has the uniform signature ``handler(app, params, query,
body) -> Response`` where ``app`` is the owning
:class:`~repro.serve.app.ServeApp`, ``params`` are the named groups of
the matched route and ``query`` the flattened query string.  Handlers
return plain :class:`Response` values; caching, ETag revalidation and
the version header are applied uniformly by the app layer.

Endpoint map (also rendered in ``docs/architecture.md``):

=============================  ======  =======================================
``/v1/health``                 GET     liveness + store/queue/cache stats
                                       (``?deep=1``: re-read every cell)
``/v1/designs``                GET     design registry (shared ``--json`` schema)
``/v1/workloads``              GET     Table 2 catalog (``?class=high|medium|low``)
``/v1/benches``                GET     bench registry slices, as data
``/v1/benches/<name>``         GET     one bench + its artifact (if generated)
``/v1/cells``                  GET     healthy cell keys (``?offset=&limit=``)
``/v1/cells/<key>``            GET     one verified store cell
``/v1/charts/<name>.svg``      GET     SVG chart of a bench artifact or cell
``/v1/jobs``                   POST    submit a design x workload job
``/v1/jobs``                   GET     job listing + queue stats
``/v1/jobs/<id>``              GET     structured job status
``/v1/jobs/<id>/events``       GET     long-poll progress (``?after=&wait=``)
=============================  ======  =======================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..report.artifacts import load_artifact, result_from_artifact
from ..report.registry import Table, get_bench
from ..report.render import chart_for_table
from ..sim.store import CELL_CORRUPT, CELL_OK, CELL_STALE, CELL_UNREADABLE
from ..workloads.catalog import MPKI_CLASSES
from . import schemas
from .jobqueue import JOB_QUEUED, JobSpecError
from .router import Router

#: 64-hex sweep cache keys (see ``SweepJob.cache_key``).
KEY_PATTERN = r"[0-9a-f]{64}"

SVG_CONTENT_TYPE = "image/svg+xml"


@dataclass
class Response:
    """One rendered HTTP response, transport-agnostic."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    #: Whether the app layer may store this response in the LRU cache
    #: (only honoured for ``200`` responses to ``GET``).
    cacheable: bool = False
    #: Files the response was rendered from; the cache revalidates their
    #: ``(mtime, size)`` on every hit, so editing a source invalidates.
    sources: Tuple[str, ...] = ()


def json_response(payload: Any, status: int = 200, cacheable: bool = False,
                  sources: Tuple[str, ...] = ()) -> Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return Response(status=status, body=body, cacheable=cacheable,
                    sources=tuple(sources))


def error_response(status: int, message: str, **fields: Any) -> Response:
    return json_response({"error": message, **fields}, status=status)


# ---------------------------------------------------------------------------
# read path
# ---------------------------------------------------------------------------
def health(app, params, query, body) -> Response:
    deep = query.get("deep", "0")
    if deep not in ("0", "1"):
        return error_response(400, f"deep must be 0 or 1, got {deep!r}")
    payload = {
        "status": "ok",
        "version": app.version,
        "read_only": app.read_only,
        "store": app.store.stats_dict(deep=deep == "1"),
        "cache": app.cache.stats.as_dict(),
        "jobs": app.queue.stats() if app.queue is not None else None,
    }
    return json_response(payload)


def designs(app, params, query, body) -> Response:
    return json_response({"designs": schemas.design_entries()},
                         cacheable=True)


def workloads(app, params, query, body) -> Response:
    klass = query.get("class")
    if klass is not None and klass not in MPKI_CLASSES:
        return error_response(400, f"unknown MPKI class {klass!r}; "
                                   f"known: {list(MPKI_CLASSES)}")
    return json_response({"workloads": schemas.workload_entries(klass)},
                         cacheable=True)


def benches(app, params, query, body) -> Response:
    return json_response({"benches": schemas.bench_entries()},
                         cacheable=True)


def bench_detail(app, params, query, body) -> Response:
    try:
        spec = get_bench(params["name"])
    except KeyError as exc:
        return error_response(404, str(exc.args[0] if exc.args else exc))
    entry = schemas.bench_entry(spec)
    artifact_file = app.artifacts_dir / f"{spec.name}.json"
    artifact = None
    if artifact_file.is_file():
        try:
            artifact = load_artifact(artifact_file)
        except (OSError, ValueError) as exc:
            entry["artifact_error"] = f"{type(exc).__name__}: {exc}"
    entry["artifact"] = artifact
    # The artifact file is a cache source even when absent: generating it
    # later must invalidate this response.
    return json_response(entry, cacheable=True,
                         sources=(str(artifact_file),))


def cells(app, params, query, body) -> Response:
    try:
        offset = max(0, int(query.get("offset", 0)))
        limit = min(1000, max(1, int(query.get("limit", 100))))
    except ValueError:
        return error_response(400, "offset/limit must be integers")
    keys = list(app.store.keys())
    return json_response({
        "total": len(keys),
        "offset": offset,
        "limit": limit,
        "keys": keys[offset:offset + limit],
    })


def cell(app, params, query, body) -> Response:
    key = params["key"]
    status, result, checksum, job = app.store.read_cell(key)
    if status == CELL_OK:
        return json_response({
            "key": key,
            "status": status,
            "checksum": checksum,
            "job": job,
            "result": result.as_dict(),
            # Cells are immutable by key (the key hashes everything that
            # determines the result), so this response is cacheable with
            # no source files to revalidate.
        }, cacheable=True)
    if status in (CELL_STALE, CELL_CORRUPT):
        codes = {CELL_STALE: 404, CELL_CORRUPT: 500}
        return json_response({"error": f"cell {key} is {status}",
                              "key": key, "status": status},
                             status=codes[status])
    if status == CELL_UNREADABLE:
        return json_response(
            {"error": f"cell {key} is temporarily unreadable",
             "key": key, "status": status}, status=503)
    return json_response({"error": f"no cell {key}", "key": key,
                          "status": status}, status=404)


def _cell_chart(app, key: str) -> Response:
    status, result = app.store.probe(key)
    if status != CELL_OK:
        return json_response({"error": f"no chartable cell {key} "
                                       f"(status {status})",
                              "status": status}, status=404)
    table = Table(
        title=f"{result.design}/{result.workload} traffic split",
        columns=["path", "MB"],
        rows=[["NM traffic", result.nm_traffic_bytes / 1e6],
              ["FM traffic", result.fm_traffic_bytes / 1e6]],
        slug="traffic", chart="bar", y_label="MB moved")
    svg = chart_for_table(table)
    return Response(body=svg.encode(), content_type=SVG_CONTENT_TYPE,
                    cacheable=True)


def chart(app, params, query, body) -> Response:
    name = params["name"]
    if len(name) == 64 and all(c in "0123456789abcdef" for c in name):
        return _cell_chart(app, name)
    try:
        spec = get_bench(name)
    except KeyError:
        return error_response(404, f"{name!r} is neither a bench name nor "
                                   f"a 64-hex cell key")
    artifact_file = app.artifacts_dir / f"{spec.name}.json"
    if not artifact_file.is_file():
        return error_response(
            404, f"bench {spec.name} has no artifact yet; generate one "
                 f"with 'python -m repro report --bench {spec.name}'")
    try:
        result = result_from_artifact(load_artifact(artifact_file))
    except (OSError, ValueError) as exc:
        return error_response(500, f"artifact unreadable: {exc}")
    charted = next((t for t in result.tables if t.chart is not None), None)
    if charted is None:
        return error_response(404, f"bench {spec.name} has no charted "
                                   f"table")
    svg = chart_for_table(charted)
    if svg is None:
        return error_response(404, f"bench {spec.name}'s charted table "
                                   f"is empty")
    return Response(body=svg.encode(), content_type=SVG_CONTENT_TYPE,
                    cacheable=True, sources=(str(artifact_file),))


# ---------------------------------------------------------------------------
# write path
# ---------------------------------------------------------------------------
def jobs_submit(app, params, query, body) -> Response:
    if app.queue is None:
        return error_response(403, "server is read-only: job submission "
                                   "is disabled")
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, ValueError, RecursionError):
        return error_response(400, "request body is not valid JSON")
    try:
        record, deduped = app.queue.submit(payload)
    except JobSpecError as exc:
        return error_response(400, str(exc))
    status = 202 if (not deduped and record.status == JOB_QUEUED) else 200
    return json_response({"job": record.as_dict(), "deduped": deduped},
                         status=status)


def jobs_list(app, params, query, body) -> Response:
    if app.queue is None:
        return json_response({"jobs": [], "stats": None,
                              "read_only": True})
    return json_response({"jobs": [r.summary() for r in app.queue.jobs()],
                          "stats": app.queue.stats()})


def job_detail(app, params, query, body) -> Response:
    if app.queue is None:
        return error_response(404, "server is read-only: no jobs")
    try:
        record = app.queue.get(params["id"])
    except KeyError as exc:
        return error_response(404, str(exc.args[0]))
    return json_response({"job": record.as_dict()})


def job_events(app, params, query, body) -> Response:
    if app.queue is None:
        return error_response(404, "server is read-only: no jobs")
    try:
        after = int(query.get("after", 0))
        wait = min(30.0, max(0.0, float(query.get("wait", 0))))
    except ValueError:
        return error_response(400, "after must be an integer and wait a "
                                   "number of seconds")
    try:
        record, events = app.queue.wait_events(params["id"], after=after,
                                               timeout=wait)
    except KeyError as exc:
        return error_response(404, str(exc.args[0]))
    next_seq = max([e["seq"] for e in events], default=after)
    return json_response({"id": record.id, "status": record.status,
                          "events": events, "next": next_seq})


def build_router() -> Router:
    router = Router()
    router.get(r"/v1/health", health)
    router.get(r"/v1/designs", designs)
    router.get(r"/v1/workloads", workloads)
    router.get(r"/v1/benches", benches)
    router.get(r"/v1/benches/(?P<name>[A-Za-z0-9_.-]+)", bench_detail)
    router.get(r"/v1/cells", cells)
    router.get(rf"/v1/cells/(?P<key>{KEY_PATTERN})", cell)
    router.get(r"/v1/charts/(?P<name>[A-Za-z0-9_.-]+)\.svg", chart)
    router.post(r"/v1/jobs", jobs_submit)
    router.get(r"/v1/jobs", jobs_list)
    router.get(r"/v1/jobs/(?P<id>job-\d+)", job_detail)
    router.get(r"/v1/jobs/(?P<id>job-\d+)/events", job_events)
    return router
