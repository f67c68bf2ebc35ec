"""The serve application and its stdlib HTTP transport.

:class:`ServeApp` is transport-agnostic: :meth:`ServeApp.handle` maps
``(method, target, headers, body)`` to a
:class:`~repro.serve.handlers.Response`, applying the response cache,
ETag revalidation (``If-None-Match`` -> ``304``) and the
``X-Repro-Version`` header uniformly.  Tests drive it directly;
:func:`make_server` wraps it in a
:class:`http.server.ThreadingHTTPServer` for real clients.

Cache policy: only ``200`` responses to ``GET`` whose handler marked
them ``cacheable`` enter the LRU.  Cell responses are immutable by key
(the key hashes everything that determines the result, including the
model sources); registry listings are immutable per process; artifact-
backed responses carry their source files and are revalidated by
``(mtime, size)`` on every hit.  Job endpoints are never cached.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Union
from urllib.parse import parse_qs

from .. import package_version
from ..sim.store import ResultStore
from .handlers import Response, build_router, error_response
from .jobqueue import JobQueue
from .respcache import CacheEntry, ResponseCache, etag_of, source_sig

#: Default artifact directory the chart/bench endpoints read from
#: (matches ``python -m repro report``'s default output directory).
DEFAULT_ARTIFACTS_DIR = "artifacts"

#: Largest request body the HTTP transport reads (a job spec is a few
#: hundred bytes).  A larger ``Content-Length`` is refused with ``413``
#: before any of the body is read.
MAX_BODY_BYTES = 1 << 20


class ServeApp:
    """One serving instance: store + bench registry + job queue + cache."""

    def __init__(self, store: Union[ResultStore, str, Path, None] = None, *,
                 read_only: bool = False, queue_workers: int = 1,
                 cache_capacity: int = 128,
                 artifacts_dir: Union[str, Path, None] = None) -> None:
        if isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store, read_only=read_only)
        self.read_only = self.store.read_only
        #: ``None`` on a read-only server: the write path is disabled and
        #: ``POST /v1/jobs`` answers 403.
        self.queue: Optional[JobQueue] = (
            None if self.read_only
            else JobQueue(self.store, workers=queue_workers))
        self.cache = ResponseCache(capacity=cache_capacity)
        self.router = build_router()
        self.artifacts_dir = Path(artifacts_dir or DEFAULT_ARTIFACTS_DIR)
        self.version = package_version()

    # -- request handling --------------------------------------------------
    def handle(self, method: str, target: str,
               headers: Optional[Dict[str, str]] = None,
               body: bytes = b"") -> Response:
        """Serve one request; ``target`` is the raw request path+query."""
        headers = {key.lower(): value
                   for key, value in (headers or {}).items()}
        path, _, query_string = target.partition("?")
        query = {key: values[-1]
                 for key, values in parse_qs(query_string).items()}
        match = self.router.match(method, path)
        if not match.found:
            if match.allowed:
                response = error_response(
                    405, f"method {method} not allowed for {path}")
                response.headers["Allow"] = ", ".join(match.allowed)
            else:
                response = error_response(404, f"no such endpoint {path}")
            return self._finish(response)

        if method == "GET":
            entry = self.cache.get(target)
            if entry is not None:
                return self._finish(self._from_entry(entry, headers))
        try:
            response = match.handler(self, match.params, query, body)
        except Exception as exc:      # never let a handler kill the thread
            response = error_response(
                500, f"internal error: {type(exc).__name__}: {exc}")
        if method == "GET" and response.cacheable and response.status == 200:
            entry = CacheEntry(
                body=response.body, content_type=response.content_type,
                etag=etag_of(response.body),
                sources=tuple(source_sig(s) for s in response.sources))
            self.cache.put(target, entry)
            return self._finish(self._from_entry(entry, headers))
        return self._finish(response)

    @staticmethod
    def _from_entry(entry: CacheEntry,
                    headers: Dict[str, str]) -> Response:
        etags = [tag.strip() for tag in
                 headers.get("if-none-match", "").split(",") if tag.strip()]
        if entry.etag in etags or "*" in etags:
            return Response(status=304, content_type=entry.content_type,
                            headers={"ETag": entry.etag})
        return Response(status=200, body=entry.body,
                        content_type=entry.content_type,
                        headers={"ETag": entry.etag})

    def _finish(self, response: Response) -> Response:
        response.headers.setdefault("X-Repro-Version", self.version)
        return response

    def close(self) -> None:
        if self.queue is not None:
            self.queue.close()
        self.store.backend.close()


# ---------------------------------------------------------------------------
# stdlib HTTP transport
# ---------------------------------------------------------------------------
class _RequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    #: HTTP/1.1 keeps client connections alive between the cold request
    #: and its conditional re-request (every response sets
    #: Content-Length, which 1.1 requires for keep-alive).
    protocol_version = "HTTP/1.1"

    def _dispatch(self, method: str) -> None:
        app = self.server.app
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            refusal = error_response(
                400, f"Content-Length must be a non-negative integer, "
                     f"got {declared!r}")
        elif int(declared) > MAX_BODY_BYTES:
            refusal = error_response(
                413, f"request body of {declared} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit", limit=MAX_BODY_BYTES)
        else:
            length = int(declared)
            body = self.rfile.read(length) if length else b""
            self._send(app.handle(method, self.path,
                                  dict(self.headers.items()), body))
            return
        # The body was never read, so the connection cannot carry another
        # request: close it after the refusal.
        refusal.headers["Connection"] = "close"
        self._send(app._finish(refusal))

    def _send(self, response: Response) -> None:
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        if response.status == 304:
            # A 304 carries no body (RFC 9110 §15.4.5): no Content-Length,
            # no Content-Type, nothing written after the headers.
            self.end_headers()
            return
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:
        # Quiet by default; the CLI announces the listen address once.
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


def make_server(app: ServeApp, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind a threading HTTP server around ``app`` (port 0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), _RequestHandler)
    server.app = app
    server.daemon_threads = True
    return server
