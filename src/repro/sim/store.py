"""Persistent result store: sharded SQLite behind one cell-cache API.

Every sweep cell is deterministic given its :meth:`SweepJob.cache_key`
(design, workload spec, system configuration, trace length, seed, core
count), so results can be cached across processes and sessions.  The store
keeps one *payload document* per key — ``{format, key, checksum, job,
result}`` — in a :class:`SqliteBackend`: N shard databases
(``shard-XX.db``) under the root, rows ``cells(key PRIMARY KEY, format,
checksum, job, result)``, WAL journaling + busy timeouts for safe
concurrent multi-process writers, and *batched* reads/writes:
:meth:`ResultStore.probe_many` issues one indexed query per shard instead
of one read per cell.

A store is opened by a plain directory path or a ``sqlite:PATH`` URI;
any other ``scheme:`` prefix is refused.  The ``sqlite-store.json`` marker
written at creation records the shard count.

Every payload embeds a SHA-256 checksum of its job description and result
body, so :meth:`ResultStore.probe` distinguishes a plain *miss* from
on-disk *corruption* (torn write, bit rot, truncation) and from a cell
that is merely *unreadable* right now (transient I/O error — never
quarantined); corrupt cells are never served, are excluded from
:meth:`keys`/``len``/``in``, and can be scanned, quarantined and
re-simulated by :meth:`ResultStore.fsck`
(``python -m repro store fsck [--repair]``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from .result import RunResult

#: Bump when the on-disk layout of a stored result changes.
#: Format 2 added the embedded payload checksum and the re-simulation job
#: description (format-1 cells read as ``stale`` and are re-simulated).
STORE_FORMAT = 2

#: ``probe`` statuses.
CELL_OK = "ok"                    # readable, checksum verified
CELL_MISS = "miss"                # no cell for this key
CELL_STALE = "stale"              # older STORE_FORMAT; treated as a miss
CELL_CORRUPT = "corrupt"          # verified-bad bytes (checksum/body/JSON)
CELL_UNREADABLE = "unreadable"    # transient read error (EACCES/EIO/lock);
                                  # the bytes were never seen, so the cell
                                  # is *not* treated as damaged


def _digest_tree(root: Path) -> str:
    """Digest of every ``*.py`` under ``root`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def model_fingerprint() -> str:
    """Digest of the simulator's own source code.

    Folded into every :meth:`~repro.sim.sweep.SweepJob.cache_key`, so cached
    cells auto-invalidate whenever the model changes — editing any module of
    the ``repro`` package simply makes every old key unreachable (stale
    files linger until ``python -m repro store --clear`` but are never
    served).  The whole package is hashed rather than a curated module list:
    a few spurious invalidations (e.g. a CLI-only edit) are far cheaper than
    one stale result after a model change.

    Computed once per process (~1 ms); in an installed (non-editable) tree
    the sources are just the package files, so the digest is stable across
    machines for the same code.
    """
    return _digest_tree(Path(__file__).resolve().parent.parent)

#: Default store location (relative to the current working directory);
#: override with the ``REPRO_STORE`` environment variable, the CLI
#: ``--store`` flag or an explicit :class:`ResultStore`.
DEFAULT_STORE_DIR = ".repro-store"

#: Marker file identifying a directory as a SQLite store (records the
#: shard count, so reopening by plain path picks the right layout).
SQLITE_MARKER = "sqlite-store.json"

#: Shard databases per SQLite store.  Sharding bounds per-database size
#: and write contention; the count is frozen into the marker at creation.
DEFAULT_SQLITE_SHARDS = 16

#: How long a writer waits on a locked shard before giving up.
SQLITE_BUSY_TIMEOUT_MS = 30_000

#: Keys per ``IN (...)`` clause — safely below SQLite's historic 999
#: bound variable limit, so one shard's batch is usually one query.
_SQLITE_CHUNK = 900

#: Cells per backend round-trip when scanning a whole store.
_SCAN_BATCH = 1024

#: Verified contents a store remembers as hydrating, so its scans decode
#: each content once.  At the cap an arbitrary entry makes room.
_PROVEN_CAP = 1 << 15


def default_store_root() -> str:
    """Resolve the default store root or URI (``REPRO_STORE`` wins)."""
    return os.environ.get("REPRO_STORE", DEFAULT_STORE_DIR)


class StoreReadOnlyError(RuntimeError):
    """A write was attempted on a store opened with ``read_only=True``."""


def _check_key(key: str) -> str:
    if not key or any(c in key for c in "/\\."):
        raise ValueError(f"malformed store key {key!r}")
    return key


def _payload_checksum(job: Optional[Dict[str, Any]],
                      result: Dict[str, Any]) -> str:
    """Checksum covering everything that matters in a stored cell."""
    canonical = json.dumps({"job": job, "result": result}, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _text_checksum(job: Optional[str], result: str) -> str:
    """:func:`_payload_checksum` of a cell whose ``job``/``result`` are
    already canonical JSON text: ``"job"`` sorts before ``"result"``, so
    the canonical document is the two texts in a fixed frame."""
    canonical = ('{"job":' + ("null" if job is None else job)
                 + ',"result":' + result + "}")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# backend
# ---------------------------------------------------------------------------
#: :class:`CellRecord` dispositions (what a backend fetch yielded).
REC_PAYLOAD = "payload"           # a payload document was read
REC_MISS = "miss"                 # nothing stored under the key
REC_UNREADABLE = "unreadable"     # storage-level read error; bytes unseen
REC_UNPARSEABLE = "unparseable"   # bytes read but not a JSON object


class CellRecord:
    """One backend fetch: a payload document, or why there is none.

    A SQLite row arrives as its stored ``columns`` — ``(format, checksum,
    job text, result text)`` — and the payload document is decoded from
    them only when ``payload``, ``disposition`` or ``raw`` is first read,
    so a scan that verifies the texts directly never builds it.  Column
    text that does not decode turns the record :data:`REC_UNPARSEABLE`
    with that text as ``raw``.
    """

    __slots__ = ("key", "error", "columns", "_disposition", "_payload",
                 "_raw")

    def __init__(self, key: str, disposition: str,
                 payload: Optional[Dict[str, Any]] = None,
                 raw: Optional[str] = None, error: str = "",
                 columns: Optional[Tuple[Any, Any, Any, Any]] = None
                 ) -> None:
        self.key = key
        self.error = error
        self.columns = columns
        self._disposition = disposition    # one of the ``REC_*`` constants
        self._payload = payload
        self._raw = raw                    # original text of unparseable cells

    def _decode(self) -> None:
        if self.columns is None:
            return
        fmt, checksum, job, result = self.columns
        self.columns = None
        docs = []
        for text in (job, result):
            try:
                docs.append(None if text is None else json.loads(text))
            except ValueError:
                # The undecodable text stands in for the cell, so it stays
                # unparseable when it is quarantined.
                self._disposition, self._raw = REC_UNPARSEABLE, text
                return
        self._payload = {"format": fmt, "key": self.key,
                         "checksum": checksum, "job": docs[0],
                         "result": docs[1]}

    @property
    def disposition(self) -> str:
        self._decode()
        return self._disposition

    @property
    def payload(self) -> Optional[Dict[str, Any]]:
        self._decode()
        return self._payload

    @property
    def raw(self) -> Optional[str]:
        self._decode()
        return self._raw


def _chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SqliteBackend:
    """Raw payload-document storage: N shard SQLite databases (WAL mode)
    under one root directory.

    A backend moves whole payload documents (plain dicts) and never
    interprets checksums or formats — integrity semantics live in
    :class:`ResultStore`.  Cells live in ``cells(key PRIMARY KEY, format,
    checksum, job, result, extra)``: regular payload documents are stored
    columnar (``job`` / ``result`` as canonical JSON text, re-verified
    against ``checksum`` on every read), while irregular payloads and raw
    garbage land verbatim in ``extra``, so a damaged cell keeps its probe
    status.  Quarantined cells move into a per-shard ``quarantine`` table
    whose autoincrement id naturally uniquifies repeated quarantines of
    one key.

    WAL journaling plus a generous busy timeout make concurrent
    multi-process writers safe: readers never block writers, and a writer
    blocked on a shard retries for :data:`SQLITE_BUSY_TIMEOUT_MS` before
    surfacing an error.  All reads are batched per shard
    (:meth:`fetch_many` issues one indexed query per shard per
    :data:`_SQLITE_CHUNK` keys); ``select_queries`` counts those
    round-trips so tests can pin the batching.

    Opened with ``read_only=True``, every mutation raises
    :class:`StoreReadOnlyError` and the shards are opened ``mode=ro``, so
    a long-lived reader (``repro serve``) can share a store with
    concurrent sweep writers without ever racing them.
    """

    kind = "sqlite"

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS cells ("
        " key TEXT PRIMARY KEY, format INTEGER, checksum TEXT,"
        " job TEXT, result TEXT, extra TEXT)",
        "CREATE TABLE IF NOT EXISTS quarantine ("
        " qid INTEGER PRIMARY KEY AUTOINCREMENT, key TEXT NOT NULL,"
        " payload TEXT, quarantined_at REAL)",
    )

    def __init__(self, root: Union[str, Path],
                 shards: Optional[int] = None,
                 read_only: bool = False) -> None:
        self.root = Path(root)
        self.read_only = read_only
        self.shards = shards or DEFAULT_SQLITE_SHARDS
        marker = self.root / SQLITE_MARKER
        if marker.is_file():
            try:
                recorded = json.loads(marker.read_text()).get("shards")
                if isinstance(recorded, int) and recorded > 0:
                    self.shards = recorded
            except (OSError, ValueError):
                pass
        self._conns: Dict[int, sqlite3.Connection] = {}
        #: Serialises all connection use: sqlite3 connections are not
        #: thread-safe by themselves, but sharing them across threads is
        #: fine when every operation holds this lock — which is what lets
        #: a ThreadingHTTPServer (``repro serve``) share one backend.
        self._lock = threading.RLock()
        #: Instrumentation: SELECT round-trips — the store suite pins "one
        #: batched query per shard".
        self.select_queries = 0

    # -- plumbing ----------------------------------------------------------
    def _check_writable(self) -> None:
        if self.read_only:
            raise StoreReadOnlyError(
                f"store {self.root} was opened read-only")

    def shard_of(self, key: str) -> int:
        try:
            return int(key[:2], 16) % self.shards
        except ValueError:
            return sum(key.encode("utf-8", "replace")) % self.shards

    def _db_path(self, shard: int) -> Path:
        return self.root / f"shard-{shard:02d}.db"

    def location(self, key: str) -> str:
        """The shard database a cell lives in."""
        return str(self._db_path(self.shard_of(_check_key(key))))

    def _ensure_root(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / SQLITE_MARKER
        if not marker.exists():
            marker.write_text(json.dumps(
                {"backend": "sqlite", "version": 1, "shards": self.shards},
                sort_keys=True) + "\n")

    def _conn(self, shard: int,
              create: bool = False) -> Optional[sqlite3.Connection]:
        conn = self._conns.get(shard)
        if conn is not None:
            return conn
        path = self._db_path(shard)
        if not create and not path.exists():
            return None
        if create:
            self._check_writable()
            self._ensure_root()
        if self.read_only:
            # mode=ro: the connection itself cannot create or modify the
            # database file, so read-only really is enforced by SQLite,
            # not just by the _check_writable guards.
            conn = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True,
                timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
                check_same_thread=False)
            conn.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
            self._conns[shard] = conn
            return conn
        conn = sqlite3.connect(str(path),
                               timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA synchronous=NORMAL")
        for statement in self._SCHEMA:
            conn.execute(statement)
        conn.commit()
        self._conns[shard] = conn
        return conn

    def close(self) -> None:
        with self._lock:
            for conn in self._conns.values():
                try:
                    conn.close()
                except sqlite3.Error:  # pragma: no cover - defensive
                    pass
            self._conns.clear()

    # -- payload <-> row ---------------------------------------------------
    @staticmethod
    def _regular(key: str, payload: Dict[str, Any]) -> bool:
        """Whether a payload maps onto the columns without loss."""
        if set(payload) != {"format", "key", "checksum", "job", "result"}:
            return False
        fmt, checksum = payload["format"], payload["checksum"]
        job, result = payload["job"], payload["result"]
        return (payload["key"] == key
                and isinstance(fmt, int) and not isinstance(fmt, bool)
                and (checksum is None or isinstance(checksum, str))
                and (job is None or isinstance(job, dict))
                and isinstance(result, dict))

    def _row_of(self, key: str, payload: Dict[str, Any]) -> tuple:
        if self._regular(key, payload):
            job = payload["job"]
            return (key, payload["format"], payload["checksum"],
                    None if job is None else _canonical(job),
                    _canonical(payload["result"]), None)
        return (key, None, None, None, None, _canonical(payload))

    @staticmethod
    def _record_of(key: str, fmt: Any, checksum: Any, job: Any,
                   result: Any, extra: Any) -> CellRecord:
        if extra is not None:
            try:
                payload = json.loads(extra)
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
            except ValueError:
                return CellRecord(key, REC_UNPARSEABLE, raw=extra)
            return CellRecord(key, REC_PAYLOAD, payload=payload, raw=extra)
        return CellRecord(key, REC_PAYLOAD,
                          columns=(fmt, checksum, job, result))

    # -- reads -------------------------------------------------------------
    def fetch(self, key: str) -> CellRecord:
        return self.fetch_many([key])[key]

    def fetch_many(self, keys: Sequence[str]) -> Dict[str, CellRecord]:
        """Batched read: one :class:`CellRecord` per requested key."""
        out: Dict[str, CellRecord] = {}
        by_shard: Dict[int, List[str]] = {}
        for key in dict.fromkeys(keys):
            by_shard.setdefault(self.shard_of(key), []).append(key)
        with self._lock:
            for shard, shard_keys in sorted(by_shard.items()):
                conn = self._conn(shard)
                if conn is None:
                    continue
                for chunk in _chunks(shard_keys, _SQLITE_CHUNK):
                    marks = ",".join("?" for _ in chunk)
                    try:
                        self.select_queries += 1
                        rows = conn.execute(
                            f"SELECT key, format, checksum, job, result, "
                            f"extra FROM cells WHERE key IN ({marks})",
                            tuple(chunk)).fetchall()
                    except sqlite3.Error as exc:
                        for key in chunk:
                            out[key] = CellRecord(
                                key, REC_UNREADABLE,
                                error=f"{type(exc).__name__}: {exc}")
                        continue
                    for row in rows:
                        out[row[0]] = self._record_of(*row)
        for key in keys:
            if key not in out:
                out[key] = CellRecord(key, REC_MISS)
        return out

    def all_keys(self) -> List[str]:
        """Every stored key — healthy or not — in sorted order."""
        keys: List[str] = []
        with self._lock:
            for shard in range(self.shards):
                conn = self._conn(shard)
                if conn is None:
                    continue
                try:
                    self.select_queries += 1
                    keys.extend(row[0] for row in
                                conn.execute("SELECT key FROM cells"))
                except sqlite3.Error:
                    continue
        return sorted(keys)

    # -- writes ------------------------------------------------------------
    def _insert(self, rows: Sequence[tuple]) -> None:
        """Write ``cells`` rows, one transaction per shard."""
        self._check_writable()
        by_shard: Dict[int, List[tuple]] = {}
        for row in rows:
            by_shard.setdefault(self.shard_of(row[0]), []).append(row)
        with self._lock:
            for shard, shard_rows in sorted(by_shard.items()):
                conn = self._conn(shard, create=True)
                with conn:
                    conn.executemany(
                        "INSERT OR REPLACE INTO cells "
                        "(key, format, checksum, job, result, extra) "
                        "VALUES (?, ?, ?, ?, ?, ?)", shard_rows)

    def store_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        self._insert([self._row_of(_check_key(key), payload)
                      for key, payload in items])

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist a payload document verbatim (last writer wins)."""
        self.store_many([(key, payload)])

    def store_raw(self, key: str, text: str) -> None:
        """Persist raw text under ``key``; the text need not be valid JSON
        (corruption tests)."""
        self._insert([(_check_key(key), None, None, None, None, text)])

    # -- quarantine --------------------------------------------------------
    def quarantine(self, key: str) -> Optional[str]:
        """Move a cell into its shard's ``quarantine`` table, keeping its
        bytes for post-mortems; ``None`` if the cell vanished or could
        not be moved."""
        self._check_writable()
        record = self.fetch(key)
        if record.disposition in (REC_MISS, REC_UNREADABLE):
            return None
        if record.raw is not None:
            text = record.raw
        else:
            text = json.dumps(record.payload, sort_keys=True)
        with self._lock:
            conn = self._conn(self.shard_of(key), create=True)
            try:
                with conn:
                    cursor = conn.execute(
                        "INSERT INTO quarantine "
                        "(key, payload, quarantined_at) "
                        "VALUES (?, ?, ?)", (key, text, time.time()))
                    conn.execute("DELETE FROM cells WHERE key = ?", (key,))
            except sqlite3.Error:      # pragma: no cover - locked shard
                return None
            return (f"{self._db_path(self.shard_of(key))}"
                    f"#quarantine-{cursor.lastrowid}")

    def quarantine_stats(self) -> Tuple[int, int]:
        cells = total = 0
        with self._lock:
            for shard in range(self.shards):
                conn = self._conn(shard)
                if conn is None:
                    continue
                try:
                    count, size = conn.execute(
                        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                        "FROM quarantine").fetchone()
                except sqlite3.Error:  # pragma: no cover - locked shard
                    continue
                cells += count
                total += size
        return cells, total

    def purge_quarantine(self) -> int:
        self._check_writable()
        removed = 0
        with self._lock:
            for shard in range(self.shards):
                conn = self._conn(shard)
                if conn is None:
                    continue
                with conn:
                    removed += conn.execute(
                        "DELETE FROM quarantine").rowcount
        return removed

    def clear(self) -> int:
        """Delete every cell and quarantined copy; returns how many *cells*
        were removed."""
        self._check_writable()
        removed = 0
        with self._lock:
            for shard in range(self.shards):
                conn = self._conn(shard)
                if conn is None:
                    continue
                with conn:
                    removed += conn.execute("DELETE FROM cells").rowcount
                    conn.execute("DELETE FROM quarantine")
        return removed


# ---------------------------------------------------------------------------
# opening a store
# ---------------------------------------------------------------------------
#: A ``scheme:`` prefix on a store string (``sqlite:``, ``json:``, ...).
_SCHEME = re.compile(r"([A-Za-z][A-Za-z0-9+.-]*):")


def resolve_backend(root: Union[str, Path, None],
                    read_only: bool = False) -> SqliteBackend:
    """Build the backend for a store path or ``sqlite:PATH`` URI.

    Any other ``scheme:`` prefix raises :class:`ValueError` rather than
    naming a directory after the scheme.
    """
    raw = default_store_root() if root is None else root
    if isinstance(raw, str):
        scheme = _SCHEME.match(raw)
        if scheme is not None:
            if scheme.group(1) != "sqlite":
                raise ValueError(
                    f"unsupported store URI {raw!r}: a store is a "
                    f"directory path or a sqlite:PATH URI")
            raw = raw[scheme.end():]
    return SqliteBackend(raw, read_only=read_only)


# ---------------------------------------------------------------------------
# fsck reporting
# ---------------------------------------------------------------------------
@dataclass
class CellIssue:
    """One unhealthy cell found by :meth:`ResultStore.fsck`."""

    key: str
    status: str            # CELL_CORRUPT, CELL_STALE or CELL_UNREADABLE
    path: str
    quarantined_to: Optional[str] = None
    repaired: bool = False
    error: str = ""

    def as_dict(self) -> dict:
        return {"key": self.key, "status": self.status, "path": self.path,
                "quarantined_to": self.quarantined_to,
                "repaired": self.repaired, "error": self.error}


@dataclass
class FsckReport:
    """Outcome of a store scan: what was healthy, broken, fixed."""

    root: str
    backend: str = "sqlite"
    scanned: int = 0
    ok: int = 0
    issues: List[CellIssue] = field(default_factory=list)
    quarantined_cells: int = 0
    quarantine_bytes: int = 0
    purged_quarantine: int = 0

    @property
    def corrupt(self) -> List[CellIssue]:
        return [i for i in self.issues if i.status == CELL_CORRUPT]

    @property
    def stale(self) -> List[CellIssue]:
        return [i for i in self.issues if i.status == CELL_STALE]

    @property
    def unreadable(self) -> List[CellIssue]:
        return [i for i in self.issues if i.status == CELL_UNREADABLE]

    @property
    def repaired(self) -> List[CellIssue]:
        return [i for i in self.issues if i.repaired]

    @property
    def unrepaired_corrupt(self) -> List[CellIssue]:
        return [i for i in self.corrupt if not i.repaired]

    @property
    def clean(self) -> bool:
        """No corruption left unrepaired.  Stale formats and unreadable
        cells do not make a store unhealthy — stale
        cells are never served, and an unreadable cell is a transient I/O
        condition, not evidence of damage."""
        return not self.unrepaired_corrupt

    def as_dict(self) -> dict:
        return {"root": self.root, "backend": self.backend,
                "scanned": self.scanned, "ok": self.ok,
                "issues": [issue.as_dict() for issue in self.issues],
                "quarantined_cells": self.quarantined_cells,
                "quarantine_bytes": self.quarantine_bytes,
                "purged_quarantine": self.purged_quarantine,
                "clean": self.clean}

    def summary(self) -> str:
        parts = [f"{self.scanned} cells scanned, {self.ok} ok"]
        if self.corrupt:
            parts.append(f"{len(self.corrupt)} corrupt "
                         f"({len(self.repaired)} repaired)")
        if self.stale:
            parts.append(f"{len(self.stale)} stale-format")
        if self.unreadable:
            parts.append(f"{len(self.unreadable)} unreadable "
                         f"(transient; not quarantined)")
        if self.purged_quarantine:
            parts.append(f"{self.purged_quarantine} quarantined "
                         f"cell(s) purged")
        if self.quarantined_cells:
            parts.append(f"quarantine holds {self.quarantined_cells} "
                         f"cell(s), {self.quarantine_bytes} bytes")
        return ", ".join(parts)


class ResultStore:
    """Cache of :class:`RunResult` cells behind a :class:`SqliteBackend`.

    ``root`` may be a directory path, a ``sqlite:PATH`` URI, or ``None``
    for the ``REPRO_STORE`` default (see :func:`resolve_backend`).  Pass
    ``backend=`` to adopt a pre-built backend directly.
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 backend: Optional[SqliteBackend] = None,
                 read_only: bool = False) -> None:
        self.backend = backend if backend is not None \
            else resolve_backend(root, read_only=read_only)
        #: Verified contents seen to hydrate: ``(checksum, length of the
        #: result text, or None for a decoded payload)``.  Asked only once
        #: the checksum matched the stored bytes, so it never passes damage.
        self._proven: Set[Tuple[str, Optional[int]]] = set()
        self._proven_lock = threading.Lock()

    @property
    def root(self) -> Path:
        return self.backend.root

    @property
    def read_only(self) -> bool:
        """Whether this store refuses writes (see ``read_only=True``)."""
        return self.backend.read_only

    # ------------------------------------------------------------------
    # mapping-ish interface
    # ------------------------------------------------------------------
    def _classify(self, record: CellRecord, hydrate: bool = True
                  ) -> Tuple[str, Optional[RunResult]]:
        """Verify one fetched cell: ``(status, result)``.

        With ``hydrate=False`` (store scans, which need the status only)
        the result is always ``None``, and a verified cell whose content
        already hydrated through this store is not decoded again; the
        checksum is still recomputed from the stored bytes every time.
        """
        columns = record.columns
        if columns is not None:
            # Stored column texts are canonical, so the checksum verifies
            # on them directly; only a mismatch (damage, or equal JSON in
            # another spelling) pays for decoding and re-encoding below.
            fmt, checksum, job, result = columns
            if (fmt == STORE_FORMAT and isinstance(result, str)
                    and (job is None or isinstance(job, str))
                    and checksum == _text_checksum(job, result)):
                # The checksum covers the framed job+result text, so the
                # result's length pins where the frame splits: a job text
                # that swallowed part of the result cannot borrow a proof.
                return self._hydrated((checksum, len(result)), result,
                                      hydrate, text=True)
        if record.disposition == REC_MISS:
            return CELL_MISS, None
        if record.disposition == REC_UNREADABLE:
            return CELL_UNREADABLE, None
        if record.disposition == REC_UNPARSEABLE:
            return CELL_CORRUPT, None
        payload = record.payload
        if payload.get("format") != STORE_FORMAT:
            return CELL_STALE, None
        checksum = payload.get("checksum")
        expected = _payload_checksum(payload.get("job"),
                                     payload.get("result"))
        if checksum != expected:
            return CELL_CORRUPT, None
        return self._hydrated((checksum, None), payload.get("result"),
                              hydrate, text=False)

    def _hydrated(self, proof: Tuple[str, Optional[int]], body: Any,
                  hydrate: bool, text: bool
                  ) -> Tuple[str, Optional[RunResult]]:
        """Status of a checksum-verified result ``body`` (its JSON text
        when ``text``), with the :class:`RunResult` when ``hydrate``.

        Without ``hydrate`` a ``proof`` already seen to hydrate is not
        decoded again.
        """
        if not hydrate and proof in self._proven:
            return CELL_OK, None
        try:
            result = RunResult.from_dict(json.loads(body) if text else body)
        except (KeyError, TypeError, ValueError):
            return CELL_CORRUPT, None
        with self._proven_lock:
            if len(self._proven) >= _PROVEN_CAP:
                self._proven.pop()
            self._proven.add(proof)
        return CELL_OK, result if hydrate else None

    def probe(self, key: str) -> Tuple[str, Optional[RunResult]]:
        """Load ``key`` distinguishing *miss* from *corruption*.

        Returns ``(status, result)`` where status is one of
        :data:`CELL_OK` (result attached), :data:`CELL_MISS` (no cell),
        :data:`CELL_STALE` (older store format — unusable but not
        damaged), :data:`CELL_UNREADABLE` (storage-level read error — the
        bytes were never seen, so the cell is *not* treated as damaged) or
        :data:`CELL_CORRUPT` (unreadable JSON, checksum mismatch, or a
        body :class:`RunResult` cannot hydrate).
        """
        return self.read_cell(key)[:2]

    def read_cell(self, key: str
                  ) -> Tuple[str, Optional[RunResult], CellRecord]:
        """:meth:`probe` plus the fetched :class:`CellRecord`, so a caller
        that also serves a healthy cell's checksum and job description
        (``GET /v1/cells/<key>``) reads the backend once."""
        _check_key(key)
        record = self.backend.fetch_many([key])[key]
        return (*self._classify(record), record)

    def probe_many(self, keys: Sequence[str]
                   ) -> Dict[str, Tuple[str, Optional[RunResult]]]:
        """Batched :meth:`probe`: one backend round-trip per shard instead
        of one read per cell — the sweep dedup pass at ``run_jobs``
        start-up uses this, so a warm 10k-cell sweep issues a handful of
        indexed queries."""
        unique = list(dict.fromkeys(_check_key(key) for key in keys))
        records = self.backend.fetch_many(unique)
        return {key: self._classify(records[key]) for key in unique}

    def get(self, key: str) -> Optional[RunResult]:
        """Cached result for ``key``, or ``None`` (use :meth:`probe` to
        tell a miss from corruption)."""
        return self.probe(key)[1]

    def _payload_of(self, key: str, result: RunResult,
                    job: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        result_dict = result.as_dict()
        return {"format": STORE_FORMAT, "key": key,
                "checksum": _payload_checksum(job, result_dict),
                "job": job, "result": result_dict}

    def put(self, key: str, result: RunResult,
            job: Optional[Dict[str, Any]] = None) -> None:
        """Persist ``result`` under ``key`` (atomic, last writer wins).

        ``job`` is the optional re-simulation description
        (:meth:`~repro.sim.sweep.SweepJob.spec_dict`); when present,
        ``fsck --repair`` can rebuild and re-run the cell's job after
        corruption.  The embedded checksum covers both blocks.
        """
        self.backend.store(_check_key(key), self._payload_of(key, result, job))

    def put_many(self, items: Sequence[Tuple[str, RunResult,
                                             Optional[Dict[str, Any]]]]
                 ) -> None:
        """Batched :meth:`put`: one transaction per shard on SQLite."""
        self.backend.store_many(
            [(key, self._payload_of(_check_key(key), result, job))
             for key, result, job in items])

    # -- raw payload access (fault injection, repair) ----------------------
    def read_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Best-effort payload document, even when its checksum no longer
        matches; ``None`` when the cell is missing or unparseable."""
        return self.backend.fetch(_check_key(key)).payload

    def write_payload(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist a payload document verbatim — no checksum recompute, so
        deliberately inconsistent payloads (fault injection) stay
        inconsistent."""
        self.backend.store(_check_key(key), payload)

    def job_spec(self, key: str) -> Optional[Dict[str, Any]]:
        """Best-effort read of a cell's re-simulation description.

        Works even when the checksum no longer matches (the whole point:
        repairing a corrupt cell), but not when the payload itself is
        unreadable.
        """
        payload = self.read_payload(key)
        if payload is None:
            return None
        spec = payload.get("job")
        return spec if isinstance(spec, dict) else None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> Iterator[str]:
        """Keys of the *servable* cells, in sorted order.

        Consistent with :meth:`get`/``in``: a cell that would not load
        (corrupt bytes, stale format, unreadable storage) is not iterated
        and not counted by ``len``, so ``all(k in store for k in
        store.keys())`` always holds.  Use :meth:`fsck` to see the
        unhealthy cells too.
        """
        for key, status in self.scan():
            if status == CELL_OK:
                yield key

    def scan(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(key, status)`` for every stored cell, sorted, reading
        in backend-sized batches."""
        all_keys = self.backend.all_keys()
        for chunk in _chunks(all_keys, _SCAN_BATCH):
            records = self.backend.fetch_many(chunk)
            for key in chunk:
                yield key, self._classify(records[key], hydrate=False)[0]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every cached result, including quarantined copies;
        returns how many results were removed."""
        return self.backend.clear()

    # ------------------------------------------------------------------
    # hygiene: quarantine, integrity checking
    # ------------------------------------------------------------------
    def quarantine(self, key: str) -> Optional[str]:
        """Move a cell out of the served namespace but preserve it for
        post-mortems (a row of its shard's quarantine table).
        Repeated quarantines of one key keep every copy.  Returns the new
        location, or ``None`` if the cell vanished."""
        return self.backend.quarantine(_check_key(key))

    def quarantine_stats(self) -> Tuple[int, int]:
        """``(cells, bytes)`` currently held in quarantine."""
        return self.backend.quarantine_stats()

    def purge_quarantine(self) -> int:
        """Drop every quarantined post-mortem copy; returns the count."""
        return self.backend.purge_quarantine()

    def fsck(self, repair: bool = False, quarantine: bool = True,
             purge_quarantine: bool = False) -> FsckReport:
        """Scan every cell; report, quarantine and optionally repair.

        * Corrupt cells (verified-bad bytes: unparseable payload, checksum
          mismatch, bad body) are quarantined (unless ``quarantine=False``)
          and — with ``repair=True`` and an intact job description —
          re-simulated through the sweep engine and rewritten in place.
          Re-simulation is deterministic, so a repaired cell is
          bit-identical to what the original writer stored.
        * Unreadable cells (storage-level read errors) are reported but
          **never** quarantined or repaired: the bytes were never seen, so
          treating a transient ``EACCES``/``EIO`` as corruption would
          destroy a healthy cell.
        * Stale-format cells are reported (they are never served; a sweep
          re-simulates them on demand).
        * Quarantine occupancy is always reported, and emptied when
          ``purge_quarantine=True``.

        The scan reads in batches — one indexed query per shard — so
        paper-scale stores fsck in seconds.
        """
        report = FsckReport(root=str(self.root), backend=self.backend.kind)
        for key, status in list(self.scan()):
            report.scanned += 1
            if status == CELL_OK:
                report.ok += 1
                continue
            if status == CELL_MISS:      # pragma: no cover - raced unlink
                continue
            issue = CellIssue(key=key, status=status,
                              path=self.backend.location(key))
            if status == CELL_UNREADABLE:
                issue.error = ("cell could not be read (transient I/O "
                               "error); left in place")
            if status == CELL_CORRUPT:
                spec = self.job_spec(key) if repair else None
                if quarantine:
                    moved = self.quarantine(key)
                    issue.quarantined_to = moved
                if repair:
                    if spec is None:
                        issue.error = ("no readable job description; "
                                       "cannot re-simulate")
                    else:
                        try:
                            from .sweep import job_from_spec

                            job = job_from_spec(spec)
                            self.put(key, job.run(), job=spec)
                            issue.repaired = True
                        except Exception as exc:
                            issue.error = (f"re-simulation failed: "
                                           f"{type(exc).__name__}: {exc}")
            report.issues.append(issue)
        if purge_quarantine:
            report.purged_quarantine = self.purge_quarantine()
        report.quarantined_cells, report.quarantine_bytes = \
            self.quarantine_stats()
        return report

    def stats_dict(self) -> Dict[str, Any]:
        """Machine-readable store summary (one full scan).

        The same payload serves ``python -m repro store stats --json``,
        the serve layer's ``/v1/health`` endpoint and CI gates, so store
        health never has to be scraped out of human-oriented text.
        """
        by_status = {CELL_OK: 0, CELL_STALE: 0, CELL_CORRUPT: 0,
                     CELL_UNREADABLE: 0}
        for _, status in self.scan():
            if status in by_status:
                by_status[status] += 1
        quarantined, quarantine_bytes = self.quarantine_stats()
        return {
            "root": str(self.root),
            "backend": self.backend.kind,
            "read_only": self.read_only,
            "cells": sum(by_status.values()),
            "ok": by_status[CELL_OK],
            "stale": by_status[CELL_STALE],
            "corrupt": by_status[CELL_CORRUPT],
            "unreadable": by_status[CELL_UNREADABLE],
            "quarantined_cells": quarantined,
            "quarantine_bytes": quarantine_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.root)!r}, "
                f"backend={self.backend.kind!r}, {len(self)} results)")


def open_store(store: Union["ResultStore", str, Path, None]
               ) -> Optional[ResultStore]:
    """Coerce a store argument: ``None`` stays ``None`` (caching off),
    paths and ``sqlite:`` URIs become stores, stores pass through."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
