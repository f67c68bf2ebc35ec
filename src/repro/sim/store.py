"""Persistent result store: one SQLite database behind one cell-cache API.

Every sweep cell is deterministic given its :meth:`SweepJob.cache_key`
(design, workload spec, system configuration, trace length, seed, core
count), so results can be cached across processes and sessions.  A cell
is one row ``cells(key PRIMARY KEY, format, checksum, job, result)`` of a
:class:`SqliteBackend`: one database (``cells.db``) under the root, WAL
journaling + busy timeouts for safe concurrent multi-process writers,
and *batched* reads/writes: :meth:`ResultStore.probe_many` issues one
indexed query per :data:`_SQLITE_CHUNK` keys instead of one read per
cell.

A store is opened by a plain directory path or a ``sqlite:PATH`` URI;
any other ``scheme:`` prefix is refused.

Every row carries a SHA-256 checksum of its job description and result
text, so :meth:`ResultStore.probe` distinguishes a plain *miss* from
on-disk *corruption* (torn write, bit rot, truncation) and from a cell
that is merely *unreadable* right now (transient I/O error — never
quarantined); corrupt cells are never served, are excluded from
:meth:`keys`/``len``/``in``, and can be scanned, quarantined and
re-simulated by :meth:`ResultStore.fsck`
(``python -m repro store fsck [--repair]``).
"""

from __future__ import annotations

import bisect
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
#: Format 2 added the checksum and the re-simulation job
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

#: How long a writer waits on the locked database before giving up.
SQLITE_BUSY_TIMEOUT_MS = 30_000

#: Keys per ``IN (...)`` clause — safely below SQLite's historic 999
#: bound variable limit.
_SQLITE_CHUNK = 900

#: Cells per backend round-trip when scanning a whole store.
_SCAN_BATCH = 1024

#: Verified contents a store remembers as hydrating, so its scans decode
#: each content once.  At the cap an arbitrary entry makes room.  A store
#: of more cells than this keeps no scan index either (see
#: :meth:`ResultStore.scan`).
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


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _text_checksum(job: Optional[str], result: str) -> str:
    """Checksum covering everything that matters in a stored cell: the
    canonical document ``{"job": ..., "result": ...}`` of its canonical
    ``job``/``result`` texts, which is those texts in a fixed frame
    (``"job"`` sorts before ``"result"``)."""
    canonical = ('{"job":' + ("null" if job is None else job)
                 + ',"result":' + result + "}")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: A stored cell as :meth:`SqliteBackend.fetch_many` returns it: the
#: ``cells`` columns after the key, ``(format, checksum, job text, result
#: text)``.
Row = Tuple[Any, Any, Any, Any]

#: :meth:`SqliteBackend.state`: ``(connections opened, PRAGMA
#: data_version, total_changes)``.
State = Tuple[int, int, int]

#: What a JSON decode of stored text can raise: bad text, a value that
#: is not text at all, or nesting deeper than the decoder recurses.
_DECODE_ERRORS = (TypeError, ValueError, RecursionError)


# ---------------------------------------------------------------------------
# backend
# ---------------------------------------------------------------------------
def _chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


class SqliteBackend:
    """Row storage: one SQLite database (WAL mode), ``cells.db`` under
    the root directory.

    A backend moves ``cells`` rows verbatim and never interprets
    checksums or formats — integrity semantics live in
    :class:`ResultStore`.  Cells live in ``cells(key PRIMARY KEY, format,
    checksum, job, result)``, ``job`` and ``result`` holding JSON text.
    Quarantined cells move into a ``quarantine`` table whose
    autoincrement id naturally uniquifies repeated quarantines of one
    key.

    WAL journaling plus a generous busy timeout make concurrent
    multi-process writers safe: readers never block writers, and a writer
    blocked on the database retries for :data:`SQLITE_BUSY_TIMEOUT_MS`
    before surfacing an error.  All reads are batched (:meth:`fetch_many`
    issues one indexed query per :data:`_SQLITE_CHUNK` keys);
    ``select_queries`` counts those round-trips so tests can pin the
    batching.

    Opened with ``read_only=True``, every mutation raises
    :class:`StoreReadOnlyError` and the database is opened ``mode=ro``,
    so a long-lived reader (``repro serve``) can share a store with
    concurrent sweep writers without ever racing them.
    """

    kind = "sqlite"

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS cells ("
        " key TEXT PRIMARY KEY, format INTEGER, checksum TEXT,"
        " job TEXT, result TEXT)",
        "CREATE TABLE IF NOT EXISTS quarantine ("
        " qid INTEGER PRIMARY KEY AUTOINCREMENT, key TEXT NOT NULL,"
        " payload TEXT, quarantined_at REAL)",
    )

    def __init__(self, root: Union[str, Path],
                 read_only: bool = False) -> None:
        self.root = Path(root)
        self.path = self.root / "cells.db"
        self.read_only = read_only
        self._connection: Optional[sqlite3.Connection] = None
        #: Serialises all connection use: sqlite3 connections are not
        #: thread-safe by themselves, but sharing one across threads is
        #: fine when every operation holds this lock — which is what lets
        #: a ThreadingHTTPServer (``repro serve``) share one backend.
        self._lock = threading.RLock()
        #: Instrumentation: SELECT round-trips — the store suite pins the
        #: batching.
        self.select_queries = 0
        #: Connections opened so far; part of :meth:`state`, because a
        #: new connection restarts both of SQLite's counters.
        self._opened = 0

    # -- plumbing ----------------------------------------------------------
    def _check_writable(self) -> None:
        if self.read_only:
            raise StoreReadOnlyError(
                f"store {self.root} was opened read-only")

    def _conn(self, create: bool = False) -> Optional[sqlite3.Connection]:
        """The database connection, or ``None`` while the database does
        not exist and ``create`` is false."""
        if self._connection is not None:
            return self._connection
        if not create and not self.path.exists():
            return None
        if create:
            self._check_writable()
            self.root.mkdir(parents=True, exist_ok=True)
        if self.read_only:
            # mode=ro: the connection itself cannot create or modify the
            # database file, so read-only really is enforced by SQLite,
            # not just by the _check_writable guards.
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True,
                timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
                check_same_thread=False)
            conn.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
        else:
            conn = sqlite3.connect(str(self.path),
                                   timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
                                   check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA synchronous=NORMAL")
            for statement in self._SCHEMA:
                conn.execute(statement)
            conn.commit()
        self._connection = conn
        self._opened += 1
        return conn

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:  # pragma: no cover - defensive
                    pass
                self._connection = None

    # -- reads -------------------------------------------------------------
    def fetch_many(self, keys: Sequence[str]
                   ) -> Dict[str, Union[Row, sqlite3.Error]]:
        """Batched read: the :data:`Row` of each stored key, or the
        :class:`sqlite3.Error` that kept its chunk from being read.  A
        missing key is absent from the result."""
        out: Dict[str, Union[Row, sqlite3.Error]] = {}
        unique = list(dict.fromkeys(keys))
        with self._lock:
            conn = self._conn()
            if conn is None:
                return out
            for chunk in _chunks(unique, _SQLITE_CHUNK):
                marks = ",".join("?" for _ in chunk)
                try:
                    self.select_queries += 1
                    rows = conn.execute(
                        f"SELECT key, format, checksum, job, result "
                        f"FROM cells WHERE key IN ({marks})",
                        tuple(chunk)).fetchall()
                except sqlite3.Error as exc:
                    out.update(dict.fromkeys(chunk, exc))
                    continue
                for row in rows:
                    out[row[0]] = row[1:]
        return out

    def all_keys(self) -> Optional[List[str]]:
        """Every stored key — healthy or not — in sorted order, or
        ``None`` if the listing could not be read."""
        with self._lock:
            conn = self._conn()
            if conn is None:
                return []
            try:
                self.select_queries += 1
                return [row[0] for row in conn.execute(
                    "SELECT key FROM cells ORDER BY key")]
            except sqlite3.Error:
                return None

    def state(self) -> Optional[State]:
        """A token that moves whenever the database may have changed, or
        ``None`` while there is no database to read.

        ``PRAGMA data_version`` moves when any other connection or
        process commits; ``total_changes`` counts the rows this
        connection wrote; the count of opened connections tells a new
        connection, whose two counters restart, from the old one.
        """
        with self._lock:
            conn = self._conn()
            if conn is None:
                return None
            try:
                version = conn.execute("PRAGMA data_version").fetchone()[0]
            except sqlite3.Error:
                return None
            return self._opened, version, conn.total_changes

    # -- writes ------------------------------------------------------------
    def insert(self, rows: Sequence[tuple]) -> None:
        """Write ``(key, format, checksum, job, result)`` rows verbatim
        (last writer wins) in one transaction."""
        self._check_writable()
        for row in rows:
            _check_key(row[0])
        with self._lock:
            conn = self._conn(create=True)
            with conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO cells "
                    "(key, format, checksum, job, result) "
                    "VALUES (?, ?, ?, ?, ?)", rows)

    def insert_tracked(self, rows: Sequence[tuple]
                       ) -> Tuple[Optional[State], Optional[State]]:
        """:meth:`insert` plus the :meth:`state` just before and just
        after it, all under the lock that orders this connection's work,
        so no other write through this backend falls between the two."""
        with self._lock:
            before = self.state()
            self.insert(rows)
            return before, self.state()

    # -- quarantine --------------------------------------------------------
    def quarantine(self, key: str) -> Optional[str]:
        """Move a cell into the ``quarantine`` table, keeping its columns
        verbatim (a JSON object of the four, texts as strings) for
        post-mortems; ``None`` if the cell vanished or could not be
        moved."""
        self._check_writable()
        row = self.fetch_many([key]).get(key)
        if not isinstance(row, tuple):
            return None
        text = json.dumps(dict(zip(("format", "checksum", "job", "result"),
                                   row)), sort_keys=True, default=repr)
        with self._lock:
            conn = self._conn(create=True)
            try:
                with conn:
                    cursor = conn.execute(
                        "INSERT INTO quarantine "
                        "(key, payload, quarantined_at) "
                        "VALUES (?, ?, ?)", (key, text, time.time()))
                    conn.execute("DELETE FROM cells WHERE key = ?", (key,))
            except sqlite3.Error:      # pragma: no cover - locked database
                return None
            return f"{self.path}#quarantine-{cursor.lastrowid}"

    def quarantine_stats(self) -> Tuple[int, int]:
        with self._lock:
            conn = self._conn()
            if conn is None:
                return 0, 0
            try:
                count, size = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                    "FROM quarantine").fetchone()
            except sqlite3.Error:  # pragma: no cover - locked database
                return 0, 0
        return count, size

    def purge_quarantine(self) -> int:
        self._check_writable()
        with self._lock:
            conn = self._conn()
            if conn is None:
                return 0
            with conn:
                return conn.execute("DELETE FROM quarantine").rowcount

    def clear(self) -> int:
        """Delete every cell and quarantined copy; returns how many *cells*
        were removed."""
        self._check_writable()
        with self._lock:
            conn = self._conn()
            if conn is None:
                return 0
            with conn:
                removed = conn.execute("DELETE FROM cells").rowcount
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
        #: result text, or None for a row that verified re-encoded)``.
        #: Asked only once the checksum matched the stored bytes, so it
        #: never passes damage.
        self._proven: Set[Tuple[str, Optional[int]]] = set()
        self._proven_lock = threading.Lock()
        #: The sorted ``(key, status)`` pairs of the last full scan, and
        #: the backend :meth:`~SqliteBackend.state` they are exact at
        #: (both ``None`` while nothing is kept).  See :meth:`scan`.
        self._index: Optional[Tuple[Tuple[str, str], ...]] = None
        self._index_state: Optional[State] = None
        self._index_lock = threading.Lock()

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
    def _classify(self, row: Union[Row, sqlite3.Error, None],
                  hydrate: bool = True
                  ) -> Tuple[str, Optional[RunResult], Any]:
        """Verify one fetched row (``None`` for a miss): ``(status,
        result, job)``, ``job`` being the decoded job text of a hydrated
        healthy cell.

        With ``hydrate=False`` (store scans, which need the status only)
        the result and job are always ``None``, and a verified cell whose
        content already hydrated through this store is not decoded again;
        the checksum is still recomputed from the stored bytes every time.
        """
        if row is None:
            return CELL_MISS, None, None
        if isinstance(row, sqlite3.Error):
            return CELL_UNREADABLE, None, None
        fmt, checksum, job, result = row
        # Stored texts are canonical, so the checksum verifies on them
        # directly; only a mismatch (damage, an older format, or equal
        # JSON in another spelling) pays for re-encoding.
        verified = (fmt == STORE_FORMAT and isinstance(result, str)
                    and (job is None or isinstance(job, str))
                    and checksum == _text_checksum(job, result))
        # The checksum covers the framed job+result text, so the result's
        # length pins where the frame splits: a job text that swallowed
        # part of the result cannot borrow a proof.
        proof = (checksum, len(result) if verified else None)
        if verified and not hydrate and proof in self._proven:
            return CELL_OK, None, None
        try:
            docs = [None if text is None else json.loads(text)
                    for text in (job, result)]
            canonical = None if verified else [_canonical(d) for d in docs]
        except _DECODE_ERRORS:
            return CELL_CORRUPT, None, None
        if not verified:
            if fmt != STORE_FORMAT:
                return CELL_STALE, None, None
            if checksum != _text_checksum(*canonical):
                return CELL_CORRUPT, None, None
            if not hydrate and proof in self._proven:
                return CELL_OK, None, None
        try:
            loaded = RunResult.from_dict(docs[1])
        except (KeyError,) + _DECODE_ERRORS:
            return CELL_CORRUPT, None, None
        with self._proven_lock:
            if len(self._proven) >= _PROVEN_CAP:
                self._proven.pop()
            self._proven.add(proof)
        if not hydrate:
            return CELL_OK, None, None
        return CELL_OK, loaded, docs[0]

    def probe(self, key: str) -> Tuple[str, Optional[RunResult]]:
        """Load ``key`` distinguishing *miss* from *corruption*.

        Returns ``(status, result)`` where status is one of
        :data:`CELL_OK` (result attached), :data:`CELL_MISS` (no cell),
        :data:`CELL_STALE` (older store format — unusable but not
        damaged), :data:`CELL_UNREADABLE` (storage-level read error — the
        bytes were never seen, so the cell is *not* treated as damaged) or
        :data:`CELL_CORRUPT` (undecodable JSON, checksum mismatch, or a
        body :class:`RunResult` cannot hydrate).
        """
        return self.read_cell(key)[:2]

    def read_cell(self, key: str) -> Tuple[str, Optional[RunResult],
                                            Optional[str],
                                            Optional[Dict[str, Any]]]:
        """:meth:`probe` plus a healthy cell's checksum and job
        description (``None`` unless the job is an object), so a caller
        that serves all three (``GET /v1/cells/<key>``) reads the backend
        once."""
        row = self.backend.fetch_many([_check_key(key)]).get(key)
        status, result, job = self._classify(row)
        if status != CELL_OK:
            return status, None, None, None
        return (status, result, row[1],
                job if isinstance(job, dict) else None)

    def probe_many(self, keys: Sequence[str]
                   ) -> Dict[str, Tuple[str, Optional[RunResult]]]:
        """Batched :meth:`probe`: one backend round-trip per
        :data:`_SQLITE_CHUNK` keys instead of one read per cell — the
        sweep dedup pass at ``run_jobs`` start-up uses this, so a warm
        10k-cell sweep issues a dozen indexed queries."""
        unique = list(dict.fromkeys(_check_key(key) for key in keys))
        rows = self.backend.fetch_many(unique)
        return {key: self._classify(rows.get(key))[:2] for key in unique}

    def get(self, key: str) -> Optional[RunResult]:
        """Cached result for ``key``, or ``None`` (use :meth:`probe` to
        tell a miss from corruption)."""
        return self.probe(key)[1]

    @staticmethod
    def _cell_row(key: str, result: RunResult,
                  job: Optional[Dict[str, Any]]) -> tuple:
        job_text = None if job is None else _canonical(job)
        result_text = _canonical(result.as_dict())
        return (key, STORE_FORMAT, _text_checksum(job_text, result_text),
                job_text, result_text)

    def put(self, key: str, result: RunResult,
            job: Optional[Dict[str, Any]] = None) -> None:
        """Persist ``result`` under ``key`` (atomic, last writer wins).

        ``job`` is the optional re-simulation description
        (:meth:`~repro.sim.sweep.SweepJob.spec_dict`); when present,
        ``fsck --repair`` can rebuild and re-run the cell's job after
        corruption.  The stored checksum covers both texts.
        """
        self._insert([self._cell_row(key, result, job)])

    def put_many(self, items: Sequence[Tuple[str, RunResult,
                                             Optional[Dict[str, Any]]]]
                 ) -> None:
        """Batched :meth:`put`: one transaction."""
        self._insert([self._cell_row(key, result, job)
                      for key, result, job in items])

    def _insert(self, rows: List[tuple]) -> None:
        """Write ``rows``; while a scan index is kept, classify just these
        rows into it, so the next scan need not re-read the store."""
        if self._index is None:
            self.backend.insert(rows)
            return
        before, after = self.backend.insert_tracked(rows)
        written = [(row[0], self._classify(row[1:], hydrate=False)[0])
                   for row in rows]
        with self._index_lock:
            # Only this write may lie between the kept state and ``after``:
            # the same connection, and no commit by any other.
            if (before is None or before != self._index_state
                    or after is None or after[:2] != before[:2]):
                self._index = self._index_state = None
                return
            index = list(self._index)
            for pair in written:
                at = bisect.bisect_left(index, (pair[0],))
                if at < len(index) and index[at][0] == pair[0]:
                    index[at] = pair
                else:
                    index.insert(at, pair)
            if len(index) > _PROVEN_CAP:
                self._index = self._index_state = None
            else:
                self._index, self._index_state = tuple(index), after

    def job_spec(self, key: str) -> Optional[Dict[str, Any]]:
        """Best-effort read of a cell's re-simulation description.

        Works even when the checksum no longer matches (the whole point:
        repairing a corrupt cell); ``None`` when there is no row or its
        job text is absent, does not decode or is not an object.
        """
        row = self.backend.fetch_many([_check_key(key)]).get(key)
        if not isinstance(row, tuple) or row[2] is None:
            return None
        try:
            job = json.loads(row[2])
        except _DECODE_ERRORS:
            return None
        return job if isinstance(job, dict) else None

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

    def scan(self) -> Tuple[Tuple[str, str], ...]:
        """``(key, status)`` of every stored cell, sorted by key.

        Answered from the index of the last full scan while the backend
        :meth:`~SqliteBackend.state` has not moved since, so a scan of an
        unchanged store reads no row; :meth:`put`/:meth:`put_many` keep
        the index current for their own writes.  Any other change (a
        commit by another connection or process, or a quarantine, clear
        or purge through this one) moves the state, and the next scan
        re-reads the store.
        """
        state = self.backend.state()
        with self._index_lock:
            if state is not None and state == self._index_state:
                return self._index
        return self._full_scan()

    def _full_scan(self) -> Tuple[Tuple[str, str], ...]:
        """Read and verify every row, in backend-sized batches, and keep
        the result as the index at the state read before the first row.
        A write that races the scan moves the state past that, so such
        a scan is never served; one that could not read every row is
        not kept at all."""
        state = self.backend.state()
        all_keys = self.backend.all_keys()
        pairs = []
        for chunk in _chunks(all_keys or [], _SCAN_BATCH):
            records = self.backend.fetch_many(chunk)
            pairs.extend((key, self._classify(records.get(key),
                                              hydrate=False)[0])
                         for key in chunk)
        pairs = tuple(pairs)
        if (state is not None and all_keys is not None
                and len(pairs) <= _PROVEN_CAP
                and all(status != CELL_UNREADABLE for _, status in pairs)):
            with self._index_lock:
                self._index, self._index_state = pairs, state
        return pairs

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
        post-mortems (a row of the database's quarantine table).
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

        * Corrupt cells (verified-bad bytes: undecodable text, checksum
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

        The scan reads in batches — one indexed query per
        :data:`_SCAN_BATCH` cells — so paper-scale stores fsck in
        seconds.
        """
        report = FsckReport(root=str(self.root), backend=self.backend.kind)
        for key, status in self._full_scan():
            report.scanned += 1
            if status == CELL_OK:
                report.ok += 1
                continue
            if status == CELL_MISS:      # deleted since the key listing
                continue
            issue = CellIssue(key=key, status=status,
                              path=str(self.backend.path))
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

    def stats_dict(self, deep: bool = False) -> Dict[str, Any]:
        """Machine-readable store summary, counted over :meth:`scan`, or
        over a full re-read and re-hash of every row when ``deep``.

        The same payload serves ``python -m repro store stats --json``,
        the serve layer's ``/v1/health`` endpoint and CI gates, so store
        health never has to be scraped out of human-oriented text.
        """
        by_status = {CELL_OK: 0, CELL_STALE: 0, CELL_CORRUPT: 0,
                     CELL_UNREADABLE: 0}
        for _, status in self._full_scan() if deep else self.scan():
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
