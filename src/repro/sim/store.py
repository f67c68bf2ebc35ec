"""Persistent result store: pluggable backends behind one cell-cache API.

Every sweep cell is deterministic given its :meth:`SweepJob.cache_key`
(design, workload spec, system configuration, trace length, seed, core
count), so results can be cached across processes and sessions.  The store
keeps one *payload document* per key — ``{format, key, checksum, job,
result}`` — behind a :class:`StoreBackend`:

* :class:`JsonFileBackend` (the default) — one small JSON file per key
  under a root directory, atomic tempfile+rename writes.  Simple, greppable
  and safe for concurrent writers, but every probe is a file read, so
  paper-scale stores (millions of cells) pay a per-cell cost on every
  sweep start-up.
* :class:`SqliteBackend` — N shard databases (``shard-XX.db``) under the
  root, rows ``cells(key PRIMARY KEY, format, checksum, job, result)``,
  WAL journaling + busy timeouts for safe concurrent multi-process
  writers, and *batched* reads/writes: :meth:`ResultStore.probe_many`
  issues one indexed query per shard instead of one read per cell.

Select a backend with a store URI (``sqlite:PATH`` / ``json:PATH``) or the
``REPRO_STORE_BACKEND`` environment variable; an existing SQLite store is
auto-detected by its marker file, so plain paths keep working after a
``python -m repro store migrate`` (:func:`migrate_store` converts either
direction losslessly — same checksums, same probe statuses per cell).

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
import sqlite3
import tempfile
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

#: Age (seconds) past which an orphaned ``*.tmp`` file is considered stale
#: and safe to reap: no healthy writer holds a tempfile open anywhere near
#: this long, so only interrupted/killed writers leave older ones behind.
STALE_TMP_AGE_S = 600.0


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

#: ``REPRO_STORE_BACKEND``: default backend kind for plain store paths
#: (``json`` or ``sqlite``); a ``json:``/``sqlite:`` URI prefix wins.
BACKEND_ENV_VAR = "REPRO_STORE_BACKEND"

#: Subdirectory (under a JSON store root) corrupt cells are quarantined
#: into; the SQLite backend keeps a ``quarantine`` table per shard instead.
QUARANTINE_DIR = "quarantine"

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
# backend protocol
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
                # unparseable wherever it is migrated or quarantined to.
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


class StoreBackend:
    """Raw payload-document storage under a :class:`ResultStore`.

    Backends move whole payload documents (plain dicts) and never interpret
    checksums or formats — integrity semantics live in :class:`ResultStore`,
    so every backend inherits identical miss/stale/corrupt/ok behaviour.
    """

    kind: str = "abstract"
    root: Path
    #: Opened via ``read_only=True``: every mutation raises
    #: :class:`StoreReadOnlyError` and hygiene (tmp reaping) is a no-op,
    #: so a long-lived reader (``repro serve``) can share a store with
    #: concurrent sweep writers without ever racing them.
    read_only: bool = False

    def _check_writable(self) -> None:
        if self.read_only:
            raise StoreReadOnlyError(
                f"store {self.root} was opened read-only")

    # -- required primitives ----------------------------------------------
    def fetch_many(self, keys: Sequence[str]) -> Dict[str, CellRecord]:
        """Batched read: one :class:`CellRecord` per requested key."""
        raise NotImplementedError

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist a payload document verbatim (atomic, last writer wins)."""
        raise NotImplementedError

    def store_raw(self, key: str, text: str) -> None:
        """Persist raw text under ``key`` (migration of unparseable cells
        and corruption tests; the text need not be valid JSON)."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        raise NotImplementedError

    def all_keys(self) -> List[str]:
        """Every stored key — healthy or not — in sorted order."""
        raise NotImplementedError

    def quarantine(self, key: str) -> Optional[str]:
        """Move a cell out of the served namespace, preserving its bytes
        for post-mortems.  Repeated quarantines of one key must keep every
        copy.  Returns a location descriptor, or ``None`` if the cell
        vanished or could not be moved."""
        raise NotImplementedError

    def quarantine_stats(self) -> Tuple[int, int]:
        """``(cells, bytes)`` currently held in quarantine."""
        raise NotImplementedError

    def purge_quarantine(self) -> int:
        """Delete every quarantined copy; returns how many were removed."""
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every cell (and quarantined copies and write debris);
        returns how many *cells* were removed."""
        raise NotImplementedError

    def location(self, key: str) -> str:
        """Human-readable location of a cell (file path / shard database)."""
        raise NotImplementedError

    # -- optional hygiene (JSON-specific; harmless no-ops elsewhere) -------
    def fetch(self, key: str) -> CellRecord:
        return self.fetch_many([key])[key]

    def store_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        for key, payload in items:
            self.store(key, payload)

    def tmp_files(self, min_age_s: float = 0.0) -> List[Path]:
        return []

    def reap_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        return 0

    def close(self) -> None:
        pass


class JsonFileBackend(StoreBackend):
    """One ``<key>.json`` payload file per cell under a root directory."""

    kind = "json"

    def __init__(self, root: Union[str, Path],
                 read_only: bool = False) -> None:
        self.root = Path(root)
        self.read_only = read_only

    def path_for(self, key: str) -> Path:
        return self.root / f"{_check_key(key)}.json"

    def location(self, key: str) -> str:
        return str(self.path_for(key))

    def fetch(self, key: str) -> CellRecord:
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return CellRecord(key, REC_MISS)
        except OSError as exc:
            # Transient I/O (EACCES/EIO/NFS hiccup): the bytes were never
            # read, so this must never be classified as corruption.
            return CellRecord(key, REC_UNREADABLE,
                              error=f"{type(exc).__name__}: {exc}")
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except ValueError:
            return CellRecord(key, REC_UNPARSEABLE, raw=raw)
        return CellRecord(key, REC_PAYLOAD, payload=payload, raw=raw)

    def fetch_many(self, keys: Sequence[str]) -> Dict[str, CellRecord]:
        return {key: self.fetch(key) for key in keys}

    def _write_text(self, key: str, text: str) -> None:
        self._check_writable()
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        self._write_text(key, json.dumps(payload, sort_keys=True))

    def store_raw(self, key: str, text: str) -> None:
        self._write_text(key, text)

    def delete(self, key: str) -> bool:
        self._check_writable()
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def all_keys(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def quarantine(self, key: str) -> Optional[str]:
        self._check_writable()
        src = self.path_for(key)
        dst_dir = self.root / QUARANTINE_DIR
        try:
            dst_dir.mkdir(parents=True, exist_ok=True)
            # Uniquify: a second quarantine of the same key must not
            # overwrite the first post-mortem copy.
            dst = dst_dir / src.name
            counter = 0
            while dst.exists():
                counter += 1
                dst = dst_dir / f"{key}.{counter}.json"
            os.replace(src, dst)
            return str(dst)
        except OSError:
            return None

    def _quarantine_files(self) -> List[Path]:
        dst_dir = self.root / QUARANTINE_DIR
        if not dst_dir.is_dir():
            return []
        return sorted(p for p in dst_dir.iterdir() if p.is_file())

    def quarantine_stats(self) -> Tuple[int, int]:
        files = self._quarantine_files()
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return len(files), total

    def purge_quarantine(self) -> int:
        self._check_writable()
        removed = 0
        for path in self._quarantine_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        self._check_writable()
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            self.reap_tmp(max_age_s=0.0)
            self.purge_quarantine()
        return removed

    def tmp_files(self, min_age_s: float = 0.0) -> List[Path]:
        """Orphaned ``*.tmp`` files at least ``min_age_s`` seconds old."""
        if not self.root.is_dir():
            return []
        now = time.time()
        out = []
        for path in sorted(self.root.glob("*.tmp")):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue                 # raced with a concurrent writer
            if age >= min_age_s:
                out.append(path)
        return out

    def reap_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        if self.read_only:       # hygiene, not data: skip silently
            return 0
        reaped = 0
        for path in self.tmp_files(min_age_s=max_age_s):
            try:
                path.unlink()
                reaped += 1
            except OSError:
                pass
        return reaped


def _chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SqliteBackend(StoreBackend):
    """N shard SQLite databases (WAL mode) under one root directory.

    Cells live in ``cells(key PRIMARY KEY, format, checksum, job, result,
    extra)``: regular payload documents are stored columnar (``job`` /
    ``result`` as canonical JSON text, re-verified against ``checksum`` on
    every read, exactly like the JSON backend), while irregular payloads
    and raw garbage land verbatim in ``extra`` so corruption survives
    migration with its probe status intact.  Quarantined cells move into a
    per-shard ``quarantine`` table whose autoincrement id naturally
    uniquifies repeated quarantines of one key.

    WAL journaling plus a generous busy timeout make concurrent
    multi-process writers safe: readers never block writers, and a writer
    blocked on a shard retries for :data:`SQLITE_BUSY_TIMEOUT_MS` before
    surfacing an error.  All reads are batched per shard
    (:meth:`fetch_many` issues one indexed query per shard per
    :data:`_SQLITE_CHUNK` keys); ``select_queries`` / ``write_batches``
    count backend round-trips so tests can pin the batching.
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
        #: Instrumentation: SELECT round-trips and write transactions —
        #: the conformance suite pins "one batched query per shard".
        self.select_queries = 0
        self.write_batches = 0

    # -- plumbing ----------------------------------------------------------
    def shard_of(self, key: str) -> int:
        try:
            return int(key[:2], 16) % self.shards
        except ValueError:
            return sum(key.encode("utf-8", "replace")) % self.shards

    def _db_path(self, shard: int) -> Path:
        return self.root / f"shard-{shard:02d}.db"

    def location(self, key: str) -> str:
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
    def fetch_many(self, keys: Sequence[str]) -> Dict[str, CellRecord]:
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
    def store_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        self._check_writable()
        by_shard: Dict[int, List[tuple]] = {}
        for key, payload in items:
            row = self._row_of(_check_key(key), payload)
            by_shard.setdefault(self.shard_of(key), []).append(row)
        with self._lock:
            for shard, rows in sorted(by_shard.items()):
                conn = self._conn(shard, create=True)
                with conn:
                    self.write_batches += 1
                    conn.executemany(
                        "INSERT OR REPLACE INTO cells "
                        "(key, format, checksum, job, result, extra) "
                        "VALUES (?, ?, ?, ?, ?, ?)", rows)

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        self.store_many([(key, payload)])

    def store_raw(self, key: str, text: str) -> None:
        self._check_writable()
        with self._lock:
            conn = self._conn(self.shard_of(_check_key(key)), create=True)
            with conn:
                self.write_batches += 1
                conn.execute(
                    "INSERT OR REPLACE INTO cells "
                    "(key, format, checksum, job, result, extra) "
                    "VALUES (?, NULL, NULL, NULL, NULL, ?)", (key, text))

    def delete(self, key: str) -> bool:
        self._check_writable()
        with self._lock:
            conn = self._conn(self.shard_of(_check_key(key)))
            if conn is None:
                return False
            with conn:
                cursor = conn.execute("DELETE FROM cells WHERE key = ?",
                                      (key,))
            return cursor.rowcount > 0

    # -- quarantine --------------------------------------------------------
    def quarantine(self, key: str) -> Optional[str]:
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
# backend selection
# ---------------------------------------------------------------------------
def resolve_backend(root: Union[str, Path, None],
                    read_only: bool = False) -> StoreBackend:
    """Build the backend for a store path or URI.

    Precedence: an explicit ``sqlite:``/``json:`` URI prefix, then the
    :data:`SQLITE_MARKER` of an existing SQLite store (so plain paths keep
    working after a migration), then :data:`BACKEND_ENV_VAR`, then JSON.
    """
    raw = default_store_root() if root is None else root
    kind: Optional[str] = None
    if isinstance(raw, str):
        if raw.startswith("sqlite:"):
            kind, raw = "sqlite", raw[len("sqlite:"):]
        elif raw.startswith("json:"):
            kind, raw = "json", raw[len("json:"):]
    path = Path(raw)
    if kind is None:
        if (path / SQLITE_MARKER).is_file():
            kind = "sqlite"
        else:
            kind = (os.environ.get(BACKEND_ENV_VAR) or "json").lower()
    if kind == "sqlite":
        return SqliteBackend(path, read_only=read_only)
    if kind == "json":
        return JsonFileBackend(path, read_only=read_only)
    raise ValueError(f"unknown store backend {kind!r} "
                     f"(expected 'json' or 'sqlite'; "
                     f"check {BACKEND_ENV_VAR} or the store URI)")


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
    backend: str = "json"
    scanned: int = 0
    ok: int = 0
    issues: List[CellIssue] = field(default_factory=list)
    stale_tmp: List[str] = field(default_factory=list)
    reaped_tmp: int = 0
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
        """No corruption left unrepaired.  Stale formats, reported tmp
        files and unreadable cells do not make a store unhealthy — stale
        cells are never served, and an unreadable cell is a transient I/O
        condition, not evidence of damage."""
        return not self.unrepaired_corrupt

    def as_dict(self) -> dict:
        return {"root": self.root, "backend": self.backend,
                "scanned": self.scanned, "ok": self.ok,
                "issues": [issue.as_dict() for issue in self.issues],
                "stale_tmp": list(self.stale_tmp),
                "reaped_tmp": self.reaped_tmp,
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
        if self.stale_tmp:
            parts.append(f"{len(self.stale_tmp)} stale tmp file(s)")
        if self.reaped_tmp:
            parts.append(f"{self.reaped_tmp} tmp file(s) reaped")
        if self.purged_quarantine:
            parts.append(f"{self.purged_quarantine} quarantined "
                         f"cell(s) purged")
        if self.quarantined_cells:
            parts.append(f"quarantine holds {self.quarantined_cells} "
                         f"cell(s), {self.quarantine_bytes} bytes")
        return ", ".join(parts)


class ResultStore:
    """Cache of :class:`RunResult` cells behind a :class:`StoreBackend`.

    ``root`` may be a directory path, a ``sqlite:PATH`` / ``json:PATH``
    URI, or ``None`` for the ``REPRO_STORE`` default; plain paths pick the
    backend via :data:`BACKEND_ENV_VAR` (an existing SQLite store is
    auto-detected by its marker file).  Pass ``backend=`` to adopt a
    pre-built backend directly.
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 backend: Optional[StoreBackend] = None,
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
    def path_for(self, key: str) -> Path:
        """Where a cell lives: its payload file (JSON backend) or its
        shard database (SQLite).  Raises on malformed keys."""
        _check_key(key)
        return Path(self.backend.location(key))

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
        indexed queries on the SQLite backend."""
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

    # -- raw payload access (fault injection, migration) -------------------
    def read_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Best-effort payload document, even when its checksum no longer
        matches; ``None`` when the cell is missing or unparseable."""
        return self.backend.fetch(_check_key(key)).payload

    def write_payload(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist a payload document verbatim — no checksum recompute, so
        deliberately inconsistent payloads (fault injection) stay
        inconsistent on any backend."""
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
        """Delete every cached result — including quarantined copies and
        any leftover ``*.tmp`` files, whatever their age; returns how many
        results were removed."""
        return self.backend.clear()

    # ------------------------------------------------------------------
    # hygiene: orphaned tempfiles, quarantine, integrity checking
    # ------------------------------------------------------------------
    def tmp_files(self, min_age_s: float = 0.0) -> List[Path]:
        """Orphaned ``*.tmp`` files at least ``min_age_s`` seconds old
        (always empty on backends without per-cell files)."""
        return self.backend.tmp_files(min_age_s=min_age_s)

    def reap_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Delete orphaned ``*.tmp`` files older than ``max_age_s``.

        An interrupted JSON-backend ``put`` (process killed between
        ``mkstemp`` and ``os.replace``) leaks its tempfile; nothing ever
        referenced it again.  The age threshold keeps concurrent *live*
        writers safe — their tempfiles are seconds old.  Called on every
        sweep start-up; a no-op on the SQLite backend (WAL recovery
        handles interrupted writers).
        """
        return self.backend.reap_tmp(max_age_s=max_age_s)

    def quarantine(self, key: str) -> Optional[str]:
        """Move a cell out of the served namespace but preserve it for
        post-mortems (a ``quarantine/`` file or a quarantine-table row).
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
             reap_tmp: bool = False,
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
        * Stale ``*.tmp`` orphans are reported, and reaped when
          ``reap_tmp=True``; quarantine occupancy is always reported, and
          emptied when ``purge_quarantine=True``.

        The scan reads in batches — one indexed query per shard on the
        SQLite backend — so paper-scale stores fsck in seconds.
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
        report.stale_tmp = [str(p)
                            for p in self.tmp_files(min_age_s=STALE_TMP_AGE_S)]
        if reap_tmp:
            report.reaped_tmp = self.reap_tmp(max_age_s=0.0)
            report.stale_tmp = []
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
            "tmp_files": len(self.tmp_files()),
            "quarantined_cells": quarantined,
            "quarantine_bytes": quarantine_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.root)!r}, "
                f"backend={self.backend.kind!r}, {len(self)} results)")


def open_store(store: Union["ResultStore", str, Path, None]
               ) -> Optional[ResultStore]:
    """Coerce a store argument: ``None`` stays ``None`` (caching off),
    paths and ``sqlite:``/``json:`` URIs become stores, stores pass
    through."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)


# ---------------------------------------------------------------------------
# migration
# ---------------------------------------------------------------------------
@dataclass
class MigrateReport:
    """Outcome of :func:`migrate_store`, with per-status accounting."""

    source: str
    dest: str
    migrated: int = 0
    ok: int = 0
    stale: int = 0
    corrupt: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        """Every migrated cell kept its probe status and checksum."""
        return not self.mismatches

    def as_dict(self) -> dict:
        return {"source": self.source, "dest": self.dest,
                "migrated": self.migrated, "ok": self.ok,
                "stale": self.stale, "corrupt": self.corrupt,
                "mismatches": list(self.mismatches),
                "verified": self.verified}

    def summary(self) -> str:
        line = (f"migrated {self.migrated} cell(s): {self.ok} ok, "
                f"{self.stale} stale, {self.corrupt} corrupt")
        if self.verified:
            return line + "; statuses and checksums verified"
        return (line + f"; {len(self.mismatches)} MISMATCH(ES): "
                + "; ".join(self.mismatches[:5]))


def migrate_store(src: ResultStore, dst: ResultStore) -> MigrateReport:
    """Copy every cell of ``src`` into ``dst``, losslessly.

    Payload documents move verbatim (checksums are copied, never
    recomputed) and unparseable cells move as raw bytes, so every cell
    keeps its exact probe status — ok, stale *and* corrupt cells survive
    the trip, which is what makes migration safe to run on a damaged
    store before deciding whether to repair it.  After each batch the
    destination is re-probed and compared against the source; any
    divergence lands in ``MigrateReport.mismatches``.
    """
    report = MigrateReport(source=str(src.root), dest=str(dst.root))
    for chunk in _chunks(src.backend.all_keys(), _SCAN_BATCH):
        records = src.backend.fetch_many(chunk)
        moved: List[str] = []
        for key in chunk:
            record = records[key]
            if record.disposition == REC_MISS:
                continue               # raced deletion; nothing to move
            if record.disposition == REC_UNREADABLE:
                report.mismatches.append(
                    f"{key}: source unreadable ({record.error}); "
                    f"not migrated")
                continue
            if record.payload is not None:
                dst.backend.store(key, record.payload)
            else:
                dst.backend.store_raw(key, record.raw or "")
            report.migrated += 1
            moved.append(key)
        if not moved:
            continue
        src_status = {key: src._classify(records[key]) for key in moved}
        dst_status = dst.probe_many(moved)
        for key in moved:
            s_status, s_result = src_status[key]
            d_status, d_result = dst_status[key]
            if s_status == CELL_OK:
                report.ok += 1
            elif s_status == CELL_STALE:
                report.stale += 1
            else:
                report.corrupt += 1
            if s_status != d_status:
                report.mismatches.append(
                    f"{key}: probe status changed {s_status} -> {d_status}")
                continue
            if s_status == CELL_OK:
                s_sum = (records[key].payload or {}).get("checksum")
                d_sum = (dst.read_payload(key) or {}).get("checksum")
                if s_sum != d_sum:
                    report.mismatches.append(
                        f"{key}: checksum changed {s_sum} -> {d_sum}")
                elif s_result.as_dict() != d_result.as_dict():
                    report.mismatches.append(f"{key}: result body changed")
    return report
