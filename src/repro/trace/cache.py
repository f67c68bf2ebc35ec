"""Content-hashed columnar trace cache.

Parsing a multi-GB text trace is a one-time cost: beside every source
file the frontend keeps a sidecar directory

```
mytrace.tsv
mytrace.tsv.trcache/
    meta.json           # format version, sha256 of the source, counts
    gaps.npy            # one .npy per Trace column
    addresses.npy
    is_write.npy
    core_ids.npy
```

and on the next load memory-maps the ``.npy`` columns directly
(``np.load(..., mmap_mode="r")``) — milliseconds regardless of trace
size, and the OS pages data in lazily as the simulator walks it.  A
single ``.npz`` archive would be more compact but ``np.load`` silently
ignores ``mmap_mode`` for zip archives, which would forfeit exactly the
property the cache exists for; the sidecar *directory* of plain ``.npy``
files keeps every column mappable.

The cache is keyed by **content**, not by timestamps: ``meta.json``
records the streamed SHA-256 of the source file, and a probe re-hashes
the source on every load.  Rewriting the source (even with an identical
mtime) invalidates the cache; moving source + sidecar together keeps it
valid.  Writes build the sidecar in a temporary directory and
``os.replace`` it into place, so a killed writer can never leave a
half-written cache that probes as valid.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..common import content_hash
from ..cpu.trace import Trace

#: Bump when the sidecar layout changes; mismatched caches are ignored.
CACHE_FORMAT_VERSION = 2

#: Sidecar directory suffix, appended to the full source filename.
CACHE_SUFFIX = ".trcache"

#: Column name -> Trace attribute, in on-disk order.
COLUMNS = ("gaps", "addresses", "is_write", "core_ids")

def cache_dir_for(source: Union[str, Path]) -> Path:
    """Sidecar cache directory path for ``source`` (may not exist)."""
    source = Path(source)
    return source.with_name(source.name + CACHE_SUFFIX)


@dataclass(frozen=True)
class CacheMeta:
    """The ``meta.json`` payload of a sidecar cache."""

    version: int
    source_sha256: str
    records: int

    def as_dict(self) -> dict:
        return {"version": self.version,
                "source_sha256": self.source_sha256,
                "records": self.records}


def _read_meta(cache_dir: Path) -> Optional[CacheMeta]:
    try:
        payload = json.loads((cache_dir / "meta.json").read_text())
        return CacheMeta(version=int(payload["version"]),
                         source_sha256=str(payload["source_sha256"]),
                         records=int(payload["records"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def probe_cache(source: Union[str, Path],
                source_hash: Optional[str] = None) -> Optional[CacheMeta]:
    """Return the cache's metadata when it is valid for ``source`` now.

    Valid means: the sidecar exists, its format version matches, every
    column file is present, and its recorded source hash equals the
    source's *current* content hash (``source_hash`` may be passed in to
    avoid re-hashing).  Anything else — including a source file edited
    after the cache was written — probes as a miss.
    """
    cache_dir = cache_dir_for(source)
    meta = _read_meta(cache_dir)
    if meta is None or meta.version != CACHE_FORMAT_VERSION:
        return None
    if not all((cache_dir / f"{name}.npy").is_file() for name in COLUMNS):
        return None
    if source_hash is None:
        try:
            source_hash = content_hash(source)
        except OSError:
            return None
    if meta.source_sha256 != source_hash:
        return None
    return meta


def load_cached(source: Union[str, Path],
                source_hash: Optional[str] = None) -> Optional[Trace]:
    """Memory-map a valid sidecar cache into a :class:`Trace`, else None."""
    meta = probe_cache(source, source_hash)
    if meta is None:
        return None
    cache_dir = cache_dir_for(source)
    try:
        columns = {name: np.load(cache_dir / f"{name}.npy", mmap_mode="r")
                   for name in COLUMNS}
    except (OSError, ValueError):
        return None
    if any(col.ndim != 1 or len(col) != meta.records
           for col in columns.values()):
        return None
    # Trace()'s ascontiguousarray calls are no-copy for the mmapped arrays
    # (already contiguous and correctly typed), so the columns stay backed
    # by the page cache.
    return Trace(**columns)


def write_cache(source: Union[str, Path], trace: Trace,
                source_hash: Optional[str] = None) -> Path:
    """Write the sidecar cache for ``source``, atomically; returns its path.

    The sidecar is built in a temporary directory next to the target and
    swapped in with ``os.replace``, so concurrent readers either see the
    old complete cache or the new complete cache, never a torn one.
    """
    source = Path(source)
    if source_hash is None:
        source_hash = content_hash(source)
    cache_dir = cache_dir_for(source)
    meta = CacheMeta(version=CACHE_FORMAT_VERSION, source_sha256=source_hash,
                     records=len(trace))
    tmp_dir = Path(tempfile.mkdtemp(prefix=cache_dir.name + ".tmp.",
                                    dir=str(source.parent)))
    try:
        for name in COLUMNS:
            np.save(tmp_dir / f"{name}.npy",
                    np.ascontiguousarray(getattr(trace, name)))
        (tmp_dir / "meta.json").write_text(
            json.dumps(meta.as_dict(), indent=2, sort_keys=True) + "\n")
        if cache_dir.exists():
            shutil.rmtree(cache_dir)
        os.replace(tmp_dir, cache_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return cache_dir


def drop_cache(source: Union[str, Path]) -> bool:
    """Remove the sidecar cache for ``source``; True if one existed."""
    cache_dir = cache_dir_for(source)
    if cache_dir.is_dir():
        shutil.rmtree(cache_dir)
        return True
    return False
