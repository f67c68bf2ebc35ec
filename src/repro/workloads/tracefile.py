"""Trace-backed workloads: drive the simulator with an external trace file.

A :class:`TraceFileWorkload` is the sweep-facing handle for a real trace
on disk.  It is a tiny frozen dataclass (picklable, hashable), so it
travels through :class:`~repro.sim.sweep.SweepJob` and the worker pool
exactly like a :class:`~repro.workloads.catalog.WorkloadSpec`; the
trace itself is loaded lazily in whichever process runs the job, through
the content-hashed mmap cache of :mod:`repro.trace`.

Identity is by **content**: the workload records the SHA-256 of the
trace file at construction, the sweep store folds that hash (not the
path) into every job's cache key, and :meth:`load_traces` refuses to run
if the file on disk no longer matches — so a stored result can never
silently describe a different trace than the one its key names, and
moving a trace file around does not invalidate its cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..common import content_hash

if TYPE_CHECKING:
    from ..cpu.trace import Trace

#: ``as_dict()["kind"]`` marker distinguishing trace-file workloads from
#: synthetic ``WorkloadSpec`` payloads in stored job specs.
KIND = "tracefile"

#: ``workloads`` CLI tokens: ``trace:path/to/file.tsv``.
TOKEN_PREFIX = "trace:"


@dataclass(frozen=True)
class TraceFileWorkload:
    """A workload backed by a trace file on disk.

    ``name`` is the label results are indexed by (defaults to the file's
    stem), ``path`` locates the trace, and ``content_hash`` pins the
    exact bytes this workload stands for.
    """

    name: str
    path: str
    content_hash: str

    @classmethod
    def from_path(cls, path: Union[str, Path],
                  name: Optional[str] = None) -> "TraceFileWorkload":
        """Build a workload for the trace at ``path``, hashing it now."""
        path = Path(path)
        if name is None:
            name = path.name
            for suffix in (".gz", ".tsv", ".csv"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
        return cls(name=name, path=str(path), content_hash=content_hash(path))

    # ------------------------------------------------------------------
    # serialisation (sweep job specs and cache keys)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Self-contained description, stored in job specs for repair."""
        return {"kind": KIND, "name": self.name, "path": self.path,
                "content_hash": self.content_hash}

    def cache_dict(self) -> Dict[str, Any]:
        """Identity folded into the sweep cache key.

        Excludes ``path``: the key is pinned to the trace *content*, so
        renaming or moving the file keeps its cached cells valid while
        any edit to the bytes invalidates them.
        """
        return {"kind": KIND, "name": self.name,
                "content_hash": self.content_hash}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceFileWorkload":
        if data.get("kind") != KIND:
            raise ValueError(f"not a {KIND} workload spec: {data!r}")
        return cls(name=data["name"], path=data["path"],
                   content_hash=data["content_hash"])

    # ------------------------------------------------------------------
    # loading (called inside the job, possibly in a worker process)
    # ------------------------------------------------------------------
    def load_traces(self,
                    num_references: Optional[int] = None) -> List[Trace]:
        """Load the trace through the mmap cache, split per core.

        ``num_references`` caps the *total* record count (the first N
        records in file order, before the per-core split), mirroring the
        trace-length budget synthetic sweeps spread over their cores.
        Raises :class:`FileNotFoundError` if the file is gone and
        ``ValueError`` if its bytes no longer match ``content_hash`` —
        a cached result must never be attributed to a different trace.
        """
        from ..cpu.trace import Trace
        from ..trace.frontend import load_trace, split_by_core

        current = content_hash(self.path)
        if current != self.content_hash:
            raise ValueError(
                f"trace file {self.path} changed on disk (content hash "
                f"{current[:12]}… != recorded {self.content_hash[:12]}…); "
                f"rebuild the workload with TraceFileWorkload.from_path")
        trace = load_trace(self.path)
        if num_references is not None and len(trace) > num_references:
            trace = Trace(trace.gaps[:num_references],
                          trace.addresses[:num_references],
                          trace.is_write[:num_references],
                          trace.core_ids[:num_references])
        return split_by_core(trace)


def is_trace_token(token: str) -> bool:
    """True for ``trace:PATH`` workload tokens (sweep CLI syntax)."""
    return token.startswith(TOKEN_PREFIX)


def workload_from_token(token: str) -> TraceFileWorkload:
    """Resolve a ``trace:PATH`` token to a :class:`TraceFileWorkload`."""
    if not is_trace_token(token):
        raise ValueError(f"not a trace workload token: {token!r}")
    path = token[len(TOKEN_PREFIX):]
    if not path:
        raise ValueError("trace workload token has an empty path")
    return TraceFileWorkload.from_path(path)
