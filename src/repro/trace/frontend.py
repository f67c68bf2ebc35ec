"""Trace-file frontend: cached loading and trace surgery.

:func:`load_trace` is the one entry point the rest of the repository
uses: probe the content-hashed sidecar cache (see
:mod:`repro.trace.cache`), memory-map it on a hit, otherwise parse the
text trace (:mod:`repro.trace.format`) and write the cache for next
time.  :func:`subsample` and :func:`interleave_traces` are the
trace-surgery helpers behind the matching CLI subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..cpu.trace import Trace, round_robin_order
from .cache import content_hash, load_cached, write_cache
from .format import per_core_counts, parse_trace


@dataclass(frozen=True)
class TraceLoadInfo:
    """Provenance of one :func:`load_trace_info` call."""

    path: str
    content_hash: str
    records: int
    #: True when the trace was memory-mapped from the sidecar cache
    #: rather than re-parsed from text.
    from_cache: bool


def load_trace_info(path: Union[str, Path],
                    write_cache_on_miss: bool = True):
    """Load ``path`` into a :class:`Trace`, reporting provenance.

    Returns ``(trace, info)`` where ``info.from_cache`` says whether the
    sidecar cache satisfied the load.  On a miss the text trace is
    parsed and (unless ``write_cache_on_miss`` is False) the cache is
    written so the next load is a memory-map.
    """
    path = Path(path)
    digest = content_hash(path)
    cached = load_cached(path, source_hash=digest)
    if cached is not None:
        return cached, TraceLoadInfo(path=str(path), content_hash=digest,
                                     records=len(cached), from_cache=True)
    trace = parse_trace(path)
    if write_cache_on_miss:
        write_cache(path, trace, source_hash=digest)
    return trace, TraceLoadInfo(path=str(path), content_hash=digest,
                                records=len(trace), from_cache=False)


def load_trace(path: Union[str, Path],
               write_cache_on_miss: bool = True) -> Trace:
    """Cached load of a trace file (see :func:`load_trace_info`)."""
    trace, _ = load_trace_info(path, write_cache_on_miss=write_cache_on_miss)
    return trace


def inspect_trace(trace: Trace, info: Optional[TraceLoadInfo] = None) -> Dict:
    """Summary payload for ``python -m repro trace inspect --json``."""
    payload: Dict[str, object] = {
        "records": len(trace),
        "instructions": trace.instructions,
        "demand_references": trace.demand_references,
        "write_fraction": round(trace.write_fraction, 6),
        "footprint_bytes": trace.footprint_bytes(),
        "mpki": round(trace.mpki(), 4),
        "cores": {str(core): count
                  for core, count in sorted(per_core_counts(trace).items())},
    }
    if info is not None:
        payload["path"] = info.path
        payload["content_hash"] = info.content_hash
        payload["from_cache"] = info.from_cache
    return payload


def subsample(trace: Trace, first: Optional[int] = None,
              every: Optional[int] = None) -> Trace:
    """Shrink a trace while preserving its timing semantics.

    ``first=N`` keeps the first N records.  ``every=K`` keeps every K-th
    record *per core*; the kept records' instruction gaps are re-derived
    from the per-core sequence numbers, so dropped references' gap
    instructions (and the references themselves, each one instruction)
    are folded into the following kept record's gap — total instruction
    count per core is preserved up to the trailing dropped records.
    """
    if first is None and every is None:
        raise ValueError("subsample needs first=N and/or every=K")
    if first is not None:
        if first < 1:
            raise ValueError("first must be >= 1")
        trace = _slice(trace, np.arange(min(first, len(trace))))
    if every is not None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if every > 1 and len(trace):
            keep = np.zeros(len(trace), dtype=bool)
            cores = trace.core_ids
            for core in np.unique(cores):
                idx = np.flatnonzero(cores == core)
                keep[idx[::every]] = True
            trace = _decimate(trace, keep)
    return trace


def _slice(trace: Trace, indices: np.ndarray) -> Trace:
    return Trace(trace.gaps[indices], trace.addresses[indices],
                 trace.is_write[indices], trace.core_ids[indices])


def _decimate(trace: Trace, keep: np.ndarray) -> Trace:
    """Keep-masked records with gaps re-derived from per-core seqs."""
    cores = trace.core_ids
    seqs = np.empty(len(trace), dtype=np.int64)
    for core in np.unique(cores):
        mask = cores == core
        seqs[mask] = np.cumsum(trace.gaps[mask] + 1) - 1
    indices = np.flatnonzero(keep)
    new_gaps = np.empty(len(indices), dtype=np.int64)
    kept_cores = cores[indices]
    kept_seqs = seqs[indices]
    for core in np.unique(kept_cores):
        mask = kept_cores == core
        core_seqs = kept_seqs[mask]
        core_gaps = np.empty_like(core_seqs)
        core_gaps[0] = core_seqs[0]
        core_gaps[1:] = np.diff(core_seqs) - 1
        new_gaps[mask] = core_gaps
    return Trace(new_gaps, trace.addresses[indices],
                 trace.is_write[indices], kept_cores)


def interleave_traces(traces: Sequence[Trace]) -> Trace:
    """Round-robin merge of per-source traces into one multi-core trace.

    Source *i*'s records are assigned core id *i* (each source is one
    core's stream; multi-core sources are rejected).  Record order is
    :func:`~repro.cpu.trace.round_robin_order` — one record per live
    source per round, exhausted sources dropping out — which is the
    schedule the simulator itself uses for multi-programmed workloads.
    """
    if not traces:
        raise ValueError("interleave needs at least one trace")
    for i, trace in enumerate(traces):
        if len(trace) and (trace.core_ids != trace.core_ids[0]).any():
            raise ValueError(f"interleave source {i} is already multi-core; "
                             "sources must be single-core streams")
    lengths = [len(t) for t in traces]
    order = round_robin_order(lengths)

    def merged(name: str) -> np.ndarray:
        return np.concatenate([getattr(t, name) for t in traces])[order]

    return Trace(merged("gaps"), merged("addresses"), merged("is_write"),
                 np.repeat(np.arange(len(traces)), lengths)[order])


def split_by_core(trace: Trace) -> List[Trace]:
    """Per-core single-core traces, ordered by core id.

    The inverse of :func:`interleave_traces` up to record order: each
    returned trace carries one core's records (renumbered to core 0 is
    *not* done — core ids are preserved so provenance survives).
    """
    cores = np.unique(trace.core_ids)
    return [_slice(trace, np.flatnonzero(trace.core_ids == core))
            for core in cores]
