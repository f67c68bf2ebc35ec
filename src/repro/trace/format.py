"""Trace-file formats: strict parsers and writers.

Two on-disk dialects are supported (see ``docs/architecture.md`` for the
full specification):

* **TSV** — the minimal zsim-adjacent format of the ``tracehm`` family of
  tools: one record per line, ``seq \\t hex-address \\t is_write``, where
  ``seq`` is the strictly increasing instruction sequence number of the
  reference, the address is hexadecimal (``0x`` prefix optional) and
  ``is_write`` is ``0`` or ``1``.  A gzip-compressed variant is detected
  by the two magic bytes, independent of the file suffix.
* **CSV** — the same stream with per-core ids: a mandatory
  ``seq,addr,is_write,core`` header line followed by one record per line.
  ``seq`` is the *per-core* instruction sequence number, so each core's
  instruction gaps are reconstructed independently.

The paper's interval core model consumes instruction *gaps* (non-memory
instructions between successive references of one core), not absolute
sequence numbers; the parsers derive ``gap = seq - prev_seq - 1`` per core
(the first reference's gap is its own ``seq``) and the writers invert that
mapping, so a write→parse round trip is bit-identical.

Parsing is deliberately strict: blank lines, comment lines, truncated
records, non-hex addresses, non-increasing sequence numbers and empty
files all raise a structured :class:`TraceParseError` naming the offending
line — a malformed trace is never silently skipped over or crashed on.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..cpu.trace import Trace

#: Magic bytes of a gzip stream (RFC 1952).
GZIP_MAGIC = b"\x1f\x8b"

#: Mandatory header line of the CSV dialect.
CSV_HEADER = "seq,addr,is_write,core"

#: Dialect names.
DIALECT_TSV = "tsv"
DIALECT_CSV = "csv"


class TraceParseError(ValueError):
    """A trace file violated the format specification.

    Carries the offending ``path`` and 1-based ``line`` number; the
    rendered message always names both, so CLI consumers and logs can
    point straight at the bad record.
    """

    def __init__(self, path: Union[str, Path], line: int, reason: str) -> None:
        self.path = str(path)
        self.line = line
        self.reason = reason
        super().__init__(f"{self.path}:{line}: {reason}")


def is_gzipped(path: Union[str, Path]) -> bool:
    """True when ``path`` starts with the gzip magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(2) == GZIP_MAGIC
    except OSError:
        return False


def detect_dialect(path: Union[str, Path]) -> str:
    """``"csv"`` for ``*.csv`` / ``*.csv.gz`` paths, ``"tsv"`` otherwise."""
    name = Path(path).name.lower()
    if name.endswith(".csv") or name.endswith(".csv.gz"):
        return DIALECT_CSV
    return DIALECT_TSV


def _open_text(path: Union[str, Path]):
    """Text handle over ``path``, transparently gunzipping by magic."""
    if is_gzipped(path):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _parse_int(token: str, path, line: int, what: str, base: int = 10) -> int:
    try:
        value = int(token, base)
    except ValueError:
        kind = "hexadecimal" if base == 16 else "decimal"
        raise TraceParseError(path, line,
                              f"{what} {token!r} is not a {kind} integer")
    if value < 0:
        raise TraceParseError(path, line, f"{what} {token!r} is negative")
    return value


def _parse_flag(token: str, path, line: int) -> bool:
    if token == "0":
        return False
    if token == "1":
        return True
    raise TraceParseError(path, line,
                          f"is_write {token!r} is not '0' or '1'")


def _parse_address(token: str, path, line: int) -> int:
    raw = token[2:] if token[:2] in ("0x", "0X") else token
    if not raw:
        raise TraceParseError(path, line, f"address {token!r} is empty")
    address = _parse_int(raw, path, line, "address", base=16)
    if address >= 1 << 63:
        raise TraceParseError(path, line,
                              f"address {token!r} exceeds 63 bits")
    return address


def parse_trace(path: Union[str, Path],
                dialect: Optional[str] = None) -> Trace:
    """Parse a trace file into a columnar :class:`Trace`.

    ``dialect`` defaults to :func:`detect_dialect`; gzip compression is
    detected by content, never by suffix.  Raises :class:`TraceParseError`
    (with the 1-based line number) on any deviation from the format spec,
    including an empty file.
    """
    dialect = dialect or detect_dialect(path)
    if dialect not in (DIALECT_TSV, DIALECT_CSV):
        raise ValueError(f"unknown trace dialect {dialect!r}")

    seqs: List[int] = []
    addresses: List[int] = []
    writes: List[bool] = []
    cores: List[int] = []
    try:
        handle = _open_text(path)
    except FileNotFoundError:
        raise
    except OSError as exc:                      # pragma: no cover - rare
        raise TraceParseError(path, 0, f"unreadable: {exc}")
    with handle:
        line_number = 0
        try:
            lines = iter(handle)
            if dialect == DIALECT_CSV:
                line_number = 1
                header = next(lines, None)
                if header is None:
                    raise TraceParseError(path, 1, "empty trace (no header)")
                if header.strip() != CSV_HEADER:
                    raise TraceParseError(
                        path, 1, f"expected header {CSV_HEADER!r}, got "
                                 f"{header.strip()!r}")
            for raw_line in lines:
                line_number += 1
                line = raw_line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    raise TraceParseError(path, line_number,
                                          "blank line (records only; the "
                                          "format has no blank lines)")
                if line.lstrip().startswith("#"):
                    raise TraceParseError(path, line_number,
                                          "comment line (the format has no "
                                          "comments)")
                if dialect == DIALECT_TSV:
                    fields = line.split("\t")
                    if len(fields) != 3:
                        raise TraceParseError(
                            path, line_number,
                            f"expected 3 tab-separated fields "
                            f"(seq, hex-addr, is_write), got {len(fields)}")
                    seq_token, addr_token, write_token = fields
                    core = 0
                else:
                    fields = line.split(",")
                    if len(fields) != 4:
                        raise TraceParseError(
                            path, line_number,
                            f"expected 4 comma-separated fields "
                            f"(seq, addr, is_write, core), got {len(fields)}")
                    seq_token, addr_token, write_token, core_token = fields
                    core = _parse_int(core_token.strip(), path, line_number,
                                      "core id")
                seqs.append(_parse_int(seq_token.strip(), path, line_number,
                                       "sequence number"))
                addresses.append(_parse_address(addr_token.strip(), path,
                                                line_number))
                writes.append(_parse_flag(write_token.strip(), path,
                                          line_number))
                cores.append(core)
        except UnicodeDecodeError as exc:
            raise TraceParseError(path, line_number + 1,
                                  f"not a text trace: {exc.reason}")
    if not seqs:
        raise TraceParseError(path, max(1, line_number),
                              "empty trace (no records)")

    seq_arr = np.asarray(seqs, dtype=np.int64)
    core_arr = np.asarray(cores, dtype=np.int64)
    gaps = _gaps_from_seqs(seq_arr, core_arr, path)
    return Trace(gaps, np.asarray(addresses, dtype=np.int64),
                 np.asarray(writes, dtype=bool), core_arr)


def _gaps_from_seqs(seqs: np.ndarray, cores: np.ndarray, path) -> np.ndarray:
    """Per-core instruction gaps from per-core sequence numbers.

    ``gap = seq - prev_seq - 1`` within each core (every reference is
    itself one instruction); a core's first gap is its own ``seq``.  A
    sequence number that fails to increase within its core is a format
    violation, reported against the exact line.
    """
    gaps = np.empty_like(seqs)
    for core in np.unique(cores):
        mask = cores == core
        core_seqs = seqs[mask]
        deltas = np.diff(core_seqs)
        if (deltas <= 0).any():
            offender = int(np.argmax(deltas <= 0)) + 1
            line = int(np.flatnonzero(mask)[offender]) + 1
            suffix = f" (core {int(core)})" if cores.any() else ""
            raise TraceParseError(
                path, line + _header_lines(path),
                f"sequence number {int(core_seqs[offender])} does not "
                f"increase{suffix}; previous was "
                f"{int(core_seqs[offender - 1])}")
        core_gaps = np.empty_like(core_seqs)
        core_gaps[0] = core_seqs[0]
        core_gaps[1:] = deltas - 1
        gaps[mask] = core_gaps
    return gaps


def _header_lines(path: Union[str, Path]) -> int:
    """Record-index -> line-number offset (1 for the CSV header line)."""
    return 1 if detect_dialect(path) == DIALECT_CSV else 0


# ---------------------------------------------------------------------------
# writers (exact inverses of the parsers)
# ---------------------------------------------------------------------------
def _seqs_for(trace: Trace) -> np.ndarray:
    """Per-core sequence numbers that reproduce the trace's gaps."""
    gaps = trace.gaps
    cores = trace.core_ids
    seqs = np.empty_like(gaps)
    for core in np.unique(cores):
        mask = cores == core
        seqs[mask] = np.cumsum(gaps[mask] + 1) - 1
    return seqs


def _open_out(path: Union[str, Path]):
    """Writable text handle; ``*.gz`` paths are gzip-compressed with a
    fixed mtime so identical traces produce identical bytes."""
    if str(path).endswith(".gz"):
        # No filename in the gzip header (and mtime=0): identical traces
        # must produce identical bytes wherever they are written.
        raw = open(path, "wb")
        compressed = gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                                   mtime=0)
        compressed.myfileobj = raw      # GzipFile closes myfileobj for us
        return io.TextIOWrapper(compressed, encoding="utf-8", newline="\n")
    return open(path, "w", encoding="utf-8", newline="\n")


def write_tsv(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` in the TSV dialect (``*.gz`` compresses).

    The TSV format has no core column, so multi-core traces must go
    through :func:`write_csv` instead.
    """
    if len(trace) and (trace.core_ids != trace.core_ids[0]).any():
        raise ValueError("TSV has no core column; use write_csv for "
                         "multi-core traces")
    seqs = _seqs_for(trace)
    with _open_out(path) as handle:
        for seq, addr, is_write in zip(seqs.tolist(),
                                       trace.addresses.tolist(),
                                       trace.is_write.tolist()):
            handle.write(f"{seq}\t{addr:x}\t{1 if is_write else 0}\n")


def write_csv(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` in the CSV dialect with per-core ids."""
    seqs = _seqs_for(trace)
    with _open_out(path) as handle:
        handle.write(CSV_HEADER + "\n")
        for seq, addr, is_write, core in zip(seqs.tolist(),
                                             trace.addresses.tolist(),
                                             trace.is_write.tolist(),
                                             trace.core_ids.tolist()):
            handle.write(f"{seq},{addr:x},{1 if is_write else 0},{core}\n")


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Dialect-dispatching writer (CSV for ``*.csv``/``*.csv.gz``)."""
    if detect_dialect(path) == DIALECT_CSV:
        write_csv(trace, path)
    else:
        write_tsv(trace, path)


def per_core_counts(trace: Trace) -> Dict[int, int]:
    """Record count per core id (the ``inspect`` histogram)."""
    cores, counts = np.unique(trace.core_ids, return_counts=True)
    return {int(c): int(n) for c, n in zip(cores, counts)}
