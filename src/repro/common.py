"""Common value types, constants and address arithmetic helpers.

Every component of the simulator reasons about addresses with the helpers
defined here, so the conventions live in a single place:

* addresses are byte addresses in the *processor physical* address space;
* the processor cache line is 64 bytes (``LINE_SIZE``);
* Hybrid2 sectors and the migration granularity of the baselines are
  2 KB (``SECTOR_SIZE``) unless configured otherwise;
* time is tracked in nanoseconds (floats) at the memory-system boundary and
  in core cycles inside the processor model.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

#: Processor cache-line size in bytes (fixed, matches the paper).
LINE_SIZE = 64

#: Default Hybrid2 sector / migration granularity in bytes.
SECTOR_SIZE = 2048

#: Default OS page size in bytes (used by the Tagless DRAM cache).
PAGE_SIZE = 4096

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class MemoryRequest:
    """A single processor-side memory request reaching the memory system.

    The request is always for one 64-byte cache line; larger transfers
    (sector fills, page fills, migrations) are generated internally by the
    memory-system models and are not represented as ``MemoryRequest``.
    """

    address: int
    is_write: bool
    core_id: int = 0

    @property
    def line_address(self) -> int:
        """Address of the request aligned down to the 64 B line."""
        return align_down(self.address, LINE_SIZE)


def align_down(address: int, granularity: int) -> int:
    """Align ``address`` down to a multiple of ``granularity``."""
    return address - (address % granularity)


def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (valid/dirty vectors are ints)."""
    return bin(mask).count("1")


def full_mask(nbits: int) -> int:
    """Bit mask with the ``nbits`` low bits set."""
    return (1 << nbits) - 1


_HASH_CHUNK = 1 << 20


def content_hash(path: Union[str, Path]) -> str:
    """Streamed SHA-256 of the file at ``path`` (hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def import_attr(path: str) -> Any:
    """The object an importable ``"module:attribute"`` path names."""
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


def lazy_exports(package: str, namespace: Dict[str, Any],
                 sources: Dict[str, Sequence[str]]) -> List[str]:
    """Re-export names of submodules, each imported on first access.

    ``sources`` maps a module path relative to ``package`` to the names it
    provides; as with ``from module import name``, a name that is a
    submodule of that module exports the submodule.  Installs PEP 562
    ``__getattr__`` and ``__dir__`` hooks into ``namespace`` (the
    package's ``globals()``) and returns the exported names.  Packages
    re-export this way so that importing one of their modules does not
    import numpy and the designs behind the others.
    """
    origin = {name: module for module, names in sources.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(origin[name], package)
        try:
            value = getattr(module, name)
        except AttributeError:
            value = importlib.import_module(f"{module.__name__}.{name}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(origin)
