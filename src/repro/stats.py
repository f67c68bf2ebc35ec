"""A small named-counter registry shared by every simulator component.

Components register the events they care about by simply incrementing a
named counter; the registry keeps them in a flat dictionary so results can
be merged, diffed and rendered without each component inventing its own
bookkeeping type.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping


class Stats:
    """Flat registry of named numeric counters.

    >>> s = Stats()
    >>> s.inc("nm.reads")
    >>> s.inc("nm.read_bytes", 64)
    >>> s["nm.reads"]
    1.0
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self._counters[name] += value

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name`` with ``value``.

        Coerced to float so counters serialise identically whether they come
        from a live run or from the result store's JSON round-trip.
        """
        self._counters[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counters.get(name, default)

    def __getitem__(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def names(self) -> Iterable[str]:
        return sorted(self._counters)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of every counter."""
        return dict(self._counters)

    def merge(self, other: "Stats" | Mapping[str, float]) -> "Stats":
        """Add every counter of ``other`` into this registry (in place)."""
        items = other.as_dict().items() if isinstance(other, Stats) else other.items()
        counters = self._counters
        counters.update({name: counters.get(name, 0.0) + value
                         for name, value in items})
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items()))
        return f"Stats({body})"
