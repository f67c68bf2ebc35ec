"""Tiny regex router for the serve layer.

Routes are ``(method, pattern)`` pairs; patterns are anchored regexes
with named groups (``/v1/cells/(?P<key>[0-9a-f]{64})``).  Matching
distinguishes *no such path* (404) from *path exists, wrong method*
(405 with an ``Allow`` header), which keeps the handlers themselves
free of dispatch plumbing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Pattern, Tuple


@dataclass(frozen=True)
class Route:
    """One registered endpoint."""

    method: str
    pattern: Pattern[str]
    handler: Callable


@dataclass
class Match:
    """Outcome of routing one request."""

    handler: Optional[Callable] = None
    params: Dict[str, str] = field(default_factory=dict)
    #: Methods that *would* have matched the path (405 Allow header).
    allowed: Tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.handler is not None


class Router:
    """Ordered route table: first match wins."""

    def __init__(self) -> None:
        self._routes: List[Route] = []

    def add(self, method: str, pattern: str, handler: Callable) -> None:
        self._routes.append(
            Route(method.upper(), re.compile(pattern + r"\Z"), handler))

    def get(self, pattern: str, handler: Callable) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: Callable) -> None:
        self.add("POST", pattern, handler)

    def match(self, method: str, path: str) -> Match:
        """Resolve ``(method, path)`` to a handler.

        ``Match.found`` is false on a miss; ``Match.allowed`` is
        non-empty when the path matched under other methods only.
        """
        allowed: List[str] = []
        for route in self._routes:
            hit = route.pattern.match(path)
            if hit is None:
                continue
            if route.method == method:       # methods are case-sensitive
                return Match(handler=route.handler, params=hit.groupdict())
            if route.method not in allowed:
                allowed.append(route.method)
        return Match(allowed=tuple(allowed))
