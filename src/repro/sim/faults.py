"""Deterministic fault injection for the sweep supervisor's stress tests.

The fault plan is keyed on the ``REPRO_FAULTS`` environment variable (a
JSON document), so it reaches worker processes however they are started —
forked workers inherit the parent environment, spawned workers re-read it
on import.  A plan targets jobs by their *index within one*
:func:`~repro.sim.sweep.run_jobs` *batch* and fires only on a job's first
``attempts`` execution attempts, which makes every scenario reproducible:
"job 3 crashes on its first two attempts, then succeeds" is the same run
every time, regardless of worker scheduling.

Modes:

* ``crash`` — the attempt raises :class:`InjectedFault` inside the worker.
* ``die`` — the worker process exits hard (``os._exit``), modelling a
  segfault/OOM-killed worker (``BrokenProcessPool`` territory).
* ``hang`` — the attempt sleeps for ``seconds``, modelling a wedged
  worker; only a supervisor wall-clock timeout gets rid of it.
* ``corrupt`` — the attempt completes, but the row persisted to the
  result store is mangled (:func:`corrupt_store_cell` rewrites its result
  text, so the checksum no longer matches), modelling a torn write or
  on-disk bit rot.  The row's job text is left intact so
  ``python -m repro store fsck --repair`` can re-simulate it.

Everything is inert (a handful of dict lookups per job) when
``REPRO_FAULTS`` is unset.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .store import _DECODE_ERRORS, _canonical

#: Environment variable carrying the JSON fault plan.
ENV_VAR = "REPRO_FAULTS"

#: Recognised fault modes.
MODES = ("crash", "die", "hang", "corrupt")


class InjectedFault(RuntimeError):
    """Raised by ``crash``-mode injection (a stand-in for any worker bug)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: job ``job`` misbehaves on attempts ``1..attempts``."""

    job: int
    mode: str
    attempts: int = 1
    #: Sleep duration of ``hang`` mode (pick it well above the supervisor
    #: timeout so only the timeout can end the attempt).
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; "
                             f"known: {MODES}")
        if self.job < 0 or self.attempts < 1:
            raise ValueError("fault job index must be >= 0 and attempts >= 1")

    def fires(self, attempt: int) -> bool:
        return attempt <= self.attempts

    def as_dict(self) -> dict:
        return {"job": self.job, "mode": self.mode,
                "attempts": self.attempts, "seconds": self.seconds}


class FaultPlan:
    """An indexed set of :class:`FaultSpec`; empty plans are falsy."""

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self._by_job: Dict[int, FaultSpec] = {}
        for spec in specs:
            if spec.job in self._by_job:
                raise ValueError(f"duplicate fault for job {spec.job}")
            self._by_job[spec.job] = spec

    def __bool__(self) -> bool:
        return bool(self._by_job)

    def __len__(self) -> int:
        return len(self._by_job)

    def for_job(self, index: int) -> Optional[FaultSpec]:
        return self._by_job.get(index)

    def to_json(self) -> str:
        return json.dumps({"faults": [spec.as_dict()
                                      for spec in self._by_job.values()]},
                          sort_keys=True)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` JSON document.

        Accepted shapes: ``{"faults": [{...}, ...]}`` or a bare list of
        fault objects.  Unknown keys in a fault object are rejected, so a
        typo fails loudly instead of silently disabling the fault.
        """
        data = json.loads(text)
        if isinstance(data, dict):
            data = data.get("faults", [])
        if not isinstance(data, list):
            raise ValueError(f"fault plan must be a list or "
                             f"{{'faults': [...]}}, got {type(data).__name__}")
        specs = []
        for item in data:
            unknown = set(item) - {"job", "mode", "attempts", "seconds"}
            if unknown:
                raise ValueError(f"unknown fault keys {sorted(unknown)} "
                                 f"in {item!r}")
            specs.append(FaultSpec(**item))
        return cls(specs)


_EMPTY_PLAN = FaultPlan()


def active_plan() -> FaultPlan:
    """The plan from ``REPRO_FAULTS``, or an empty plan when unset.

    Parsed on every call (the value is a few hundred bytes at most), so a
    test that mutates the environment mid-session is always honoured.
    """
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return _EMPTY_PLAN
    return FaultPlan.parse(raw)


def inject(index: int, attempt: int) -> None:
    """Fire the execution-side fault for job ``index``, if one is planned.

    Called by the worker (and the serial path) immediately before the job
    body runs.  ``corrupt`` mode is a no-op here — it fires at store-write
    time in the supervisor (:func:`corrupt_store_cell`).
    """
    spec = active_plan().for_job(index)
    if spec is None or not spec.fires(attempt):
        return
    if spec.mode == "crash":
        raise InjectedFault(
            f"injected crash: job {index}, attempt {attempt}")
    if spec.mode == "die":
        os._exit(17)
    if spec.mode == "hang":
        time.sleep(spec.seconds)


def should_corrupt(index: int, attempt: int) -> bool:
    """Whether the store write of job ``index`` should be mangled."""
    spec = active_plan().for_job(index)
    return (spec is not None and spec.mode == "corrupt"
            and spec.fires(attempt))


def corrupt_store_cell(store, key: str) -> None:
    """Damage the row stored under ``key`` so its checksum no longer
    matches: a result text that decodes to an object with ``cycles`` is
    rewritten with ``cycles`` off by 1e9, any other gets its checksum
    zeroed.  The job text stays intact — exactly the damage
    ``fsck --repair`` can undo."""
    row = store.backend.fetch_many([key]).get(key)
    if not isinstance(row, tuple):
        raise KeyError(f"no readable row for store key {key!r}")
    fmt, checksum, job, result = row
    try:
        body = json.loads(result)
    except _DECODE_ERRORS:
        body = None
    if isinstance(body, dict) and "cycles" in body:
        body["cycles"] = float(body["cycles"]) + 1.0e9
        result = _canonical(body)
    else:
        checksum = "0" * 64
    store.backend.insert([(key, fmt, checksum, job, result)])
