"""Machine-readable per-bench artifacts (``artifacts/<bench>.json``).

One JSON file per bench run, carrying the bench identity, the settings it
ran under, the evaluated expectations (measured vs published, with the
deviation status) and the full :class:`~repro.report.registry.BenchResult`.
The gallery is rebuilt from whatever artifacts exist on disk, so a
``--bench fig12`` run refreshes one file and the gallery stays complete.

The payload is deliberately free of wall-clock timestamps: the same code,
settings and seed produce byte-identical artifacts, so regeneration is
diffable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .registry import BenchResult, BenchSpec

#: Bump when the on-disk artifact layout changes.
ARTIFACT_FORMAT = 1


def artifact_path(out_dir: Union[str, Path], spec: BenchSpec) -> Path:
    return Path(out_dir) / f"{spec.name}.json"


#: Status of a bench whose run itself raised (see
#: :func:`write_failure_artifact`); ranks above every other status.
STATUS_FAILED = "failed"


def status_of(deviations: List[Dict[str, Any]],
              check_error: Optional[str] = None) -> str:
    """Aggregate bench status: ``check-failed`` > ``deviates`` >
    ``incomplete`` (an expectation path vanished from the raw data — never
    silently 'ok') > ``ok`` > ``info`` (nothing numeric to compare)."""
    if check_error:
        return "check-failed"
    if any(dev["status"] == "flag" for dev in deviations):
        return "deviates"
    if any(dev["status"] == "missing" for dev in deviations):
        return "incomplete"
    if any(dev["status"] == "ok" for dev in deviations):
        return "ok"
    return "info"


def write_artifact(spec: BenchSpec, result: BenchResult,
                   deviations: List[Dict[str, Any]],
                   settings: Dict[str, Any], out_dir: Union[str, Path],
                   check_error: Optional[str] = None) -> Path:
    """Persist one bench run; returns the artifact path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": ARTIFACT_FORMAT,
        "bench": spec.name,
        "slug": spec.slug,
        "title": spec.title,
        "paper_ref": spec.paper_ref,
        "status": status_of(deviations, check_error),
        "check_error": check_error,
        "settings": settings,
        "deviations": deviations,
        "result": result.as_dict(),
    }
    path = artifact_path(out, spec)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_failure_artifact(spec: BenchSpec, error_type: str, message: str,
                           traceback: str, settings: Dict[str, Any],
                           out_dir: Union[str, Path]) -> Path:
    """Persist a bench whose run raised: the gallery keeps its slot (with
    the failure flagged) instead of silently dropping the bench."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": ARTIFACT_FORMAT,
        "bench": spec.name,
        "slug": spec.slug,
        "title": spec.title,
        "paper_ref": spec.paper_ref,
        "status": STATUS_FAILED,
        "check_error": None,
        "error": {"type": error_type, "message": message,
                  "traceback": traceback},
        "settings": settings,
        "deviations": [],
        "result": BenchResult(name=spec.slug).as_dict(),
    }
    path = artifact_path(out, spec)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load an artifact payload; raises ``ValueError`` on a stale format."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"unsupported artifact format in {path}: "
                         f"{payload.get('format')!r}")
    return payload


def result_from_artifact(payload: Dict[str, Any]) -> BenchResult:
    """Hydrate the :class:`BenchResult` stored inside an artifact payload."""
    return BenchResult.from_dict(payload["result"])
