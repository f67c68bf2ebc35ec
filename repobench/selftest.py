"""Self-test of the benchmark: ``python3 repobench/selftest.py``.

Checks, at tiny sizes:

1. every workload, untraced and traced, prints every metric that
   ``BENCHMARK.json`` names, with its unit, and fails no operation;
2. a second traced run of every workload repeats the first one's op
   counts exactly (each traced run also fails an operation for every
   layer it is meant to reach and reads 0);
3. a served cell rewritten with a wrong result (under a valid checksum,
   so the server answers ``200``) is counted as a failed operation;
4. in a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "repobench/run.py", "--seed", "3", "--seconds", "1",
       "--tiny"]
COUNTS = ("_calls", "_per_kref", "store.select_queries")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(RUN + ["--workload", workload, "--trace",
                                 str(trace)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict, failures: list) -> dict:
    """Check 1; returns each workload's traced result for check 2."""
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            try:
                result = _result(proc)
            except (AssertionError, ValueError, IndexError) as exc:
                failures.append(f"{workload} trace={trace}: {exc}")
                continue
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{workload} trace={trace}: metrics {got} "
                                f"!= BENCHMARK.json {wanted}")
            for name, unit in wanted.items():
                line = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$"
                if not re.search(line, proc.stdout, re.M):
                    failures.append(f"{workload}: no '{name} = ... {unit}' "
                                    f"line")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: "
                                f"{result['failed']} failed operations")
            if "ops_failed_ratio = 0 " not in proc.stdout:
                failures.append(f"{workload}: ops_failed_ratio is not 0")
            if trace:
                traced[workload] = result
    return traced


def check_counts(traced: dict, failures: list) -> None:
    for workload, first in traced.items():
        try:
            second = _result(_run(workload, 1))
        except (AssertionError, ValueError, IndexError) as exc:
            failures.append(f"{workload} second traced run: {exc}")
            continue
        for name, value in first["metrics"].items():
            if name.endswith(COUNTS) and value != second["metrics"][name]:
                failures.append(f"{workload}: op count {name} differs "
                                f"between runs: {value} vs "
                                f"{second['metrics'][name]}")


def check_corruption(failures: list) -> None:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from repobench import serving
    outcome = serving.run(3, 1.0, trace=False, tiny=True, corrupt=True)
    if outcome.failed < 1 or not any("digest" in e for e in outcome.errors):
        failures.append(f"a corrupted served cell was not counted as failed "
                        f"({outcome.failed} failed: {outcome.errors})")


def check_bare_directory(failures: list) -> None:
    bare = ROOT / ".repobench" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "repobench", bare / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim-cache-hit", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("the benchmark ran without the repository sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list = []
    traced = check_metrics(spec, failures)
    check_counts(traced, failures)
    check_corruption(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
