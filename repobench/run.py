"""Run one workload of the repository benchmark.

    python3 repobench/run.py --workload sim-migrate --seed 1 --seconds 20 \\
        --trace 0

Human-readable lines come first: every metric by name with its unit, the
digest of the simulated results, and any failed check.  The last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced run (whose span dump and self-time table
land in ``.repobench/trace/``).  See ``repobench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-migrate", "sim-cache-hit", "sweep-store", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test only)")
    return parser.parse_args(argv)


def run(args: argparse.Namespace):
    """Run the workload and return its :class:`Outcome`."""
    from repobench import serving, simwork, sweepstore
    if args.workload.startswith("sim-"):
        return simwork.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.tiny)
    module = sweepstore if args.workload == "sweep-store" else serving
    return module.run(args.seed, args.seconds, bool(args.trace), args.tiny)


def report(args: argparse.Namespace, outcome) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    from repobench import common
    for name, (value, unit) in outcome.named.items():
        print(f"{outcome.workload}: {name} = {value:.6g} {unit}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{outcome.workload}: ops_failed_ratio = {ratio:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"digest {outcome.workload} seed {args.seed} = {outcome.digest}")
    for note in outcome.notes:
        print(f"note: {note}")
    for error in outcome.errors:
        print(f"FAILED: {error}")
    if outcome.tracer is not None:
        out_dir = common.WORK / "trace"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"{args.workload}-seed{args.seed}"
        outcome.tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        table = outcome.tracer.self_time_table()
        stem.with_suffix(".selftime.txt").write_text(table + "\n")
        print(table)
        print(f"wrote {stem}.spans.jsonl and {stem}.selftime.txt")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    outcome = run(args)
    print(json.dumps(report(args, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
