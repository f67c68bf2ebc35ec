"""The repository benchmark: ``python3 repobench/run.py --workload NAME``.

See ``repobench/README.md`` for the workloads, metrics and the traced run.
"""
