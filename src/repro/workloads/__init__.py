"""Workload substrate: synthetic generators and the Table 2 catalog."""

from ..common import lazy_exports

__all__ = lazy_exports(__name__, globals(), {
    ".catalog": ("MPKI_CLASSES", "WORKLOADS", "WorkloadSpec",
                 "all_workload_names", "get_workload",
                 "representative_workloads", "workloads_by_class"),
    ".synthetic": ("generate_multiprogrammed", "generate_trace",
                   "random_pattern", "stream_pattern"),
    ".tracefile": ("TraceFileWorkload", "is_trace_token",
                   "workload_from_token"),
})
