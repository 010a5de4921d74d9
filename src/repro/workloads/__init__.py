"""Workloads: the eleven Table II benchmarks as assembly generators."""

from repro.workloads.suite import (
    build_program,
    get_workload,
    REPRODUCTION_SCALE,
    workload_names,
)

__all__ = [
    "build_program",
    "get_workload",
    "REPRODUCTION_SCALE",
    "workload_names",
]
