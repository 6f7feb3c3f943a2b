"""Full-system integration: kernel module, machine, metrics, experiments."""

from repro.system.experiment import (
    BenchmarkComparison,
    GovernorFactory,
    run_comparison,
    run_comparison_suite,
    run_suite,
)
from repro.system.lkm import KernelLogRecord, PhaseMonitorLKM
from repro.system.machine import Machine
from repro.system.metrics import ComparisonMetrics, IntervalMetrics, RunResult
from repro.system.parallel_port import ParallelPort
from repro.system.variability import SystemVariability

__all__ = [
    "ParallelPort",
    "SystemVariability",
    "PhaseMonitorLKM",
    "KernelLogRecord",
    "Machine",
    "RunResult",
    "IntervalMetrics",
    "ComparisonMetrics",
    "BenchmarkComparison",
    "GovernorFactory",
    "run_comparison",
    "run_suite",
    "run_comparison_suite",
]
