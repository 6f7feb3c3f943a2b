"""Experiment harnesses: baseline-vs-managed comparisons and sweeps.

The paper's evaluation always contrasts a managed run against an
unmanaged baseline pinned at the highest frequency (Section 6).  This
module packages that protocol: run the same trace twice on the same
machine — once under a static fastest-point governor, once under the
governor under test — and derive the normalised metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.core.governor import Governor, StaticGovernor
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.exec pulls in repro.system
    # modules, so a module-level import here would be circular.
    from repro.exec.cache import ResultCache
    from repro.exec.engine import ExecutionEngine
    from repro.exec.results import ComparisonSuiteResult
from repro.system.machine import Machine
from repro.system.metrics import ComparisonMetrics, RunResult
from repro.workloads.spec2000 import (
    DEFAULT_TRACE_INTERVALS,
    BenchmarkSpec,
    benchmark,
)

#: A zero-argument callable producing a fresh governor (state must not
#: leak between benchmarks).
GovernorFactory = Callable[[], Governor]


@dataclass(frozen=True)
class BenchmarkComparison:
    """One benchmark's baseline-vs-managed outcome."""

    benchmark_name: str
    comparison: ComparisonMetrics

    @property
    def baseline(self) -> RunResult:
        """The unmanaged run."""
        return self.comparison.baseline

    @property
    def managed(self) -> RunResult:
        """The managed run."""
        return self.comparison.managed


def run_comparison(
    spec: BenchmarkSpec,
    governor_factory: GovernorFactory,
    machine: Optional[Machine] = None,
    n_intervals: int = DEFAULT_TRACE_INTERVALS,
    tracer: Optional[Tracer] = None,
) -> BenchmarkComparison:
    """Run one benchmark under a governor and under the baseline.

    Args:
        spec: The benchmark to run.
        governor_factory: Produces the managed governor.
        machine: Platform to run on (a default machine when omitted).
        n_intervals: Trace length in sampling intervals.
        tracer: Optional trace collector; records the *managed* run only
            (the baseline is pinned and makes no decisions worth
            tracing).  Zero-perturbation.
    """
    machine = machine if machine is not None else Machine()
    trace = spec.trace(n_intervals=n_intervals)
    baseline_governor = StaticGovernor(machine.speedstep.fastest)
    baseline = machine.run(trace, baseline_governor)
    managed = machine.run(trace, governor_factory(), tracer=tracer)
    return BenchmarkComparison(
        benchmark_name=spec.name,
        comparison=ComparisonMetrics(baseline=baseline, managed=managed),
    )


def run_suite(
    benchmark_names: Sequence[str],
    governor_factory: GovernorFactory,
    machine: Optional[Machine] = None,
    n_intervals: int = DEFAULT_TRACE_INTERVALS,
    tracer: Optional[Tracer] = None,
) -> Dict[str, BenchmarkComparison]:
    """Run a set of benchmarks through :func:`run_comparison`.

    This is the full-fidelity path: every :class:`BenchmarkComparison`
    carries complete per-interval run logs.  For summary-level suites
    that should fan out over processes and memoise on disk, use
    :func:`run_comparison_suite`.

    Returns:
        Results keyed by benchmark name, preserving the given order.
    """
    machine = machine if machine is not None else Machine()
    return {
        name: run_comparison(
            benchmark(name), governor_factory, machine, n_intervals,
            tracer=tracer,
        )
        for name in benchmark_names
    }


def run_comparison_suite(
    benchmark_names: Sequence[str],
    governor: str = "gpht",
    policy: str = "table2",
    gphr_depth: int = 8,
    pht_entries: int = 128,
    n_intervals: int = DEFAULT_TRACE_INTERVALS,
    engine: Optional["ExecutionEngine"] = None,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
    tracer: Optional[Tracer] = None,
) -> "ComparisonSuiteResult":
    """Run a baseline-vs-managed suite through the execution engine.

    Unlike :func:`run_suite` this takes the governor and policy *by
    registry name* (see :func:`repro.exec.cells.build_governor`), which
    makes every cell content-hashable: the suite fans out over worker
    processes and replays unchanged cells from the on-disk cache.  Each
    cell carries the flattened comparison summary rather than full
    per-interval logs.

    Args:
        benchmark_names: Benchmarks to run, in report order.
        governor: Managed governor name (``gpht`` or ``reactive``).
        policy: Policy name (``table2``, ``bounded``, ``energy``,
            ``edp``, ``ed2p``).
        gphr_depth: GPHT history depth (``gpht`` governor only).
        pht_entries: GPHT pattern table capacity.
        n_intervals: Trace length per run.
        engine: Execution engine (overrides ``jobs``/``cache``).
        jobs: Worker processes when no engine is given (1 = serial).
        cache: On-disk result cache when no engine is given.
        tracer: Optional trace collector for cell lifecycle events when
            no engine is given (an explicit ``engine`` carries its own).
    """
    from repro.exec.engine import make_engine
    from repro.exec.results import ComparisonCell, ComparisonSuiteResult
    from repro.exec.spec import ExperimentSpec

    if engine is None:
        engine = make_engine(jobs=jobs, cache=cache, tracer=tracer)
    specs = [
        ExperimentSpec.create(
            "comparison",
            benchmark=name,
            n_intervals=n_intervals,
            governor=governor,
            policy=policy,
            gphr_depth=gphr_depth,
            pht_entries=pht_entries,
        )
        for name in benchmark_names
    ]
    report = engine.run(specs)
    cells = tuple(
        ComparisonCell.create(name, dict(report.value(spec)))
        for name, spec in zip(benchmark_names, specs)
    )
    return ComparisonSuiteResult(
        name=f"{governor}-{policy}",
        governor=governor,
        policy=policy,
        n_intervals=n_intervals,
        cells=cells,
        provenance=report.provenance(),
    )
