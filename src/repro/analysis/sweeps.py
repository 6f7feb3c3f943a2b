"""Parameter-sweep helpers for predictor and system studies.

The paper's evaluation is built from sweeps — PHT sizes (Figure 5),
frequencies (Figure 7), benchmarks (Figures 4/11).  This module packages
the recurring sweep shapes behind one call each.  Every helper returns a
typed :class:`~repro.exec.results.SweepResult` (cells + parameters +
provenance); the old nested-dict shape is available via ``.to_dict()``.

Execution goes through the :mod:`repro.exec` engine: pass ``engine=``
(or ``jobs=``/``cache=``) to fan a sweep out over worker processes and
memoise completed cells on disk.  Serial, parallel and cache-replayed
runs produce bit-identical results.  :func:`sweep_granularity` is the
one exception: its governor factory cannot be content-hashed, so it
computes inline.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

from repro.core.governor import Governor, StaticGovernor
from repro.core.phases import PhaseTable
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.cells import comparison_summary, pinned_frequency_points
from repro.exec.engine import ExecutionEngine, make_engine
from repro.exec.results import Provenance, SweepCell, SweepResult
from repro.exec.spec import ExperimentSpec
from repro.system.machine import Machine
from repro.system.metrics import ComparisonMetrics
from repro.workloads.spec2000 import benchmark


def _resolve_engine(
    engine: Optional[ExecutionEngine],
    jobs: int,
    cache: Optional[ResultCache],
) -> ExecutionEngine:
    """One engine from whichever convenience knob the caller used."""
    if engine is not None:
        return engine
    return make_engine(jobs=jobs, cache=cache)


def _phase_edges_param(
    phase_table: Optional[PhaseTable],
) -> Optional[Tuple[float, ...]]:
    """Encode an optional custom phase table for spec hashing."""
    if phase_table is None:
        return None
    return phase_table.edges


def _accuracy_sweep(
    sweep_name: str,
    axis_name: str,
    benchmark_names: Sequence[str],
    axis_values: Sequence[int],
    predictor_for: Callable[[int], str],
    n_intervals: int,
    phase_table: Optional[PhaseTable],
    fixed_params: Sequence[Tuple[str, object]],
    engine: ExecutionEngine,
) -> SweepResult:
    """Shared benchmark-cross-capacity accuracy sweep implementation.

    Each benchmark's ``Mem/Uop`` series is generated exactly once per
    process and shared by every cell that replays it (see
    :mod:`repro.exec.cells`).
    """
    edges = _phase_edges_param(phase_table)
    grid = [
        (name, value, ExperimentSpec.create(
            "predictor_accuracy",
            benchmark=name,
            n_intervals=n_intervals,
            predictor=predictor_for(value),
            phase_edges=edges,
        ))
        for name in benchmark_names
        for value in axis_values
    ]
    report = engine.run([spec for _, _, spec in grid])
    cells = tuple(
        SweepCell.create(
            (name, value),
            {
                "accuracy": report.value(spec)["accuracy"],
                "misprediction_rate": report.value(spec)["misprediction_rate"],
            },
        )
        for name, value, spec in grid
    )
    parameters = dict(fixed_params)
    parameters["n_intervals"] = n_intervals
    if edges is not None:
        parameters["phase_edges"] = edges
    return SweepResult(
        name=sweep_name,
        axes=("benchmark", axis_name),
        cells=cells,
        parameters=tuple(sorted(parameters.items())),
        metric="accuracy",
        provenance=report.provenance(),
    )


def sweep_pht_entries(
    benchmark_names: Sequence[str],
    pht_sizes: Sequence[int],
    gphr_depth: int = 8,
    n_intervals: int = 1000,
    phase_table: Optional[PhaseTable] = None,
    engine: Optional[ExecutionEngine] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """GPHT accuracy per benchmark per PHT capacity (Figure 5's sweep).

    Args:
        benchmark_names: Benchmarks to sweep.
        pht_sizes: PHT capacities to cross them with.
        gphr_depth: Global phase history depth.
        n_intervals: Series length per benchmark.
        phase_table: Phase definitions (default: paper Table 1).
        engine: Execution engine (overrides ``jobs``/``cache``).
        jobs: Worker processes when no engine is given (1 = serial).
        cache: On-disk result cache when no engine is given.

    Returns:
        A :class:`SweepResult` over axes ``(benchmark, pht_entries)``
        with primary metric ``accuracy``; ``.to_dict()`` restores the
        legacy ``{benchmark: {pht_size: accuracy}}`` shape.
    """
    if not pht_sizes:
        raise ConfigurationError("pht_sizes must not be empty")
    return _accuracy_sweep(
        "pht_entries",
        "pht_entries",
        benchmark_names,
        pht_sizes,
        lambda size: f"GPHT_{gphr_depth}_{size}",
        n_intervals,
        phase_table,
        [("gphr_depth", gphr_depth)],
        _resolve_engine(engine, jobs, cache),
    )


def sweep_gphr_depth(
    benchmark_names: Sequence[str],
    depths: Sequence[int],
    pht_entries: int = 1024,
    n_intervals: int = 1000,
    phase_table: Optional[PhaseTable] = None,
    engine: Optional[ExecutionEngine] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """GPHT accuracy per benchmark per history depth.

    Returns:
        A :class:`SweepResult` over axes ``(benchmark, gphr_depth)``
        with primary metric ``accuracy``; ``.to_dict()`` restores the
        legacy ``{benchmark: {depth: accuracy}}`` shape.
    """
    if not depths:
        raise ConfigurationError("depths must not be empty")
    return _accuracy_sweep(
        "gphr_depth",
        "gphr_depth",
        benchmark_names,
        depths,
        lambda depth: f"GPHT_{depth}_{pht_entries}",
        n_intervals,
        phase_table,
        [("pht_entries", pht_entries)],
        _resolve_engine(engine, jobs, cache),
    )


def sweep_granularity(
    benchmark_name: str,
    granularities: Sequence[int],
    governor_factory: Callable[[], Governor],
    segment_uops: int = 25_000_000,
    n_segments: int = 800,
) -> SweepResult:
    """Baseline-vs-managed comparison per PMI granularity.

    The workload's intrinsic behaviour (segment size) is held fixed so
    the sweep isolates the sampling effect, exactly as in the
    granularity ablation bench.  The trace is generated once and shared
    by every granularity.

    This sweep takes an arbitrary governor *factory*, which cannot be
    content-hashed, so it always computes inline (no engine fan-out or
    caching); the result is still a typed :class:`SweepResult`.

    Returns:
        A :class:`SweepResult` over axis ``(granularity_uops,)`` whose
        cells carry the comparison summary metrics
        (``edp_improvement``, ``power_savings``, ...); ``.to_dict()``
        gives ``{granularity_uops: {metric: value}}``.
    """
    if not granularities:
        raise ConfigurationError("granularities must not be empty")
    started = time.perf_counter()
    trace = benchmark(benchmark_name).trace(
        n_intervals=n_segments, uops_per_interval=segment_uops
    )
    cells = []
    for granularity in granularities:
        machine = Machine(granularity_uops=granularity)
        baseline = machine.run(
            trace, StaticGovernor(machine.speedstep.fastest)
        )
        managed = machine.run(trace, governor_factory())
        summary = comparison_summary(
            ComparisonMetrics(baseline=baseline, managed=managed), managed
        )
        cells.append(SweepCell.create((granularity,), summary))
    return SweepResult(
        name="granularity",
        axes=("granularity_uops",),
        cells=tuple(cells),
        parameters=(
            ("benchmark", benchmark_name),
            ("n_segments", n_segments),
            ("segment_uops", segment_uops),
        ),
        metric=None,
        provenance=Provenance.inline(
            len(cells), time.perf_counter() - started
        ),
    )


def sweep_frequencies(
    benchmark_name: str,
    n_intervals: int = 50,
    engine: Optional[ExecutionEngine] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """Run a benchmark pinned at every operating point (Figure 7 style).

    One ``pinned_frequency`` engine cell per operating point of the
    default platform.

    Returns:
        A :class:`SweepResult` over axis ``(frequency_mhz,)``;
        ``.to_dict()`` restores the legacy ``{frequency_mhz: {"bips":
        ..., "power_w": ..., "upc": ..., "mem_per_uop": ...}}`` shape.
    """
    frequencies = pinned_frequency_points()
    specs = [
        ExperimentSpec.create(
            "pinned_frequency",
            benchmark=benchmark_name,
            n_intervals=n_intervals,
            frequency_mhz=frequency,
        )
        for frequency in frequencies
    ]
    report = _resolve_engine(engine, jobs, cache).run(specs)
    cells = []
    for frequency, spec in zip(frequencies, specs):
        value = dict(report.value(spec))
        value.pop("frequency_mhz", None)
        cells.append(SweepCell.create((frequency,), value))
    return SweepResult(
        name="frequencies",
        axes=("frequency_mhz",),
        cells=tuple(cells),
        parameters=(
            ("benchmark", benchmark_name),
            ("n_intervals", n_intervals),
        ),
        metric=None,
        provenance=report.provenance(),
    )
