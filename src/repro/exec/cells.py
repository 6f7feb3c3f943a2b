"""Cell evaluators: the computations behind every sweep cell.

A *cell kind* is a named, pure function from an
:class:`~repro.exec.spec.ExperimentSpec` to a flat JSON-able metrics
mapping.  Kinds are registered in :data:`CELL_KINDS` so worker
processes can evaluate any spec after pickling it — the dispatch is by
name, never by closure.

Three kinds cover the paper's evaluation space:

* ``predictor_accuracy`` — replay a benchmark's ``Mem/Uop`` series
  through one named predictor (Figures 4/5 and the depth ablation);
* ``comparison`` — baseline-vs-managed machine runs under a named
  governor/policy (Figures 11-13);
* ``pinned_frequency`` — one run pinned at a single operating point
  (Figure 7).

Per-process series/trace memoisation: within one sweep a benchmark's
trace is generated exactly once per process and shared by every cell
that replays it (series generation costs ~6x a predictor evaluation),
regardless of how many PHT sizes or governors cross it.  The same holds
for a trace's pinned-fastest baseline run: every ``comparison`` cell on
that trace compares against one baseline, of which only the totals are
kept.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, Union, cast

import numpy as np

from repro.analysis.accuracy import evaluate_predictor_batch
from repro.analysis.witnesses import spec_phase_witnesses
from repro.core.dvfs_policy import DVFSPolicy, derive_bounded_policy
from repro.core.governor import (
    Governor,
    PhasePredictionGovernor,
    ReactiveGovernor,
    StaticGovernor,
)
from repro.core.objectives import derive_objective_policy
from repro.core.phases import PhaseTable
from repro.core.predictors import GPHTPredictor, PhasePredictor, paper_predictor_suite
from repro.cpu.frequency import SpeedStepTable
from repro.errors import ConfigurationError
from repro.exec.spec import ExperimentSpec, MachineConfig
from repro.numerics import shown
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.system.metrics import ComparisonMetrics, RunResult
from repro.workloads.segments import WorkloadTrace
from repro.workloads.spec2000 import benchmark

#: One cell's result: a flat mapping of JSON-able scalars.
CellValue = Dict[str, Union[str, int, float, bool, None]]

#: A registered cell evaluator: spec + trace collector -> metrics.
CellEvaluator = Callable[[ExperimentSpec, Tracer], CellValue]

#: Registered cell evaluators by kind name.
CELL_KINDS: Dict[str, CellEvaluator] = {}


def register_cell_kind(
    name: str,
) -> Callable[[CellEvaluator], CellEvaluator]:
    """Class-of-computation registrar for :data:`CELL_KINDS`."""

    def decorate(fn: CellEvaluator) -> CellEvaluator:
        CELL_KINDS[name] = fn
        return fn

    return decorate


def evaluate_cell(
    spec: ExperimentSpec, tracer: Tracer = NULL_TRACER
) -> CellValue:
    """Evaluate one spec through its registered kind.

    This is the (picklable, module-level) function every runner backend
    calls, in-process or in a worker.  ``tracer`` records the runtime
    events of the cell's simulated runs (``repro run --trace`` uses it);
    worker processes always run with the default no-op tracer, since a
    live collector cannot cross a process boundary.  Tracing is
    zero-perturbation: the returned value is identical either way.
    """
    try:
        fn = CELL_KINDS[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown cell kind {spec.kind!r}; known: {sorted(CELL_KINDS)}"
        ) from None
    return fn(spec, tracer)


# ---------------------------------------------------------------------------
# Per-process workload memoisation (the "generate each trace once" audit)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _mem_series(
    benchmark_name: str, n_intervals: int, seed: Optional[int]
) -> "np.ndarray":
    """One benchmark's ``Mem/Uop`` series, generated once per process.

    The array is marked read-only so the shared copy cannot be mutated
    by one cell under another cell's feet.
    """
    series = benchmark(benchmark_name).mem_series(n_intervals, seed=seed)
    series.flags.writeable = False
    return series


@functools.lru_cache(maxsize=64)
def _trace(
    benchmark_name: str, n_intervals: int, seed: Optional[int]
) -> WorkloadTrace:
    """One benchmark's workload trace, generated once per process."""
    return benchmark(benchmark_name).trace(n_intervals=n_intervals, seed=seed)


#: Baseline runs kept per process; least recently used evicted first,
#: as in the trace memo.
BASELINE_MEMO_SIZE = 64

#: Pinned-fastest baselines by (machine, benchmark, length, seed).
_baselines: OrderedDict[
    Tuple[MachineConfig, str, int, Optional[int]], RunResult
] = OrderedDict()
_baseline_counts: Counter[str] = Counter()


def _baseline(spec: ExperimentSpec, trace: WorkloadTrace) -> RunResult:
    """``trace``'s pinned-fastest baseline run, made once per process.

    Only the run's totals are kept: a comparison reads nothing else
    from its baseline, so the per-interval log is dropped.
    """
    key = (spec.machine, spec.benchmark, spec.n_intervals, spec.seed)
    baseline = _baselines.get(key)
    if baseline is not None:
        _baselines.move_to_end(key)
        _baseline_counts["reused"] += 1
        return baseline
    machine = spec.machine.build()
    run = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
    baseline = _baselines[key] = dataclasses.replace(run, intervals=())
    _baseline_counts["run"] += 1
    if len(_baselines) > BASELINE_MEMO_SIZE:
        _baselines.popitem(last=False)
    return baseline


def clear_workload_memos() -> None:
    """Drop the series, trace and baseline memos (test isolation hook)."""
    _mem_series.cache_clear()
    _trace.cache_clear()
    _baselines.clear()
    _baseline_counts.clear()


def workload_memo_stats() -> Dict[str, int]:
    """Generation counts for the memoised workloads (observability)."""
    series_info = _mem_series.cache_info()
    trace_info = _trace.cache_info()
    return {
        "series_generated": series_info.misses,
        "series_reused": series_info.hits,
        "traces_generated": trace_info.misses,
        "traces_reused": trace_info.hits,
        "baselines_run": _baseline_counts["run"],
        "baselines_reused": _baseline_counts["reused"],
    }


# ---------------------------------------------------------------------------
# Named component factories (shared with the CLI)
# ---------------------------------------------------------------------------


def build_predictor(name: str) -> PhasePredictor:
    """Construct a predictor from its display name.

    Accepts every member of the paper's Figure 4 suite plus any
    ``GPHT_<depth>_<entries>`` configuration.
    """
    if name.startswith("GPHT_"):
        parts = name.split("_")
        if len(parts) == 3:
            try:
                return GPHTPredictor(int(parts[1]), int(parts[2]))
            except ValueError:
                pass
    for predictor in paper_predictor_suite():
        if predictor.name == name:
            return predictor
    known = [p.name for p in paper_predictor_suite()]
    raise ConfigurationError(
        f"unknown predictor {name!r}; known: {known} or GPHT_<depth>_<entries>"
    )


#: Governor registry names accepted by :func:`build_governor`.
GOVERNOR_NAMES: Tuple[str, ...] = ("gpht", "reactive")

#: Policy registry names accepted by :func:`build_policy`.
POLICY_NAMES: Tuple[str, ...] = ("table2", "bounded", "energy", "edp", "ed2p")

#: Performance-degradation bound the ``bounded`` policy is derived for
#: (Figure 13's conservative phase definitions).
BOUNDED_DEGRADATION_TARGET = 0.05


def build_policy(name: str) -> DVFSPolicy:
    """Construct a phase-to-DVFS policy from its registry name."""
    if name == "table2":
        return DVFSPolicy.paper_default()
    if name == "bounded":
        return derive_bounded_policy(
            BOUNDED_DEGRADATION_TARGET,
            witnesses_by_phase=spec_phase_witnesses(),
        )
    if name in ("energy", "edp", "ed2p"):
        return derive_objective_policy(name)
    raise ConfigurationError(
        f"unknown policy {shown(name)}; known: table2, bounded, energy, "
        "edp, ed2p"
    )


def build_governor(
    governor: str,
    policy: str = "table2",
    gphr_depth: int = 8,
    pht_entries: int = 128,
) -> Governor:
    """Construct a managed governor from registry names."""
    dvfs_policy = build_policy(policy)
    if governor == "gpht":
        return PhasePredictionGovernor(
            GPHTPredictor(gphr_depth, pht_entries), dvfs_policy
        )
    if governor == "reactive":
        return ReactiveGovernor(dvfs_policy)
    raise ConfigurationError(
        f"unknown governor {governor!r}; known: gpht, reactive"
    )


def _phase_table(spec: ExperimentSpec) -> Optional[PhaseTable]:
    """Rebuild an optional custom phase table from spec parameters."""
    edges = spec.param("phase_edges")
    if edges is None:
        return None
    if not isinstance(edges, tuple):
        raise ConfigurationError(
            f"phase_edges must be a tuple of floats, got {edges!r}"
        )
    return PhaseTable(tuple(float(cast(float, e)) for e in edges))


# ---------------------------------------------------------------------------
# Cell kinds
# ---------------------------------------------------------------------------


@register_cell_kind("predictor_accuracy")
def _cell_predictor_accuracy(
    spec: ExperimentSpec, tracer: Tracer = NULL_TRACER
) -> CellValue:
    """Replay the benchmark's series through one named predictor."""
    predictor_name = spec.param("predictor")
    if not isinstance(predictor_name, str):
        raise ConfigurationError(
            f"predictor_accuracy needs a 'predictor' name, got {predictor_name!r}"
        )
    series = _mem_series(spec.benchmark, spec.n_intervals, spec.seed)
    predictor = build_predictor(predictor_name)
    # Batch path; bit-identical to the scalar evaluator (and delegates
    # back to it when tracing), so cached cell values stay compatible.
    result = evaluate_predictor_batch(
        predictor, series, _phase_table(spec), tracer=tracer
    )
    return {
        "predictor": result.predictor_name,
        "accuracy": result.accuracy,
        "misprediction_rate": result.misprediction_rate,
        "correct": result.correct,
        "total": result.total,
    }


def comparison_summary(
    comparison: ComparisonMetrics, managed: RunResult
) -> CellValue:
    """Flatten a baseline-vs-managed comparison to JSON-able scalars."""
    baseline = comparison.baseline
    return {
        "governor": managed.governor_name,
        "edp_improvement": comparison.edp_improvement,
        "normalized_edp": comparison.normalized_edp,
        "power_savings": comparison.power_savings,
        "energy_savings": comparison.energy_savings,
        "performance_degradation": comparison.performance_degradation,
        "baseline_power_w": baseline.average_power_w,
        "managed_power_w": managed.average_power_w,
        "baseline_bips": baseline.bips,
        "managed_bips": managed.bips,
        "prediction_accuracy": managed.prediction_accuracy(),
        "transition_count": managed.transition_count,
        "handler_overhead_fraction": managed.handler_overhead_fraction,
        "n_intervals": len(managed.intervals),
    }


@register_cell_kind("comparison")
def _cell_comparison(
    spec: ExperimentSpec, tracer: Tracer = NULL_TRACER
) -> CellValue:
    """A managed machine run under a named governor, against the
    trace's pinned-fastest baseline.

    The baseline is shared: it runs once per process for each machine,
    benchmark, length and seed, and every governor and policy crossing
    that trace compares against it.  Only the managed run is traced —
    the baseline makes no decisions worth recording.
    """
    governor_name = spec.param("governor", "gpht")
    policy_name = spec.param("policy", "table2")
    if not isinstance(governor_name, str) or not isinstance(policy_name, str):
        raise ConfigurationError(
            "comparison needs string 'governor' and 'policy' parameters"
        )
    gphr_depth = int(cast(int, spec.param("gphr_depth", 8)))
    pht_entries = int(cast(int, spec.param("pht_entries", 128)))
    trace = _trace(spec.benchmark, spec.n_intervals, spec.seed)
    baseline = _baseline(spec, trace)
    managed = spec.machine.build().run(
        trace,
        build_governor(governor_name, policy_name, gphr_depth, pht_entries),
        tracer=tracer,
    )
    value = comparison_summary(
        ComparisonMetrics(baseline=baseline, managed=managed), managed
    )
    value["policy"] = policy_name
    return value


#: Model names the ``learned_accuracy`` cell accepts.
LEARNED_MODELS: Tuple[str, ...] = ("tree", "markov", "gpht", "last_value")

#: Default seed for the training series of a ``learned_accuracy`` cell.
#: Deliberately distinct from the evaluation seed (``spec.seed``,
#: default ``None`` -> the benchmark's own seed), so learned models are
#: always scored on a held-out realisation of the workload.
DEFAULT_TRAIN_SEED = 101


@register_cell_kind("learned_accuracy")
def _cell_learned_accuracy(
    spec: ExperimentSpec, tracer: Tracer = NULL_TRACER
) -> CellValue:
    """Train a learned predictor, then score it on a held-out series.

    Parameters (all via ``spec.param``):

    * ``model`` — one of :data:`LEARNED_MODELS`; ``gpht`` and
      ``last_value`` skip training and serve as the table-lookup
      baselines of the accuracy-vs-overhead comparison;
    * ``train_intervals`` / ``train_seed`` — the training series
      (defaults: ``spec.n_intervals`` / :data:`DEFAULT_TRAIN_SEED`);
    * ``history_length``, ``max_depth``, ``min_samples_leaf`` (tree),
      ``order``, ``alpha`` (markov), ``gphr_depth``, ``pht_entries``
      (gpht) — model hyperparameters.

    ``overhead_units`` is the model's worst-case structure probes per
    prediction (tree depth, markov order, one GPHT lookup, zero for
    last-value) — a deterministic, cache-stable cost proxy that needs
    no wall-clock timing inside the cell.
    """
    # Imported lazily: repro.learn sits above exec in the layer order
    # and registers no cells of its own; only this evaluator needs it.
    from repro.core.predictors import LastValuePredictor
    from repro.learn.dataset import phase_dataset_from_series
    from repro.learn.predictors import (
        DecisionTreePhasePredictor,
        MarkovKPredictor,
    )

    model = spec.param("model")
    if model not in LEARNED_MODELS:
        raise ConfigurationError(
            f"learned_accuracy needs a 'model' in {LEARNED_MODELS}, got "
            f"{model!r}"
        )
    train_intervals = int(
        cast(int, spec.param("train_intervals", spec.n_intervals))
    )
    train_seed = int(cast(int, spec.param("train_seed", DEFAULT_TRAIN_SEED)))
    table = _phase_table(spec)
    trained = False
    overhead_units = 0.0
    predictor: PhasePredictor
    if model == "tree":
        history_length = int(cast(int, spec.param("history_length", 4)))
        dataset = phase_dataset_from_series(
            _mem_series(spec.benchmark, train_intervals, train_seed),
            history_length=history_length,
            phase_table=table,
        )
        tree_predictor = DecisionTreePhasePredictor(
            history_length=history_length
        )
        tree = tree_predictor.fit(
            dataset,
            max_depth=int(cast(int, spec.param("max_depth", 8))),
            min_samples_leaf=int(
                cast(int, spec.param("min_samples_leaf", 2))
            ),
        )
        predictor = tree_predictor
        overhead_units = float(tree.depth)
        trained = True
    elif model == "markov":
        order = int(cast(int, spec.param("order", 3)))
        dataset = phase_dataset_from_series(
            _mem_series(spec.benchmark, train_intervals, train_seed),
            history_length=max(order, 1),
            phase_table=table,
        )
        markov_predictor = MarkovKPredictor(
            order=order,
            alpha=float(cast(float, spec.param("alpha", 0.5))),
        )
        markov_predictor.fit(dataset)
        predictor = markov_predictor
        overhead_units = float(order)
        trained = True
    elif model == "gpht":
        predictor = GPHTPredictor(
            int(cast(int, spec.param("gphr_depth", 8))),
            int(cast(int, spec.param("pht_entries", 128))),
        )
        overhead_units = 1.0
    else:
        predictor = LastValuePredictor()
    series = _mem_series(spec.benchmark, spec.n_intervals, spec.seed)
    result = evaluate_predictor_batch(predictor, series, table, tracer=tracer)
    return {
        "model": model,
        "predictor": result.predictor_name,
        "accuracy": result.accuracy,
        "misprediction_rate": result.misprediction_rate,
        "correct": result.correct,
        "total": result.total,
        "overhead_units": overhead_units,
        "trained": trained,
        "train_intervals": train_intervals,
        "train_seed": train_seed,
    }


@register_cell_kind("pinned_frequency")
def _cell_pinned_frequency(
    spec: ExperimentSpec, tracer: Tracer = NULL_TRACER
) -> CellValue:
    """One run pinned at a single operating point (Figure 7 style)."""
    frequency_mhz = int(cast(int, spec.param("frequency_mhz", 0)))
    machine = spec.machine.build()
    matches = [
        point
        for point in machine.speedstep
        if point.frequency_mhz == frequency_mhz
    ]
    if not matches:
        known = [p.frequency_mhz for p in machine.speedstep]
        raise ConfigurationError(
            f"no operating point at {frequency_mhz} MHz; known: {known}"
        )
    point = matches[0]
    trace = _trace(spec.benchmark, spec.n_intervals, spec.seed)
    run = machine.run(
        trace, StaticGovernor(point), initial_point=point, tracer=tracer
    )
    records = [m.record for m in run.intervals]
    return {
        "frequency_mhz": frequency_mhz,
        "bips": run.bips,
        "power_w": run.average_power_w,
        "upc": sum(r.upc for r in records) / len(records),
        "mem_per_uop": sum(r.mem_per_uop for r in records) / len(records),
    }


def pinned_frequency_points() -> List[int]:
    """Default-platform operating frequencies, in table order."""
    return [point.frequency_mhz for point in SpeedStepTable()]
