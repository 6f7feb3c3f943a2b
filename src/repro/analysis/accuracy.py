"""Offline predictor evaluation on phase traces (paper Section 3.2).

Replays a ``Mem/Uop`` series through a predictor exactly the way the
deployed PMI handler would — observe the finished interval, then predict
the next — and scores the predictions against the actual phases.  This is
the harness behind the paper's Figures 2, 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phases import PhaseTable
from repro.core.predictors import PhaseObservation, PhasePredictor
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of replaying one series through one predictor.

    Predictions exist for every interval after the first (the first has
    no history to predict from), so ``len(predictions) == len(actuals)
    == n - 1`` for an ``n``-interval series.

    Attributes:
        predictor_name: Display name of the evaluated predictor.
        predictions: Predicted phase per scored interval.
        actuals: Actual phase per scored interval.
    """

    predictor_name: str
    predictions: Tuple[int, ...]
    actuals: Tuple[int, ...]

    @property
    def total(self) -> int:
        """Number of scored predictions."""
        return len(self.predictions)

    @property
    def correct(self) -> int:
        """Number of correct predictions."""
        return sum(p == a for p, a in zip(self.predictions, self.actuals))

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions, in [0, 1]."""
        if self.total == 0:
            return 1.0
        return self.correct / self.total

    @property
    def misprediction_rate(self) -> float:
        """Fraction of wrong predictions, in [0, 1]."""
        return 1.0 - self.accuracy


def evaluate_predictor(
    predictor: PhasePredictor,
    mem_series: Sequence[float],
    phase_table: Optional[PhaseTable] = None,
    tracer: Tracer = NULL_TRACER,
) -> PredictionResult:
    """Replay ``mem_series`` through ``predictor`` and score it.

    The predictor is reset first, then driven through the handler's
    observe/predict cycle: the prediction made after observing sample
    ``t`` is scored against the actual phase of sample ``t + 1``.

    Args:
        predictor: The predictor under test (reset in place).
        mem_series: Per-interval ``Mem/Uop`` values (>= 2 samples).
        phase_table: Phase definitions (default: paper Table 1).
        tracer: Optional trace collector bound to the predictor for the
            replay; events are stamped with the sample index.  Recording
            never changes the scored result.
    """
    if len(mem_series) < 2:
        raise ConfigurationError(
            f"evaluation needs >= 2 samples, got {len(mem_series)}"
        )
    table = phase_table if phase_table is not None else PhaseTable()
    predictor.reset()
    predictor.bind_tracer(tracer)
    tracing = tracer.enabled
    predictions: List[int] = []
    actuals: List[int] = []
    pending: Optional[int] = None
    for index, value in enumerate(mem_series):
        if tracing:
            tracer.begin_interval(index)
        phase = table.classify(float(value))
        if pending is not None:
            predictions.append(pending)
            actuals.append(phase)
        predictor.observe(PhaseObservation(phase=phase, mem_per_uop=float(value)))
        pending = predictor.predict()
    return PredictionResult(
        predictor_name=predictor.name,
        predictions=tuple(predictions),
        actuals=tuple(actuals),
    )


def evaluate_predictor_batch(
    predictor: PhasePredictor,
    mem_series: Sequence[float],
    phase_table: Optional[PhaseTable] = None,
    tracer: Tracer = NULL_TRACER,
) -> PredictionResult:
    """Vectorized :func:`evaluate_predictor` — bit-identical results.

    Classifies the whole series in one :meth:`PhaseTable.classify_batch`
    call and drives the predictor through its fused
    :meth:`PhasePredictor.predict_batch` cycle, so kernelized predictors
    (GPHT, last-value, fixed-window, variable-window) skip all
    per-sample Python dispatch; every other predictor transparently
    runs the scalar-loop default and still produces the same
    :class:`PredictionResult`.

    When ``tracer`` is enabled the evaluation delegates to the scalar
    :func:`evaluate_predictor`, which stamps per-interval trace events —
    the scored result is identical either way.
    """
    if len(mem_series) < 2:
        raise ConfigurationError(
            f"evaluation needs >= 2 samples, got {len(mem_series)}"
        )
    if tracer.enabled:
        return evaluate_predictor(predictor, mem_series, phase_table, tracer)
    table = phase_table if phase_table is not None else PhaseTable()
    predictor.reset()
    predictor.bind_tracer(tracer)
    # One float64 round-trip matches the scalar path's float(value)
    # coercion exactly, whatever the input container was.
    values: List[float] = np.asarray(mem_series, dtype=np.float64).tolist()
    phases = table.classify_batch(values)
    predictions = predictor.predict_batch(phases, values)
    return PredictionResult(
        predictor_name=predictor.name,
        predictions=tuple(predictions[:-1]),
        actuals=tuple(phases[1:]),
    )


def evaluate_suite(
    predictor_factories: Sequence[Callable[[], PhasePredictor]],
    series_by_benchmark: Dict[str, Sequence[float]],
    phase_table: Optional[PhaseTable] = None,
) -> Dict[str, Dict[str, PredictionResult]]:
    """Evaluate a family of predictors over a family of benchmarks.

    Each predictor is constructed fresh per benchmark so no state leaks
    between workloads (matching per-application deployment).

    Args:
        predictor_factories: Zero-argument callables producing fresh
            predictors.
        series_by_benchmark: ``Mem/Uop`` series keyed by benchmark name.
        phase_table: Shared phase definitions.

    Returns:
        ``{benchmark: {predictor_name: result}}``.
    """
    results: Dict[str, Dict[str, PredictionResult]] = {}
    for name, series in series_by_benchmark.items():
        per_predictor: Dict[str, PredictionResult] = {}
        for factory in predictor_factories:
            predictor = factory()
            result = evaluate_predictor(predictor, series, phase_table)
            per_predictor[result.predictor_name] = result
        results[name] = per_predictor
    return results


def misprediction_improvement(
    baseline: PredictionResult, improved: PredictionResult
) -> float:
    """How many times fewer mispredictions ``improved`` makes.

    The paper reports "GPHT reduces mispredictions by more than 6X over
    commonly-used statistical approaches" — this is that factor.  Returns
    ``inf`` when the improved predictor is perfect.
    """
    if improved.misprediction_rate == 0.0:
        return float("inf")
    return baseline.misprediction_rate / improved.misprediction_rate
