"""Supervised dataset extraction from traces and live workloads.

Two dataset shapes feed the ``repro.learn`` models:

* :class:`PhaseWindowDataset` — sliding feature windows over a phase
  stream (``k`` most-recent phases + the last two raw ``Mem/Uop``
  samples) labelled with the *next* phase.  Built from a recorded
  ``repro.obs`` JSONL trace (its ``interval_sampled`` events) or
  directly from a live workload generator's ``Mem/Uop`` series.
* :class:`PowerDataset` — per-interval counter vectors
  (``upc``, ``Mem/Uop``, frequency) labelled with the interval's
  measured power, built from full machine runs.  Recorded traces carry
  **no** power channel (``interval_sampled`` predates the DAQ join), so
  power datasets must come from runs; the builders say so explicitly.

Both datasets serialise to canonical JSON (sorted keys, fixed float
``repr``) and hash to a stable sha256 digest, which is what the
training-determinism guarantee is anchored on: same inputs -> same
dataset bytes -> same model artifact bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phases import PhaseTable
from repro.errors import ConfigurationError
from repro.obs.events import IntervalSampled, TraceEvent
from repro.system.metrics import RunResult

#: Dataset payload format version.
DATASET_VERSION = 1


def _canonical_json(payload: Dict[str, object]) -> str:
    """Canonical JSON: sorted keys, no spaces, trailing newline."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


@dataclass(frozen=True, eq=False)
class PhaseWindowDataset:
    """Feature windows over a phase stream, labelled with the next phase.

    Feature layout per example (``history_length + 2`` columns)::

        [phase_t, phase_{t-1}, ..., phase_{t-k+1}, mem_t, mem_{t-1}]

    with ``0`` phase padding and ``0.0`` mem padding before the stream
    starts — exactly the live view an online predictor has after
    observing sample ``t``; the label is the phase of sample ``t + 1``.

    Attributes:
        history_length: ``k``, the number of phase-history columns.
        features: Read-only ``(n, k + 2)`` float64 matrix.
        labels: Read-only ``(n,)`` int64 next-phase labels.
    """

    history_length: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.history_length < 1:
            raise ConfigurationError(
                f"history_length must be >= 1, got {self.history_length}"
            )
        if (
            self.features.ndim != 2
            or self.features.shape[1] != self.history_length + 2
        ):
            raise ConfigurationError(
                f"features must be (n, {self.history_length + 2}), got "
                f"{self.features.shape}"
            )
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigurationError(
                f"labels must be ({self.features.shape[0]},), got "
                f"{self.labels.shape}"
            )
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def to_payload(self) -> Dict[str, object]:
        """Lossless JSON-able form of the whole dataset."""
        return {
            "version": DATASET_VERSION,
            "type": "phase_window",
            "history_length": self.history_length,
            "features": [list(row) for row in self.features.tolist()],
            "labels": [int(v) for v in self.labels.tolist()],
        }

    def to_json(self) -> str:
        """Canonical JSON (the determinism anchor)."""
        return _canonical_json(self.to_payload())

    def digest(self) -> str:
        """sha256 of the canonical JSON bytes."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def split(
        self, train_fraction: float, seed: int
    ) -> Tuple["PhaseWindowDataset", "PhaseWindowDataset"]:
        """Deterministic seeded train/holdout split.

        Uses a seeded :func:`numpy.random.default_rng` permutation, so
        the same (dataset, fraction, seed) triple always produces the
        same byte-identical halves.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        n = len(self)
        order = np.random.default_rng(seed).permutation(n)
        cut = int(round(n * train_fraction))
        train_rows = np.sort(order[:cut])
        hold_rows = np.sort(order[cut:])
        return (
            PhaseWindowDataset(
                history_length=self.history_length,
                features=self.features[train_rows].copy(),
                labels=self.labels[train_rows].copy(),
            ),
            PhaseWindowDataset(
                history_length=self.history_length,
                features=self.features[hold_rows].copy(),
                labels=self.labels[hold_rows].copy(),
            ),
        )


def phase_dataset_from_series(
    mem_series: Sequence[float],
    history_length: int = 4,
    phase_table: Optional[PhaseTable] = None,
) -> PhaseWindowDataset:
    """Extract phase-window examples from a raw ``Mem/Uop`` series.

    The series is classified with ``phase_table`` (default: the paper's
    Table 1) exactly as the offline evaluator does, then unrolled into
    one example per scored prediction: the window after sample ``t``
    labelled with the phase of sample ``t + 1``.
    """
    if history_length < 1:
        raise ConfigurationError(
            f"history_length must be >= 1, got {history_length}"
        )
    values: List[float] = np.asarray(
        mem_series, dtype=np.float64
    ).tolist()
    if len(values) < 2:
        raise ConfigurationError(
            f"dataset extraction needs >= 2 samples, got {len(values)}"
        )
    table = phase_table if phase_table is not None else PhaseTable()
    phases = table.classify_batch(values)
    n = len(values) - 1
    features = np.zeros((n, history_length + 2), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64)
    for t in range(n):
        for lag in range(history_length):
            if t - lag >= 0:
                features[t, lag] = float(phases[t - lag])
        features[t, history_length] = values[t]
        if t >= 1:
            features[t, history_length + 1] = values[t - 1]
        labels[t] = phases[t + 1]
    return PhaseWindowDataset(
        history_length=history_length, features=features, labels=labels
    )


def phase_dataset_from_events(
    events: Sequence[TraceEvent],
    history_length: int = 4,
    phase_table: Optional[PhaseTable] = None,
) -> PhaseWindowDataset:
    """Extract phase-window examples from a recorded ``repro.obs`` trace.

    Uses the ``interval_sampled`` events' ``mem_per_uop`` channel in
    stream order; every other event type is ignored.  Classification
    re-runs through ``phase_table``, matching the offline evaluator (and
    the trace's own ``phase_classified`` events, when the trace was
    recorded under the same table).
    """
    mem_values = [
        event.mem_per_uop
        for event in events
        if isinstance(event, IntervalSampled)
    ]
    if len(mem_values) < 2:
        raise ConfigurationError(
            "trace carries "
            f"{len(mem_values)} interval_sampled events; dataset "
            "extraction needs >= 2"
        )
    return phase_dataset_from_series(
        mem_values, history_length=history_length, phase_table=phase_table
    )


def phase_dataset_from_benchmark(
    benchmark_name: str,
    n_intervals: int,
    seed: Optional[int] = None,
    history_length: int = 4,
    phase_table: Optional[PhaseTable] = None,
) -> PhaseWindowDataset:
    """Extract phase-window examples from a live workload generator."""
    # Imported lazily to keep module import light; repro.workloads is a
    # sibling layer, not a dependency of the dataset structures.
    from repro.workloads.spec2000 import benchmark

    series = benchmark(benchmark_name).mem_series(n_intervals, seed=seed)
    return phase_dataset_from_series(
        series, history_length=history_length, phase_table=phase_table
    )


#: Power feature columns, in matrix order.
POWER_FEATURES: Tuple[str, ...] = ("upc", "mem_per_uop", "frequency_mhz")


@dataclass(frozen=True, eq=False)
class PowerDataset:
    """Per-interval counter vectors labelled with measured power.

    Attributes:
        features: Read-only ``(n, 3)`` float64 matrix, columns
            :data:`POWER_FEATURES`.
        power_w: Read-only ``(n,)`` float64 measured interval power.
    """

    features: np.ndarray
    power_w: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[1] != len(
            POWER_FEATURES
        ):
            raise ConfigurationError(
                f"features must be (n, {len(POWER_FEATURES)}), got "
                f"{self.features.shape}"
            )
        if self.power_w.shape != (self.features.shape[0],):
            raise ConfigurationError(
                f"power_w must be ({self.features.shape[0]},), got "
                f"{self.power_w.shape}"
            )
        self.features.flags.writeable = False
        self.power_w.flags.writeable = False

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def to_payload(self) -> Dict[str, object]:
        """Lossless JSON-able form of the whole dataset."""
        return {
            "version": DATASET_VERSION,
            "type": "power",
            "columns": list(POWER_FEATURES),
            "features": [list(row) for row in self.features.tolist()],
            "power_w": list(self.power_w.tolist()),
        }

    def to_json(self) -> str:
        """Canonical JSON (the determinism anchor)."""
        return _canonical_json(self.to_payload())

    def digest(self) -> str:
        """sha256 of the canonical JSON bytes."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def power_dataset_from_run(run: RunResult) -> PowerDataset:
    """Extract counter-vs-power examples from a completed machine run."""
    if not run.intervals:
        raise ConfigurationError("run has no intervals to extract from")
    n = len(run.intervals)
    features = np.zeros((n, len(POWER_FEATURES)), dtype=np.float64)
    power = np.zeros(n, dtype=np.float64)
    for i, metrics in enumerate(run.intervals):
        record = metrics.record
        features[i, 0] = record.upc
        features[i, 1] = record.mem_per_uop
        features[i, 2] = float(record.frequency_mhz)
        power[i] = metrics.power_w
    return PowerDataset(features=features, power_w=power)


def power_dataset_from_events(events: Sequence[TraceEvent]) -> PowerDataset:
    """Refuse trace input for power training, with the reason.

    ``interval_sampled`` events carry counters but no measured power
    (the DAQ stream is joined offline in the paper's workflow and is
    not part of the trace schema), so a learned power model cannot be
    fit from a recorded trace alone.  This stub exists so callers get a
    precise error instead of a silent zero-power dataset.
    """
    raise ConfigurationError(
        "recorded traces carry no measured power channel; train power "
        "models from a live run instead (power_dataset_from_run / "
        "power_dataset_from_benchmark, or `repro learn train --model "
        "power --benchmark ...`)"
    )


def power_dataset_from_benchmark(
    benchmark_name: str,
    n_intervals: int,
    seed: Optional[int] = None,
) -> PowerDataset:
    """Run a benchmark under the GPHT governor and extract power data.

    A managed run (rather than a pinned-frequency one) exercises the
    full operating-point range, so the dataset spans the frequency
    feature instead of collapsing it to a constant.
    """
    # Lazy imports: the machine stack is only needed by this builder.
    from repro.core.dvfs_policy import DVFSPolicy
    from repro.core.governor import PhasePredictionGovernor
    from repro.core.predictors import GPHTPredictor
    from repro.system.machine import Machine
    from repro.workloads.spec2000 import benchmark

    trace = benchmark(benchmark_name).trace(
        n_intervals=n_intervals, seed=seed
    )
    machine = Machine()
    governor = PhasePredictionGovernor(
        GPHTPredictor(), DVFSPolicy.paper_default()
    )
    run = machine.run(trace, governor)
    return power_dataset_from_run(run)
