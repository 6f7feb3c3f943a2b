"""Duration-based phase predictor — extension baseline.

Implements the prediction style of the paper's reference [14] (Isci,
Martonosi & Buyuktosunoglu: "Long-term Workload Phases: Duration
Predictions and Applications to DVFS"): learn how long each phase
typically persists and which phase usually follows it; predict that the
current phase continues while its run is statistically likely to
continue, and switch to the learned successor once the run has outlived
its typical duration.

Compared to the GPHT this predictor sees durations and one-step
transitions but no deeper patterns — a useful mid-point between the
statistical predictors and global pattern history.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import DefaultDict, Optional

from repro.analysis.durations import DurationStatistics
from repro.core.predictors._checkpoint import (
    check_config,
    check_kind,
    count_pairs,
)
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.errors import ConfigurationError
from repro.numerics import as_int, as_list, as_opt_int


class DurationPredictor(PhasePredictor):
    """Run-length + successor phase predictor.

    Args:
        continuation_threshold: Predict the current phase persists while
            its empirical continuation probability at the current run
            length is at least this value; below it, predict the
            most-likely successor.
    """

    def __init__(self, continuation_threshold: float = 0.5) -> None:
        if not 0.0 < continuation_threshold <= 1.0:
            raise ConfigurationError(
                "continuation_threshold must be in (0, 1], got "
                f"{continuation_threshold}"
            )
        self._threshold = continuation_threshold
        self._durations = DurationStatistics()
        self._successors: DefaultDict[int, "Counter[int]"] = defaultdict(
            Counter
        )
        self._current: Optional[int] = None
        self._elapsed = 0

    @property
    def name(self) -> str:
        return f"Duration_{self._threshold:g}"

    @property
    def durations(self) -> DurationStatistics:
        """The run-length statistics learned so far."""
        return self._durations

    @property
    def current_run_length(self) -> int:
        """Length of the in-progress run (0 before any observation)."""
        return self._elapsed

    def observe(self, observation: PhaseObservation) -> None:
        phase = observation.phase
        if self._current is None:
            self._current = phase
            self._elapsed = 1
            return
        if phase == self._current:
            self._elapsed += 1
            return
        # The previous run just completed: learn its duration and its
        # successor, then start the new run.
        self._durations.record(self._current, self._elapsed)
        self._successors[self._current][phase] += 1
        self._current = phase
        self._elapsed = 1

    def predict(self) -> int:
        if self._current is None:
            return self.DEFAULT_PHASE
        continuation = self._durations.continuation_probability(
            self._current, self._elapsed
        )
        if continuation >= self._threshold:
            return self._current
        successors = self._successors.get(self._current)
        if not successors:
            return self._current
        return successors.most_common(1)[0][0]

    def reset(self) -> None:
        self._durations = DurationStatistics()
        self._successors = defaultdict(Counter)
        self._current = None
        self._elapsed = 0

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: duration histograms, successor
        counts (Counter insertion order — ``most_common`` ties break on
        it) and the in-progress run.
        """
        return {
            "kind": "duration",
            "continuation_threshold": self._threshold,
            "durations": self._durations.to_payload(),
            "successors": [
                [source, [[target, n] for target, n in counts.items()]]
                for source, counts in self._successors.items()
            ],
            "current": self._current,
            "elapsed": self._elapsed,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "duration")
        check_config(
            state, (("continuation_threshold", self._threshold),)
        )
        durations = DurationStatistics.from_payload(state.get("durations"))
        successors: DefaultDict[int, "Counter[int]"] = defaultdict(Counter)
        raw = as_list(state.get("successors"), "checkpoint 'successors'")
        for entry in raw:
            source, pairs = as_list(entry, "successor entry", 2)
            counts = successors[as_int(source, "successor source")]
            for target, n in count_pairs(pairs, "successor"):
                counts[target] = n
        elapsed = as_int(state.get("elapsed"), "elapsed", minimum=0)
        current = as_opt_int(state.get("current"), "current")
        self._durations = durations
        self._successors = successors
        self._current = current
        self._elapsed = elapsed
