"""Last-value predictor: ``Phase[t+1] = Phase[t]``.

The simplest statistical predictor of Section 3 of the paper, and the
implicit policy of every purely *reactive* dynamic-management scheme: the
next interval is assumed to behave exactly like the one that just ended.
Excellent for stable applications, poor for rapidly varying ones.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.predictors._checkpoint import check_kind
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.numerics import as_bool, as_int


class LastValuePredictor(PhasePredictor):
    """Predicts the next phase to equal the last observed phase."""

    def __init__(self) -> None:
        self._last_phase: int = self.DEFAULT_PHASE
        self._seen_any = False

    @property
    def name(self) -> str:
        return "LastValue"

    def observe(self, observation: PhaseObservation) -> None:
        self._last_phase = observation.phase
        self._seen_any = True

    def predict(self) -> int:
        return self._last_phase if self._seen_any else self.DEFAULT_PHASE

    def observe_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> None:
        """Batch kernel: only the final phase survives as state."""
        if len(phases):
            self._last_phase = phases[-1]
            self._seen_any = True

    def predict_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> List[int]:
        """Batch kernel: each fused cycle predicts the phase just seen.

        The scalar predictor emits no trace events, so the kernel is
        valid (and bit-identical) whether or not a tracer is bound.
        """
        if not len(phases):
            return []
        self._last_phase = phases[-1]
        self._seen_any = True
        return list(phases)

    def reset(self) -> None:
        self._last_phase = self.DEFAULT_PHASE
        self._seen_any = False

    def export_state(self) -> PredictorState:
        return {
            "kind": "last_value",
            "last_phase": self._last_phase,
            "seen_any": self._seen_any,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "last_value")
        last_phase = as_int(state.get("last_phase"), "last_phase")
        seen_any = as_bool(state.get("seen_any"), "seen_any")
        self._last_phase = last_phase
        self._seen_any = seen_any
