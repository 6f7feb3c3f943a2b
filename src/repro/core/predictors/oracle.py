"""Oracle predictor: a perfect-knowledge upper bound.

Not part of the paper's deployed system — used by our analysis layer to
bound how much of the remaining EDP gap is attributable to misprediction
versus to the phase/DVFS policy itself.  The oracle is primed with the
full phase sequence ahead of time and always answers with the true next
phase.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.predictors._checkpoint import check_kind, int_list
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.errors import ConfigurationError
from repro.numerics import as_int


class OraclePredictor(PhasePredictor):
    """Predicts the true next phase from a pre-supplied sequence.

    Args:
        phase_sequence: The complete actual phase sequence of the run the
            oracle will be consulted on, in execution order.

    The oracle tracks its position via :meth:`observe` calls: after the
    ``k``-th observation, :meth:`predict` returns element ``k`` of the
    sequence (the phase of interval ``k``, 0-based — i.e. the one about
    to execute).  Past the end of the sequence it repeats the final
    phase.
    """

    def __init__(self, phase_sequence: Sequence[int]) -> None:
        if not phase_sequence:
            raise ConfigurationError("oracle needs a non-empty phase sequence")
        self._sequence = tuple(phase_sequence)
        self._position = 0

    @property
    def name(self) -> str:
        return "Oracle"

    def observe(self, observation: PhaseObservation) -> None:
        self._position += 1

    def predict(self) -> int:
        if self._position < len(self._sequence):
            return self._sequence[self._position]
        return self._sequence[-1]

    def reset(self) -> None:
        self._position = 0

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Snapshot of the primed sequence and the current position."""
        return {
            "kind": "oracle",
            "sequence": list(self._sequence),
            "position": self._position,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "oracle")
        sequence = int_list(state, "sequence")
        if not sequence:
            raise ConfigurationError("oracle needs a non-empty phase sequence")
        position = as_int(state.get("position"), "position", minimum=0)
        self._sequence = tuple(sequence)
        self._position = position
