"""Variable-history-window predictor.

Like the fixed window, but "the history can be shrunk in case of a phase
transition, where previous history becomes obsolete for the following
phase predictions" (paper Section 3).  A transition is detected on the
*raw* metric: whenever ``Mem/Uop`` moves by more than
``transition_threshold`` between consecutive samples, all accumulated
history is discarded and the window restarts from the new behaviour.

The paper evaluates a 128-entry window with thresholds 0.005 (eager
resets — behaves like last-value under variation) and 0.030 (reluctant
resets — behaves like a long majority window).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.core.predictors._checkpoint import (
    check_config,
    check_kind,
    int_list,
)
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.core.predictors.fixed_window import majority, slide_majority
from repro.errors import ConfigurationError
from repro.numerics import as_opt_float


class VariableWindowPredictor(PhasePredictor):
    """Sliding window that resets on detected phase transitions.

    Args:
        window_size: Maximum observations retained (>= 1).
        transition_threshold: ``Mem/Uop`` delta between consecutive
            samples above which history is considered obsolete (> 0).
    """

    def __init__(self, window_size: int, transition_threshold: float) -> None:
        if window_size < 1:
            raise ConfigurationError(
                f"window size must be >= 1, got {window_size}"
            )
        if transition_threshold <= 0:
            raise ConfigurationError(
                f"transition threshold must be > 0, got {transition_threshold}"
            )
        self._window_size = window_size
        self._threshold = transition_threshold
        self._window: Deque[int] = deque(maxlen=window_size)
        self._last_metric: Optional[float] = None

    @property
    def name(self) -> str:
        return f"VarWindow_{self._window_size}_{self._threshold:g}"

    @property
    def window_length(self) -> int:
        """Current (possibly shrunk) history length."""
        return len(self._window)

    def observe(self, observation: PhaseObservation) -> None:
        if (
            self._last_metric is not None
            and abs(observation.mem_per_uop - self._last_metric)
            > self._threshold
        ):
            self._window.clear()
        self._window.append(observation.phase)
        self._last_metric = observation.mem_per_uop

    def predict(self) -> int:
        if not self._window:
            return self.DEFAULT_PHASE
        return majority(self._window)

    def predict_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> List[int]:
        """Batch kernel for the fused observe/predict cycle.

        Finds the samples whose ``Mem/Uop`` moved by more than the
        threshold from the sample before (the first compares against
        the stored last metric), then runs the fixed window's
        :func:`slide_majority` with the window restarting at each.  The
        scalar predictor emits no trace events, so the kernel holds
        with or without a tracer bound.
        """
        if not len(phases):
            return []
        threshold = self._threshold
        previous = self._last_metric
        restarts: List[int] = []
        for index, value in enumerate(mem_values):
            if previous is not None and abs(value - previous) > threshold:
                restarts.append(index)
            previous = value
        predictions, window = slide_majority(
            self._window, self._window_size, phases, restarts
        )
        self._window = deque(window, maxlen=self._window_size)
        self._last_metric = previous
        return predictions

    def reset(self) -> None:
        self._window.clear()
        self._last_metric = None

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: window contents and the raw
        metric the next transition test compares against.
        """
        return {
            "kind": "variable_window",
            "window_size": self._window_size,
            "transition_threshold": self._threshold,
            "window": list(self._window),
            "last_metric": self._last_metric,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "variable_window")
        check_config(
            state,
            (
                ("window_size", self._window_size),
                ("transition_threshold", self._threshold),
            ),
        )
        window = int_list(state, "window")
        if len(window) > self._window_size:
            raise ConfigurationError(
                f"checkpoint window holds {len(window)} entries, size is "
                f"{self._window_size}"
            )
        last_metric = as_opt_float(state.get("last_metric"), "last_metric")
        self._window = deque(window, maxlen=self._window_size)
        self._last_metric = last_metric
