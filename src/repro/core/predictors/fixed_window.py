"""Fixed-history-window predictor.

Predicts ``Phase[t+1] = f(Phase[t], ..., Phase[t - (winsize-1)])`` over a
sliding window of the last ``window_size`` observations (paper Section 3).
Two selector functions ``f`` are provided, matching the options the paper
lists:

* ``"majority"`` — a population-count selector: the most frequent phase
  in the window wins, ties broken toward the most recently observed of
  the tied phases;
* ``"mean"`` — the window's phase ids are averaged and rounded to the
  nearest valid phase (an "averaging function" over the discretised
  metric).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Iterable, List, Sequence, Tuple

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
from repro.errors import ConfigurationError

_SELECTORS = ("majority", "mean")


def majority(window: Sequence[int]) -> int:
    """The most frequent phase in a non-empty ``window``.

    Ties go to the most recently observed of the tied phases.
    """
    counts = Counter(window)
    best_count = max(counts.values())
    tied = {phase for phase, n in counts.items() if n == best_count}
    if len(tied) == 1:
        return next(iter(tied))
    for phase in reversed(window):
        if phase in tied:
            return phase
    raise AssertionError("unreachable: tie set drawn from the window")


def slide_majority(
    window: Iterable[int],
    size: int,
    phases: Sequence[int],
    restarts: Sequence[int] = (),
) -> Tuple[List[int], List[int]]:
    """Batch kernel of :func:`majority` over a sliding window.

    Appends each of ``phases`` to ``window`` in turn, keeping at most
    ``size`` entries, and returns the majority after every append plus
    the window left at the end.  ``restarts`` lists ascending indices
    into ``phases`` at which the window is emptied before that phase
    is added.

    Keeps running counts plus last-occurrence positions.  The tie-break
    is exactly :func:`majority`'s reversed-window scan: that scan
    returns the tied phase whose latest occurrence index is greatest.
    """
    sequence = list(window)
    left = 0
    counts: Dict[int, int] = dict(Counter(sequence))
    last_pos: Dict[int, int] = {phase: i for i, phase in enumerate(sequence)}
    cuts = iter([len(sequence) + index for index in restarts])
    cut = next(cuts, -1)
    predictions: List[int] = []
    append = predictions.append
    for index, phase in enumerate(phases, len(sequence)):
        if index == cut:
            counts.clear()
            left = index
            cut = next(cuts, -1)
        sequence.append(phase)
        counts[phase] = counts.get(phase, 0) + 1
        last_pos[phase] = index
        if index + 1 - left > size:
            evicted = sequence[left]
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
            left += 1
        best_count = max(counts.values())
        tied = [p for p, n in counts.items() if n == best_count]
        if len(tied) == 1:
            append(tied[0])
        else:
            append(max(tied, key=last_pos.__getitem__))
    return predictions, sequence[left:]


class FixedWindowPredictor(PhasePredictor):
    """Sliding-window statistical predictor.

    Args:
        window_size: Number of past observations considered (>= 1).  The
            paper evaluates sizes 8 and 128.
        selector: ``"majority"`` (default) or ``"mean"``.
    """

    def __init__(self, window_size: int, selector: str = "majority") -> None:
        if window_size < 1:
            raise ConfigurationError(
                f"window size must be >= 1, got {window_size}"
            )
        if selector not in _SELECTORS:
            raise ConfigurationError(
                f"selector must be one of {_SELECTORS}, got {selector!r}"
            )
        self._window_size = window_size
        self._selector = selector
        self._window: Deque[int] = deque(maxlen=window_size)

    @property
    def name(self) -> str:
        return f"FixWindow_{self._window_size}"

    @property
    def window_size(self) -> int:
        """Maximum number of observations retained."""
        return self._window_size

    def observe(self, observation: PhaseObservation) -> None:
        self._window.append(observation.phase)

    def predict(self) -> int:
        if not self._window:
            return self.DEFAULT_PHASE
        if self._selector == "mean":
            return round(sum(self._window) / len(self._window))
        return majority(self._window)

    def observe_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> None:
        """Batch kernel: extend the window; ``maxlen`` evicts the rest."""
        self._window.extend(phases)

    def predict_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> List[int]:
        """Batch kernel for the fused observe/predict cycle.

        Slides incrementally over ``existing window + phases``: a
        running sum for ``"mean"``, :func:`slide_majority` for
        ``"majority"``.  The scalar predictor emits no trace events, so
        the kernel holds with or without a tracer bound.
        """
        if not len(phases):
            return []
        size = self._window_size
        if self._selector == "mean":
            sequence = list(self._window)
            left = 0
            predictions: List[int] = []
            append = predictions.append
            total = sum(sequence)
            for phase in phases:
                sequence.append(phase)
                total += phase
                if len(sequence) - left > size:
                    total -= sequence[left]
                    left += 1
                append(round(total / (len(sequence) - left)))
            window = sequence[left:]
        else:
            predictions, window = slide_majority(self._window, size, phases)
        self._window = deque(window, maxlen=size)
        return predictions

    def reset(self) -> None:
        self._window.clear()

    def export_state(self) -> PredictorState:
        return {
            "kind": "fixed_window",
            "window_size": self._window_size,
            "selector": self._selector,
            "window": list(self._window),
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "fixed_window")
        check_config(
            state,
            (
                ("window_size", self._window_size),
                ("selector", self._selector),
            ),
        )
        window = int_list(state, "window")
        if len(window) > self._window_size:
            raise ConfigurationError(
                f"checkpoint window holds {len(window)} entries, size is "
                f"{self._window_size}"
            )
        self._window = deque(window, maxlen=self._window_size)
