"""First-order Markov (transition-table) predictor — extension baseline.

Sits between the paper's statistical predictors and the GPHT: it learns
``P(next phase | current phase)`` by counting observed transitions and
predicts the maximum-likelihood successor of the current phase.  With
one step of context it captures sticky behaviour and simple two-phase
alternations, but cannot disambiguate patterns that revisit the same
phase with different continuations — exactly the cases the GPHT's deep
global history resolves.  Including it in comparisons shows how much of
the GPHT's advantage comes from *depth* rather than from learning
transitions at all.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import DefaultDict, Optional

from repro.core.predictors._checkpoint import check_kind, count_pairs
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.numerics import as_int, as_list, as_opt_int


class MarkovPredictor(PhasePredictor):
    """Maximum-likelihood first-order phase transition predictor.

    Predicts the most frequently observed successor of the current
    phase; ties break toward self (persisting, i.e. last-value
    behaviour).  Phases with no recorded successor fall back to
    last-value prediction.
    """

    def __init__(self) -> None:
        self._transitions: DefaultDict[int, "Counter[int]"] = defaultdict(
            Counter
        )
        self._current: Optional[int] = None

    @property
    def name(self) -> str:
        return "Markov1"

    @property
    def current_phase(self) -> Optional[int]:
        """The most recently observed phase (None before any)."""
        return self._current

    def transition_count(self, source: int, target: int) -> int:
        """Observed ``source -> target`` transitions so far."""
        return self._transitions[source][target]

    def observe(self, observation: PhaseObservation) -> None:
        if self._current is not None:
            self._transitions[self._current][observation.phase] += 1
        self._current = observation.phase

    def predict(self) -> int:
        if self._current is None:
            return self.DEFAULT_PHASE
        successors = self._transitions.get(self._current)
        if not successors:
            return self._current
        best_count = max(successors.values())
        tied = [p for p, n in successors.items() if n == best_count]
        if self._current in tied:
            return self._current
        return tied[0]

    def reset(self) -> None:
        self._transitions.clear()
        self._current = None

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot of the transition table.

        Successor counts are listed in Counter insertion order — the
        ``predict`` tie-break (``tied[0]``) depends on it, so a restore
        must reproduce the iteration order, not just the counts.
        """
        return {
            "kind": "markov1",
            "transitions": [
                [source, [[target, n] for target, n in counts.items()]]
                for source, counts in self._transitions.items()
            ],
            "current": self._current,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "markov1")
        transitions: DefaultDict[int, "Counter[int]"] = defaultdict(Counter)
        raw = as_list(state.get("transitions"), "checkpoint 'transitions'")
        for entry in raw:
            source, pairs = as_list(entry, "transition entry", 2)
            counts = transitions[as_int(source, "transition source")]
            for target, n in count_pairs(pairs, "transition"):
                counts[target] = n
        current = as_opt_int(state.get("current"), "current")
        self._transitions = transitions
        self._current = current
