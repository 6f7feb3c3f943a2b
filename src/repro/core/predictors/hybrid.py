"""Tournament (hybrid) phase predictor — extension variant.

Hybrid branch predictors (McFarling) pair a simple component with a
pattern-based one and let a saturating *chooser* counter arbitrate based
on which component has been right more often recently.  Translated to
phase prediction: last-value is unbeatable on stable applications and
safe on random ones, while the GPHT wins on patterned variability — a
chooser gets the best of both without manual per-workload selection.

The chooser is a single global saturating counter (the phase stream is
one global sequence, unlike per-branch streams): each interval where
exactly one component was correct nudges the counter toward it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.predictors._checkpoint import check_config, check_kind
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.core.predictors.gpht import GPHTPredictor
from repro.core.predictors.last_value import LastValuePredictor
from repro.errors import ConfigurationError
from repro.numerics import as_int, as_opt_int


class TournamentPredictor(PhasePredictor):
    """Chooser-arbitrated combination of last-value and a GPHT.

    Args:
        gphr_depth: History depth of the GPHT component.
        pht_entries: PHT capacity of the GPHT component.
        chooser_bits: Width of the saturating chooser counter; the
            counter ranges over ``[0, 2^bits - 1]`` with values in the
            upper half selecting the GPHT.
    """

    def __init__(
        self,
        gphr_depth: int = 8,
        pht_entries: int = 128,
        chooser_bits: int = 2,
    ) -> None:
        if chooser_bits < 1:
            raise ConfigurationError(
                f"chooser_bits must be >= 1, got {chooser_bits}"
            )
        self._simple = LastValuePredictor()
        self._pattern = GPHTPredictor(gphr_depth, pht_entries)
        self._chooser_max = (1 << chooser_bits) - 1
        # Start in the middle, leaning pattern-ward: ties go to GPHT,
        # whose miss fallback is last-value anyway.
        self._chooser = (self._chooser_max + 1) // 2
        self._pending_simple: Optional[int] = None
        self._pending_pattern: Optional[int] = None

    @property
    def name(self) -> str:
        return (
            f"Tournament_{self._pattern.gphr_depth}"
            f"_{self._pattern.pht_capacity}"
        )

    @property
    def chooser_value(self) -> int:
        """Current chooser counter (upper half selects the GPHT)."""
        return self._chooser

    @property
    def selects_pattern(self) -> bool:
        """Whether the chooser currently favours the GPHT component."""
        return self._chooser > self._chooser_max // 2

    def observe(self, observation: PhaseObservation) -> None:
        # Train the chooser on the components' previous predictions.
        if (
            self._pending_simple is not None
            and self._pending_pattern is not None
        ):
            simple_hit = self._pending_simple == observation.phase
            pattern_hit = self._pending_pattern == observation.phase
            if pattern_hit and not simple_hit:
                self._chooser = min(self._chooser + 1, self._chooser_max)
            elif simple_hit and not pattern_hit:
                self._chooser = max(self._chooser - 1, 0)
        self._simple.observe(observation)
        self._pattern.observe(observation)

    def predict(self) -> int:
        simple = self._simple.predict()
        pattern = self._pattern.predict()
        self._pending_simple = simple
        self._pending_pattern = pattern
        return pattern if self.selects_pattern else simple

    def reset(self) -> None:
        self._simple.reset()
        self._pattern.reset()
        self._chooser = (self._chooser_max + 1) // 2
        self._pending_simple = None
        self._pending_pattern = None

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: both component states, the
        chooser counter and the pending component predictions.
        """
        return {
            "kind": "tournament",
            "chooser_max": self._chooser_max,
            "chooser": self._chooser,
            "simple": self._simple.export_state(),
            "pattern": self._pattern.export_state(),
            "pending_simple": self._pending_simple,
            "pending_pattern": self._pending_pattern,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "tournament")
        check_config(state, (("chooser_max", self._chooser_max),))
        chooser = as_int(state.get("chooser"), "chooser")
        if not 0 <= chooser <= self._chooser_max:
            raise ConfigurationError(
                f"chooser {chooser} outside [0, {self._chooser_max}]"
            )
        raw_simple = state.get("simple")
        raw_pattern = state.get("pattern")
        if not isinstance(raw_simple, dict) or not isinstance(
            raw_pattern, dict
        ):
            raise ConfigurationError(
                "checkpoint 'simple' and 'pattern' must be dicts"
            )
        # Restore into freshly built components so a half-applied nested
        # restore (e.g. a corrupt pattern payload) cannot leave this
        # predictor with mutated component state.
        simple = LastValuePredictor()
        simple.restore_state(raw_simple)
        pattern = GPHTPredictor(
            self._pattern.gphr_depth, self._pattern.pht_capacity
        )
        pattern.restore_state(raw_pattern)
        self._simple = simple
        self._pattern = pattern
        self._chooser_max = as_int(state.get("chooser_max"), "chooser_max")
        self._chooser = chooser
        self._pending_simple = as_opt_int(
            state.get("pending_simple"), "pending_simple"
        )
        self._pending_pattern = as_opt_int(
            state.get("pending_pattern"), "pending_pattern"
        )
