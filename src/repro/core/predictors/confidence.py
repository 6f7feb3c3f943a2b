"""GPHT with saturating confidence counters — extension variant.

Hardware branch predictors rarely act on a single observation: two-bit
saturating counters add hysteresis so one anomalous outcome does not
flip a well-established prediction.  The paper's GPHT updates its stored
prediction from the single most recent outcome; this variant asks
whether branch-predictor-style hysteresis helps at phase granularity.

Each PHT entry carries a saturating confidence counter alongside its
prediction:

* a correct outcome increments confidence (up to ``max_confidence``);
* a wrong outcome decrements it; only when confidence is exhausted is
  the stored prediction replaced with the new outcome;
* predictions are *used* only at or above ``use_threshold`` — a
  low-confidence entry falls back to last-value, like a tag miss.

The trade-off it probes: hysteresis absorbs one-off jitter (a stretched
motif element) but reacts a step late to genuine pattern changes.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

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
from repro.core.predictors.gpht import EMPTY_PHASE
from repro.errors import ConfigurationError
from repro.numerics import as_int, as_list, as_opt_int


@dataclass
class _Entry:
    """One PHT entry: prediction plus saturating confidence."""

    prediction: Optional[int] = None
    confidence: int = 0


class ConfidenceGPHTPredictor(PhasePredictor):
    """GPHT variant with per-entry saturating confidence counters.

    Args:
        gphr_depth: Global history register length.
        pht_entries: Pattern history table capacity (LRU replaced).
        max_confidence: Saturation ceiling of the counters (2-bit
            counters correspond to 3).
        use_threshold: Minimum confidence at which a stored prediction
            overrides the last-value fallback (>= 1).
    """

    def __init__(
        self,
        gphr_depth: int = 8,
        pht_entries: int = 128,
        max_confidence: int = 3,
        use_threshold: int = 1,
    ) -> None:
        if gphr_depth < 1:
            raise ConfigurationError(
                f"GPHR depth must be >= 1, got {gphr_depth}"
            )
        if pht_entries < 1:
            raise ConfigurationError(
                f"PHT must have >= 1 entries, got {pht_entries}"
            )
        if max_confidence < 1:
            raise ConfigurationError(
                f"max_confidence must be >= 1, got {max_confidence}"
            )
        if not 1 <= use_threshold <= max_confidence:
            raise ConfigurationError(
                "use_threshold must be in [1, max_confidence], got "
                f"{use_threshold}"
            )
        self._depth = gphr_depth
        self._capacity = pht_entries
        self._max_confidence = max_confidence
        self._use_threshold = use_threshold
        self._gphr: Deque[int] = deque(
            [EMPTY_PHASE] * gphr_depth, maxlen=gphr_depth
        )
        self._pht: "OrderedDict[Tuple[int, ...], _Entry]" = OrderedDict()
        self._pending_tag: Optional[Tuple[int, ...]] = None

    @property
    def name(self) -> str:
        return (
            f"ConfGPHT_{self._depth}_{self._capacity}"
            f"_c{self._max_confidence}t{self._use_threshold}"
        )

    @property
    def pht_occupancy(self) -> int:
        """Number of valid PHT entries currently stored."""
        return len(self._pht)

    def entry_confidence(self, tag: Tuple[int, ...]) -> Optional[int]:
        """The confidence of ``tag``'s entry (None when absent)."""
        entry = self._pht.get(tag)
        return entry.confidence if entry is not None else None

    def observe(self, observation: PhaseObservation) -> None:
        tag = self._pending_tag
        if tag is not None and tag in self._pht:
            entry = self._pht[tag]
            if entry.prediction is None:
                entry.prediction = observation.phase
                entry.confidence = 1
            elif entry.prediction == observation.phase:
                entry.confidence = min(
                    entry.confidence + 1, self._max_confidence
                )
            else:
                entry.confidence -= 1
                if entry.confidence < 0:
                    entry.prediction = observation.phase
                    entry.confidence = 0
            self._pht.move_to_end(tag)
        self._pending_tag = None
        self._gphr.appendleft(observation.phase)

    def predict(self) -> int:
        last_phase = self._gphr[0]
        if last_phase == EMPTY_PHASE:
            return self.DEFAULT_PHASE
        tag = tuple(self._gphr)
        self._pending_tag = tag
        entry = self._pht.get(tag)
        if entry is None:
            self._install(tag)
            return last_phase
        self._pht.move_to_end(tag)
        if (
            entry.prediction is not None
            and entry.confidence >= self._use_threshold
        ):
            return entry.prediction
        return last_phase

    def _install(self, tag: Tuple[int, ...]) -> None:
        if len(self._pht) >= self._capacity:
            self._pht.popitem(last=False)
        self._pht[tag] = _Entry()

    def reset(self) -> None:
        self._gphr = deque([EMPTY_PHASE] * self._depth, maxlen=self._depth)
        self._pht.clear()
        self._pending_tag = None

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: GPHR, PHT entries (tag,
        prediction, confidence) in LRU order, and the pending tag.
        """
        return {
            "kind": "confidence_gpht",
            "gphr_depth": self._depth,
            "pht_entries": self._capacity,
            "max_confidence": self._max_confidence,
            "use_threshold": self._use_threshold,
            "gphr": list(self._gphr),
            "pht": [
                [list(tag), entry.prediction, entry.confidence]
                for tag, entry in self._pht.items()
            ],
            "pending_tag": (
                list(self._pending_tag)
                if self._pending_tag is not None
                else None
            ),
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "confidence_gpht")
        check_config(
            state,
            (
                ("gphr_depth", self._depth),
                ("pht_entries", self._capacity),
                ("max_confidence", self._max_confidence),
                ("use_threshold", self._use_threshold),
            ),
        )
        gphr = int_list(state, "gphr", self._depth)
        pht: "OrderedDict[Tuple[int, ...], _Entry]" = OrderedDict()
        for raw_entry in as_list(state.get("pht"), "checkpoint 'pht'"):
            tag, prediction, confidence = as_list(raw_entry, "PHT entry", 3)
            values = as_list(tag, "PHT tag", self._depth)
            entry = _Entry(
                prediction=as_opt_int(prediction, "PHT prediction"),
                confidence=as_int(confidence, "PHT confidence"),
            )
            if not 0 <= entry.confidence <= self._max_confidence:
                raise ConfigurationError(
                    f"PHT confidence {entry.confidence} outside "
                    f"[0, {self._max_confidence}]"
                )
            pht[tuple(as_int(v, "PHT tag") for v in values)] = entry
        if len(pht) > self._capacity:
            raise ConfigurationError(
                f"checkpoint holds {len(pht)} PHT entries, capacity is "
                f"{self._capacity}"
            )
        raw_pending = state.get("pending_tag")
        pending: Optional[Tuple[int, ...]] = None
        if raw_pending is not None:
            values = as_list(raw_pending, "pending_tag")
            pending = tuple(as_int(v, "pending tag") for v in values)
        self._gphr = deque(gphr, maxlen=self._depth)
        self._pht = pht
        self._pending_tag = pending
