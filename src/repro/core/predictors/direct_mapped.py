"""Direct-mapped (hashed-index) GPHT variant — extension.

The paper implements the PHT in software, so it can afford full tags
and associative search; it even notes that "holding and associatively
searching through a 1024 entry PHT may be undesirable" before settling
on 128 entries.  A *hardware* phase predictor (as in Sherwood et al.'s
phase tracking) would instead index a direct-mapped table by a hash of
the history, accepting aliasing in exchange for O(1) untagged lookups.

This variant quantifies that trade-off: the GPHR indexes a power-of-two
table via a multiplicative hash, entries carry no tags, and distinct
histories that collide overwrite each other's predictions.  Comparing it
against the associative GPHT at equal capacities shows what the paper's
software implementation buys.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

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
from repro.numerics import as_list, as_opt_int

#: Knuth's multiplicative hashing constant (golden-ratio derived).
_HASH_MULTIPLIER = 2654435761


class DirectMappedGPHTPredictor(PhasePredictor):
    """GPHT with an untagged, direct-mapped pattern table.

    Args:
        gphr_depth: Global history register length.
        table_entries: Table size; must be a power of two (index bits).
    """

    def __init__(self, gphr_depth: int = 8, table_entries: int = 128) -> None:
        if gphr_depth < 1:
            raise ConfigurationError(
                f"GPHR depth must be >= 1, got {gphr_depth}"
            )
        if table_entries < 1 or table_entries & (table_entries - 1):
            raise ConfigurationError(
                f"table_entries must be a power of two, got {table_entries}"
            )
        self._depth = gphr_depth
        self._entries = table_entries
        self._gphr: Deque[int] = deque(
            [EMPTY_PHASE] * gphr_depth, maxlen=gphr_depth
        )
        self._table: List[Optional[int]] = [None] * table_entries
        self._pending_index: Optional[int] = None

    @property
    def name(self) -> str:
        return f"DMGPHT_{self._depth}_{self._entries}"

    @property
    def table_entries(self) -> int:
        """Table capacity (power of two)."""
        return self._entries

    def index_of(self, history: Tuple[int, ...]) -> int:
        """The table slot a history hashes to (exposed for tests)."""
        key = 0
        for phase in history:
            key = (key * 31 + phase) & 0xFFFFFFFF
        return ((key * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self._entries

    def observe(self, observation: PhaseObservation) -> None:
        if self._pending_index is not None:
            # Untagged: whatever history mapped here last gets trained,
            # aliasing included.
            self._table[self._pending_index] = observation.phase
        self._pending_index = None
        self._gphr.appendleft(observation.phase)

    def predict(self) -> int:
        last_phase = self._gphr[0]
        if last_phase == EMPTY_PHASE:
            return self.DEFAULT_PHASE
        index = self.index_of(tuple(self._gphr))
        self._pending_index = index
        stored = self._table[index]
        if stored is None:
            return last_phase
        return stored

    def reset(self) -> None:
        self._gphr = deque([EMPTY_PHASE] * self._depth, maxlen=self._depth)
        self._table = [None] * self._entries
        self._pending_index = None

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: GPHR, the full (untagged) table
        and the slot pending training.
        """
        return {
            "kind": "direct_mapped_gpht",
            "gphr_depth": self._depth,
            "table_entries": self._entries,
            "gphr": list(self._gphr),
            "table": list(self._table),
            "pending_index": self._pending_index,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "direct_mapped_gpht")
        check_config(
            state,
            (
                ("gphr_depth", self._depth),
                ("table_entries", self._entries),
            ),
        )
        gphr = int_list(state, "gphr", self._depth)
        raw = as_list(state.get("table"), "checkpoint 'table'", self._entries)
        table = [as_opt_int(v, "table slot") for v in raw]
        pending = as_opt_int(state.get("pending_index"), "pending_index")
        if pending is not None and not 0 <= pending < self._entries:
            raise ConfigurationError(
                f"pending_index {pending} outside [0, {self._entries})"
            )
        self._gphr = deque(gphr, maxlen=self._depth)
        self._table = table
        self._pending_index = pending
