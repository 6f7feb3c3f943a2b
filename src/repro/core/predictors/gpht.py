"""Global Phase History Table (GPHT) predictor — the paper's contribution.

Structure (paper Figure 1), borrowed from two-level global branch
prediction (Yeh & Patt):

* a **Global Phase History Register (GPHR)** — a shift register holding
  the last ``gphr_depth`` observed phases (``GPHR[0]`` is the most
  recent);
* a **Pattern History Table (PHT)** — an associative, LRU-replaced table
  of previously seen GPHR patterns (tags) with the phase that followed
  each pattern last time (the "next phase" prediction).

Operation per sampling interval:

1. the newly observed phase is shifted into the GPHR;
2. the updated GPHR content is compared associatively against the stored
   PHT tags;
3. on a **match** the stored prediction is used; on a **mismatch** the
   last observed phase (``GPHR[0]``) is predicted — a graceful fallback
   to last-value — and the current GPHR contents are installed in the
   PHT, replacing the least recently used entry when the table is full;
4. in the *next* interval, the entry consulted (or installed) for this
   prediction has its stored prediction updated with the phase that
   actually occurred.

Unlike a hardware branch predictor, the GPHT is a software structure in
the OS, so full tags and true LRU are affordable (the paper uses 128
entries deployed, up to 1024 in evaluation).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.predictors._checkpoint import (
    as_int,
    as_opt_int,
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
from repro.obs.events import PredictionMade

#: GPHR fill value before any real phase has been observed.  Real phases
#: are 1-based, so 0 never collides with an observed phase.
EMPTY_PHASE = 0  # repro-lint: disable=phase-id-range


class GPHTPredictor(PhasePredictor):
    """Global Phase History Table predictor.

    Args:
        gphr_depth: Length of the global history register (the paper
            deploys depth 8).
        pht_entries: Capacity of the pattern history table (the paper
            deploys 128; 1024 in evaluation sweeps).
        replacement: Eviction policy when the PHT is full: ``"lru"``
            (the paper's least-recently-used ages) or ``"fifo"``
            (insertion order) — provided for the replacement ablation.
    """

    REPLACEMENT_POLICIES = ("lru", "fifo")

    def __init__(
        self,
        gphr_depth: int = 8,
        pht_entries: int = 128,
        replacement: str = "lru",
    ) -> None:
        if gphr_depth < 1:
            raise ConfigurationError(
                f"GPHR depth must be >= 1, got {gphr_depth}"
            )
        if pht_entries < 1:
            raise ConfigurationError(
                f"PHT must have >= 1 entries, got {pht_entries}"
            )
        if replacement not in self.REPLACEMENT_POLICIES:
            raise ConfigurationError(
                f"replacement must be one of {self.REPLACEMENT_POLICIES}, "
                f"got {replacement!r}"
            )
        self._replacement = replacement
        self._depth = gphr_depth
        self._capacity = pht_entries
        self._gphr: Deque[int] = deque(
            [EMPTY_PHASE] * gphr_depth, maxlen=gphr_depth
        )
        # Ordered oldest-access-first: true LRU via move_to_end/popitem.
        # Values are the stored "next phase" prediction (None until the
        # first outcome for a freshly installed tag is known).
        self._pht: "OrderedDict[Tuple[int, ...], Optional[int]]" = OrderedDict()
        self._pending_tag: Optional[Tuple[int, ...]] = None
        self._hits = 0
        self._misses = 0

    @property
    def name(self) -> str:
        base = f"GPHT_{self._depth}_{self._capacity}"
        if self._replacement != "lru":
            return f"{base}_{self._replacement}"
        return base

    @property
    def gphr_depth(self) -> int:
        """Length of the global history register."""
        return self._depth

    @property
    def pht_capacity(self) -> int:
        """Maximum number of PHT entries."""
        return self._capacity

    @property
    def replacement(self) -> str:
        """The PHT eviction policy in force (``"lru"`` or ``"fifo"``)."""
        return self._replacement

    @property
    def pht_occupancy(self) -> int:
        """Number of valid PHT entries currently stored."""
        return len(self._pht)

    @property
    def gphr(self) -> Tuple[int, ...]:
        """Current GPHR contents, most recent phase first."""
        return tuple(self._gphr)

    @property
    def hits(self) -> int:
        """PHT tag matches seen so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """PHT tag mismatches seen so far."""
        return self._misses

    def observe(self, observation: PhaseObservation) -> None:
        """Record the actual phase of the interval that just completed.

        First trains the PHT entry consulted by the previous prediction
        (its stored prediction becomes this actual outcome), then shifts
        the phase into the GPHR.
        """
        if self._pending_tag is not None and self._pending_tag in self._pht:
            self._pht[self._pending_tag] = observation.phase
            if self._replacement == "lru":
                self._pht.move_to_end(self._pending_tag)
        self._pending_tag = None
        self._gphr.appendleft(observation.phase)

    def predict(self) -> int:
        """Predict the next phase from the current GPHR pattern.

        While the GPHR still contains ``EMPTY_PHASE`` padding (the first
        ``gphr_depth`` intervals), the lookup counts as a miss and falls
        back to last-value, but the padded pattern is neither installed
        nor trained: real phases are 1-based, so a padded tag can never
        recur once the register fills — installing it would only seed the
        PHT with dead entries that sit there until LRU-evicted.
        """
        last_phase = self._gphr[0]
        if last_phase == EMPTY_PHASE:
            return self.DEFAULT_PHASE
        if EMPTY_PHASE in self._gphr:
            # Warm-up: the pattern is still padded — predict last-value,
            # count the miss, install nothing.
            self._misses += 1
            self._emit_prediction(
                predicted=last_phase, hit=False, installed=False,
                evicted=False, warmup=True,
            )
            return last_phase
        tag = tuple(self._gphr)
        self._pending_tag = tag
        if tag in self._pht:
            self._hits += 1
            stored = self._pht[tag]
            if self._replacement == "lru":
                self._pht.move_to_end(tag)
            # A freshly installed tag whose outcome is not yet known
            # still falls back to last-value.
            predicted = stored if stored is not None else last_phase
            self._emit_prediction(
                predicted=predicted, hit=True, installed=False,
                evicted=False, warmup=False,
            )
            return predicted
        self._misses += 1
        evicted = len(self._pht) >= self._capacity
        self._install(tag)
        self._emit_prediction(
            predicted=last_phase, hit=False, installed=True,
            evicted=evicted, warmup=False,
        )
        return last_phase

    def observe_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> None:
        """Batch kernel for :meth:`observe`.

        Only the first sample can train the PHT (``observe`` clears the
        pending tag, and no ``predict`` runs in between to set a new
        one); the rest merely shift into the GPHR.
        """
        if not len(phases):
            return
        pending = self._pending_tag
        if pending is not None and pending in self._pht:
            self._pht[pending] = phases[0]
            if self._replacement == "lru":
                self._pht.move_to_end(pending)
        self._pending_tag = None
        self._gphr.extendleft(phases)

    def predict_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> List[int]:
        """Batch kernel for the fused observe/predict cycle.

        Replays the exact scalar state machine over local variables —
        the GPHR as an immutable tuple rebuilt by slicing (each shifted
        register state *is* the next lookup tag, so no per-sample
        ``tuple(deque)`` copies), the PHT trained/probed in place with
        the same LRU moves, installs and evictions.  Falls back to the
        scalar loop while tracing so ``PredictionMade`` events keep
        their per-interval stream.
        """
        if self._tracer.enabled:
            return PhasePredictor.predict_batch(self, phases, mem_values)
        pht = self._pht
        depth = self._depth
        capacity = self._capacity
        lru = self._replacement == "lru"
        move_to_end = pht.move_to_end
        popitem = pht.popitem
        pending = self._pending_tag
        hits = self._hits
        misses = self._misses
        tag_now = tuple(self._gphr)
        default_phase = self.DEFAULT_PHASE
        predictions: List[int] = []
        append = predictions.append
        for phase in phases:
            # -- observe: train the consulted entry, shift the GPHR.
            if pending is not None and pending in pht:
                pht[pending] = phase
                if lru:
                    move_to_end(pending)
            pending = None
            tag_now = (phase,) + tag_now[: depth - 1]
            # -- predict from the shifted register.
            last_phase = tag_now[0]
            if last_phase == EMPTY_PHASE:
                append(default_phase)
                continue
            if EMPTY_PHASE in tag_now:
                misses += 1
                append(last_phase)
                continue
            pending = tag_now
            if tag_now in pht:
                hits += 1
                stored = pht[tag_now]
                if lru:
                    move_to_end(tag_now)
                append(stored if stored is not None else last_phase)
                continue
            misses += 1
            if len(pht) >= capacity:
                popitem(last=False)
            pht[tag_now] = None
            append(last_phase)
        self._gphr = deque(tag_now, maxlen=depth)
        self._pending_tag = pending
        self._hits = hits
        self._misses = misses
        return predictions

    def _emit_prediction(
        self,
        *,
        predicted: int,
        hit: bool,
        installed: bool,
        evicted: bool,
        warmup: bool,
    ) -> None:
        """Record a :class:`PredictionMade` event when tracing is on."""
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                PredictionMade(
                    interval=tracer.interval,
                    predictor=self.name,
                    predicted_phase=predicted,
                    pht_hit=hit,
                    installed=installed,
                    evicted=evicted,
                    warmup=warmup,
                    occupancy=len(self._pht),
                )
            )

    def _install(self, tag: Tuple[int, ...]) -> None:
        """Add ``tag`` to the PHT, evicting the LRU entry when full."""
        if len(self._pht) >= self._capacity:
            self._pht.popitem(last=False)
        self._pht[tag] = None

    def snapshot(self) -> "OrderedDict[Tuple[int, ...], Optional[int]]":
        """A copy of the PHT contents, least recently used first.

        Exposed for introspection and teaching: each key is a stored
        GPHR pattern (most recent phase first), each value its learned
        "next phase" (None while the first outcome is pending).
        """
        return OrderedDict(self._pht)

    def reset(self) -> None:
        self._gphr = deque([EMPTY_PHASE] * self._depth, maxlen=self._depth)
        self._pht.clear()
        self._pending_tag = None
        self._hits = 0
        self._misses = 0

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: GPHR, PHT (tags, stored
        predictions, LRU order), pending training tag and hit counters.

        PHT entries are listed least-recently-used first, exactly the
        internal ordering, so a restore reproduces future evictions
        bit-for-bit.
        """
        return {
            "kind": "gpht",
            "gphr_depth": self._depth,
            "pht_entries": self._capacity,
            "replacement": self._replacement,
            "gphr": list(self._gphr),
            "pht": [
                [list(tag), stored] for tag, stored in self._pht.items()
            ],
            "pending_tag": (
                list(self._pending_tag)
                if self._pending_tag is not None
                else None
            ),
            "hits": self._hits,
            "misses": self._misses,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "gpht")
        check_config(
            state,
            (
                ("gphr_depth", self._depth),
                ("pht_entries", self._capacity),
                ("replacement", self._replacement),
            ),
        )
        gphr = int_list(state, "gphr")
        if len(gphr) != self._depth:
            raise ConfigurationError(
                f"checkpoint GPHR has {len(gphr)} entries, expected "
                f"{self._depth}"
            )
        raw_pht = state.get("pht")
        if not isinstance(raw_pht, list):
            raise ConfigurationError("checkpoint 'pht' must be a list")
        pht: "OrderedDict[Tuple[int, ...], Optional[int]]" = OrderedDict()
        for entry in raw_pht:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], (list, tuple))
            ):
                raise ConfigurationError(
                    f"malformed PHT checkpoint entry: {entry!r}"
                )
            tag_values, stored = entry
            tag = tuple(as_int(v, "PHT tag") for v in tag_values)
            if len(tag) != self._depth:
                raise ConfigurationError(
                    f"PHT tag {tag} has length {len(tag)}, expected "
                    f"{self._depth}"
                )
            pht[tag] = as_opt_int(stored, "PHT value")
        if len(pht) > self._capacity:
            raise ConfigurationError(
                f"checkpoint holds {len(pht)} PHT entries, capacity is "
                f"{self._capacity}"
            )
        raw_pending = state.get("pending_tag")
        pending: Optional[Tuple[int, ...]] = None
        if raw_pending is not None:
            if not isinstance(raw_pending, (list, tuple)):
                raise ConfigurationError(
                    f"malformed pending_tag: {raw_pending!r}"
                )
            pending = tuple(as_int(v, "pending tag") for v in raw_pending)
        self._gphr = deque(gphr, maxlen=self._depth)
        self._pht = pht
        self._pending_tag = pending
        self._hits = as_int(state.get("hits", 0), "hits")
        self._misses = as_int(state.get("misses", 0), "misses")
