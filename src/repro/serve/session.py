"""Live phase-prediction sessions: the online analogue of the PMI loop.

A :class:`PhaseSession` is the software equivalent of the paper's
deployed kernel-module handler for one client: it owns a live
predictor + governor + phase table, is fed one ``(interval_index,
mem_per_uop, upc)`` sample at a time, and answers with the classified
phase, the predicted next phase and the recommended DVFS setting —
exactly the classify/observe/predict/translate cycle of Figure 8, but
driven by a remote caller instead of a counter overflow.

Correctness contract (the online/offline bridge): fed the same
``Mem/Uop`` series, a session emits *bit-for-bit* the prediction
sequence of :func:`repro.analysis.accuracy.evaluate_predictor` with the
same predictor configuration.  ``tests/properties/
test_serve_equivalence.py`` holds every supported predictor to this,
including across a mid-stream snapshot/restore.

Overload protection: when constructed with a ``clock`` and a latency
budget, a session that misses its budget degrades to last-value
prediction (the paper's own PHT-miss fallback, applied wholesale) until
``cooldown`` consecutive samples come back in budget.  Degradation
changes *predictions only* — the predictor keeps observing every actual
phase, so its history stays warm for recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from repro.core.governor import PhasePredictionGovernor, ReactiveGovernor
from repro.core.phases import PhaseTable
from repro.core.predictors import (
    FixedWindowPredictor,
    GPHTPredictor,
    LastValuePredictor,
    PhasePredictor,
)
from repro.errors import ConfigurationError
from repro.numerics import (
    as_bool,
    as_float,
    as_int,
    as_opt_float,
    as_opt_int,
    as_str,
    shown,
)
from repro.obs.events import SessionDegraded
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

#: Injectable time source (seconds).  Sessions never read a clock
#: themselves — deterministic unless the frontend wires one in.
Clock = Callable[[], float]

#: Governor kinds a session can host (see :meth:`SessionConfig`).
SESSION_GOVERNORS = (
    "gpht",
    "reactive",
    "fixed_window",
    "learned_tree",
    "markov",
)

#: Largest GPHT history depth a session accepts.  The predictor
#: allocates its GPHR eagerly and every PHT tag holds ``gphr_depth``
#: phases, so an unbounded depth would let one ``hello`` allocate at
#: will and grow ``snapshot`` answers past the wire's line limit.  The
#: deepest history the repo studies is 16 (the GPHR-depth ablation).
MAX_GPHR_DEPTH = 64

#: Largest Markov context a session accepts.  The Markov tables grow
#: with traffic, one row per context seen, and a ``snapshot`` must fit
#: the router's 512 KiB line limit: on the wire an order-4 snapshot
#: levels off near 84 KiB, while order 5 reached 519 KiB after 600,000
#: uniform random samples.  The repo studies order 3.
MAX_MARKOV_ORDER = 4

#: Largest learned-tree feature window a session accepts.  Every
#: ``sample`` builds a ``history_length + 2`` feature row, so the cost
#: of each sample grows with it; the limit mirrors :data:`MAX_GPHR_DEPTH`.
#: The repo studies history 4.
MAX_HISTORY_LENGTH = 64

#: Largest GPHT pattern table a session accepts.  Every stored tag
#: holds ``gphr_depth`` phases, so a ``snapshot`` grows with the product
#: of the two: the answer line for a full 2048-entry table at depth 64
#: takes about 275 KB, and 4096 entries would take about 550 KB, past
#: the router's 512 KiB line limit.  The largest table the repo
#: evaluates holds 1024 entries (Fig 5).
MAX_PHT_ENTRIES = 2048

#: Largest ``fixed_window`` window a session accepts.  Every ``sample``
#: copies the window to pick its majority, so a sample costs O(window),
#: and a ``snapshot`` carries the whole window: a full 1024-entry window
#: snapshots into about 2.5 KB.  The largest window the repo evaluates
#: is 128 (FixWindow_128, Fig 4).
MAX_WINDOW_SIZE = 1024

#: Checkpoint / wire payload: JSON-able scalars and containers only,
#: except that a ``sample_batch`` answer carries its ``outcomes`` as a
#: :class:`BatchOutcomes`, which the protocol writes as JSON rows.
Payload = Dict[str, object]

#: One :meth:`PhaseSession.feed_batch` answer as parallel columns: actual
#: phases, predicted phases, frequencies (MHz), degraded flags, hits.
Columns = Tuple[
    List[int], List[int], List[int], List[bool], List[Optional[bool]]
]


@dataclass(frozen=True)
class SessionConfig:
    """Immutable per-session configuration.

    Attributes:
        governor: ``"gpht"`` (the paper's deployed predictor),
            ``"reactive"`` (last-value), ``"fixed_window"``,
            ``"learned_tree"`` (a :mod:`repro.learn` decision tree,
            typically restored from a trained artifact) or ``"markov"``
            (an order-``k`` smoothed Markov predictor).
        policy: Phase-to-DVFS policy registry name (see
            :func:`repro.exec.cells.build_policy`).
        gphr_depth: GPHT history depth (``gpht`` only), at most
            :data:`MAX_GPHR_DEPTH`.
        pht_entries: GPHT pattern-table capacity (``gpht`` only), at
            most :data:`MAX_PHT_ENTRIES`.
        window_size: Sliding-window length (``fixed_window`` only), at
            most :data:`MAX_WINDOW_SIZE`.
        history_length: Feature-window length (``learned_tree`` only),
            at most :data:`MAX_HISTORY_LENGTH`.
        markov_order: Context length (``markov`` only), at most
            :data:`MAX_MARKOV_ORDER`.
        markov_alpha: Smoothing strength (``markov`` only).
        latency_budget_s: Per-sample latency budget; ``None`` disables
            degradation (and makes the session fully deterministic).
        cooldown: Consecutive in-budget samples required to leave
            degraded mode.
    """

    governor: str = "gpht"
    policy: str = "table2"
    gphr_depth: int = 8
    pht_entries: int = 128
    window_size: int = 8
    history_length: int = 4
    markov_order: int = 3
    markov_alpha: float = 0.5
    latency_budget_s: Optional[float] = None
    cooldown: int = 16

    def __post_init__(self) -> None:
        if self.governor not in SESSION_GOVERNORS:
            raise ConfigurationError(
                f"unknown session governor {shown(self.governor)}; "
                f"known: {SESSION_GOVERNORS}"
            )
        for field_name, value, limit in (
            ("gphr_depth", self.gphr_depth, MAX_GPHR_DEPTH),
            ("pht_entries", self.pht_entries, MAX_PHT_ENTRIES),
            ("window_size", self.window_size, MAX_WINDOW_SIZE),
            ("history_length", self.history_length, MAX_HISTORY_LENGTH),
            ("markov_order", self.markov_order, MAX_MARKOV_ORDER),
        ):
            if value > limit:
                raise ConfigurationError(
                    f"{field_name} must be <= {limit}, got {value}"
                )
        if self.latency_budget_s is not None and self.latency_budget_s <= 0:
            raise ConfigurationError(
                f"latency budget must be > 0, got {self.latency_budget_s}"
            )
        if self.cooldown < 1:
            raise ConfigurationError(
                f"cooldown must be >= 1, got {self.cooldown}"
            )

    def build_predictor(self) -> PhasePredictor:
        """A fresh predictor matching this configuration.

        ``learned_tree`` and ``markov`` sessions start *untrained* (the
        tree falls back to last-value, the Markov model to its online
        counts) — a trained model arrives via ``restore_state`` from a
        checkpoint or a :class:`repro.learn.ModelArtifact`.
        """
        if self.governor == "gpht":
            return GPHTPredictor(self.gphr_depth, self.pht_entries)
        if self.governor == "fixed_window":
            return FixedWindowPredictor(self.window_size)
        if self.governor in ("learned_tree", "markov"):
            # Function-scope import: serve must not pay repro.learn's
            # NumPy/training import cost for the common gpht sessions.
            from repro.learn.predictors import (
                DecisionTreePhasePredictor,
                MarkovKPredictor,
            )

            if self.governor == "learned_tree":
                return DecisionTreePhasePredictor(
                    history_length=self.history_length
                )
            return MarkovKPredictor(
                order=self.markov_order, alpha=self.markov_alpha
            )
        return LastValuePredictor()

    def to_payload(self) -> Payload:
        """JSON-able form, embedded in checkpoints and wire messages."""
        return dict(vars(self))

    @classmethod
    def from_payload(cls, payload: Payload) -> "SessionConfig":
        """Validate and rebuild a configuration from JSON-able form.

        Each field present is narrowed by its ``_CONFIG_FIELDS``
        primitive; an absent one keeps its default.
        """
        kwargs = {
            key: narrow(payload[key], key)
            for key, narrow in _CONFIG_FIELDS.items()
            if key in payload
        }
        unknown = payload.keys() - _CONFIG_FIELDS.keys()
        if unknown:
            raise ConfigurationError(
                f"unknown session config fields: {shown(sorted(unknown))}"
            )
        return cls(**kwargs)  # type: ignore[arg-type]


#: Every :class:`SessionConfig` field in declaration order, with the
#: :mod:`repro.numerics` primitive that narrows it at ``hello`` and
#: ``restore``.  Upper bounds live in ``SessionConfig.__post_init__``.
_CONFIG_FIELDS: Dict[str, Callable[[object, str], object]] = {
    "governor": as_str,
    "policy": as_str,
    "gphr_depth": as_int,
    "pht_entries": as_int,
    "window_size": as_int,
    "history_length": as_int,
    "markov_order": as_int,
    "markov_alpha": as_float,
    "latency_budget_s": as_opt_float,
    "cooldown": as_int,
}


@dataclass(frozen=True)
class SampleOutcome:
    """Answer to one fed sample — the wire-level ``sample`` response.

    Attributes:
        interval: The sample's 0-based interval index.
        actual_phase: Phase classified for the finished interval.
        predicted_phase: Phase predicted for the next interval (raw
            predictor output, the value scored against the next actual).
        frequency_mhz: Recommended operating frequency for the next
            interval.
        degraded: Whether this sample was served in degraded
            (last-value) mode.
        hit: Whether the *previous* prediction matched this actual
            phase; ``None`` for the first sample (nothing to score).
    """

    interval: int
    actual_phase: int
    predicted_phase: int
    frequency_mhz: int
    degraded: bool
    hit: Optional[bool]


class RowTails(Dict[Tuple[object, ...], str]):
    """Memo of outcome-row JSON text after the interval, one per session.

    Maps ``(phase, predicted, frequency_mhz, degraded, hit)`` to the
    text that follows the interval in that row, such as
    ``",3,3,1600,false,true]"``; a missing row is encoded once by
    ``json.dumps``.  A session's rows always carry the same types, which
    is why the memo is per session: ``True == 1`` and ``1600 == 1600.0``
    hash alike but print differently.
    """

    def __missing__(self, key: Tuple[object, ...]) -> str:
        tail = "," + json.dumps(list(key), separators=(",", ":"))[1:]
        self[key] = tail
        return tail


class BatchOutcomes(Sequence[SampleOutcome]):
    """Columnar answer to one :meth:`PhaseSession.feed_batch` call.

    Reads like an immutable sequence of :class:`SampleOutcome` — length,
    indexing, slicing, iteration, and equality against any sequence of
    outcomes — but stores the response fields as parallel columns and
    only materializes ``SampleOutcome`` objects on access.  Building one
    frozen dataclass per sample costs more than the entire batched
    decision cycle, so the columnar kernel never does.  The wire layer
    writes the answer straight from the columns with :meth:`rows_json`;
    :meth:`rows` gives the same rows as lists.  ``row_tails`` is the
    feeding session's :class:`RowTails` memo (a fresh one per call when
    omitted).
    """

    __slots__ = (
        "_start_interval",
        "_actual",
        "_predicted",
        "_frequencies",
        "_degraded",
        "_hits",
        "_row_tails",
    )

    def __init__(
        self,
        start_interval: int,
        actual_phases: List[int],
        predicted_phases: List[int],
        frequencies_mhz: List[int],
        degraded: List[bool],
        hits: List[Optional[bool]],
        row_tails: Optional[RowTails] = None,
    ) -> None:
        self._start_interval = start_interval
        self._actual = actual_phases
        self._predicted = predicted_phases
        self._frequencies = frequencies_mhz
        self._degraded = degraded
        self._hits = hits
        self._row_tails = row_tails

    def __len__(self) -> int:
        return len(self._actual)

    def _make(self, index: int) -> SampleOutcome:
        return SampleOutcome(
            interval=self._start_interval + index,
            actual_phase=self._actual[index],
            predicted_phase=self._predicted[index],
            frequency_mhz=self._frequencies[index],
            degraded=self._degraded[index],
            hit=self._hits[index],
        )

    @overload
    def __getitem__(self, index: int) -> SampleOutcome: ...

    @overload
    def __getitem__(self, index: slice) -> List[SampleOutcome]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SampleOutcome, List[SampleOutcome]]:
        if isinstance(index, slice):
            return [
                self._make(i)
                for i in range(*index.indices(len(self._actual)))
            ]
        n = len(self._actual)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("batch outcome index out of range")
        return self._make(index)

    def __iter__(self) -> Iterator[SampleOutcome]:
        for i in range(len(self._actual)):
            yield self._make(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BatchOutcomes):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def rows(self) -> List[List[object]]:
        """Wire-protocol rows: ``[interval, phase, predicted,
        frequency_mhz, degraded, hit]`` per sample, ready to serialize
        without materializing any :class:`SampleOutcome`."""
        start = self._start_interval
        return [
            [start + i, actual, predicted, frequency, degraded, hit]
            for i, (actual, predicted, frequency, degraded, hit) in enumerate(
                zip(
                    self._actual,
                    self._predicted,
                    self._frequencies,
                    self._degraded,
                    self._hits,
                )
            )
        ]

    def rows_json(self) -> str:
        """The JSON text of :meth:`rows`, byte for byte as
        ``json.dumps(self.rows(), separators=(",", ":"))`` writes it,
        without building the row lists: each row is ``"["``, its
        interval and its memoized tail, filled into one template."""
        tails = self._row_tails if self._row_tails is not None else RowTails()
        rows = zip(
            self._actual,
            self._predicted,
            self._frequencies,
            self._degraded,
            self._hits,
        )
        n = len(self._actual)
        start = self._start_interval
        fields = zip(range(start, start + n), map(tails.__getitem__, rows))
        template = ",".join(["[%d%s"] * n)
        return "[" + template % tuple(chain.from_iterable(fields)) + "]"

    @property
    def degraded_count(self) -> int:
        """How many samples in the batch were served degraded."""
        return sum(self._degraded)

    def __repr__(self) -> str:
        return (
            f"<BatchOutcomes n={len(self._actual)} "
            f"start={self._start_interval}>"
        )


class PhaseSession:
    """One client's live predictor + governor + phase table.

    Args:
        config: Session configuration.
        session_id: Display id used in trace events and metrics.
        clock: Injectable time source for latency accounting; ``None``
            (the default) disables latency measurement and degradation.
        tracer: Trace collector for degradation events.
        metrics: Shared metrics registry (the serving
            ``SessionManager`` passes its own).
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        session_id: str = "",
        clock: Optional[Clock] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._config = config if config is not None else SessionConfig()  # repro-analyze: disable=checkpoint-completeness -- rebuilt by from_snapshot from the checkpoint's config payload (constructor argument)
        self._id = session_id
        self._clock = clock
        self._tracer = tracer
        self._metrics = metrics
        self._governor = self._build_governor(self._config)  # repro-analyze: disable=checkpoint-completeness -- rebuilt from config on restore; the predictor's mutable state is re-applied via restore_state
        self._frequency_by_phase: Optional[Dict[int, int]] = None  # repro-analyze: disable=checkpoint-completeness -- derived cache, rebuilt lazily from the policy assignments
        self._row_tails = RowTails()  # repro-analyze: disable=checkpoint-completeness -- derived cache of outcome-row JSON text, refilled on demand
        self._samples = 0
        self._scored = 0
        self._correct = 0
        self._degraded_scored = 0
        self._degraded_correct = 0
        self._pending: Optional[int] = None
        self._pending_degraded = False
        self._degraded = False
        self._degraded_events = 0
        self._in_budget_streak = 0

    @staticmethod
    def _build_governor(config: SessionConfig) -> PhasePredictionGovernor:
        """The governor hosting this session's predictor."""
        # Imported here, not at module scope: exec.cells eagerly pulls
        # the analysis stack, which sessions only need for policy names.
        from repro.exec.cells import build_policy

        policy = build_policy(config.policy)
        if config.governor == "reactive":
            return ReactiveGovernor(policy)
        return PhasePredictionGovernor(config.build_predictor(), policy)

    # -- introspection ------------------------------------------------------

    @property
    def config(self) -> SessionConfig:
        """The immutable session configuration."""
        return self._config

    @property
    def session_id(self) -> str:
        """The id assigned by the manager (empty when standalone)."""
        return self._id

    @property
    def predictor(self) -> PhasePredictor:
        """The live predictor steering this session."""
        return self._governor.predictor

    @property
    def phase_table(self) -> PhaseTable:
        """The phase definitions classifications use."""
        return self._governor.policy.phase_table

    @property
    def samples(self) -> int:
        """Samples fed so far."""
        return self._samples

    @property
    def scored(self) -> int:
        """Normal-mode predictions scored so far.

        Predictions produced while the session was degraded are scored
        separately (:attr:`degraded_scored`): last-value fallback hits
        must not be conflated with the configured predictor's accuracy.
        """
        return self._scored

    @property
    def correct(self) -> int:
        """Scored normal-mode predictions that matched the next actual."""
        return self._correct

    @property
    def accuracy(self) -> float:
        """Online prediction accuracy, matching the offline definition.

        Covers only predictions the configured predictor produced; the
        degraded-mode fallback has its own :attr:`degraded_accuracy`.
        """
        if self._scored == 0:
            return 1.0
        return self._correct / self._scored

    @property
    def degraded_scored(self) -> int:
        """Degraded-mode (last-value fallback) predictions scored."""
        return self._degraded_scored

    @property
    def degraded_correct(self) -> int:
        """Scored degraded-mode predictions that matched the next actual."""
        return self._degraded_correct

    @property
    def degraded_accuracy(self) -> float:
        """Accuracy of the degraded-mode last-value fallback alone."""
        if self._degraded_scored == 0:
            return 1.0
        return self._degraded_correct / self._degraded_scored

    @property
    def degraded(self) -> bool:
        """Whether the session is currently in degraded mode."""
        return self._degraded

    @property
    def degraded_events(self) -> int:
        """How many times the session entered degraded mode."""
        return self._degraded_events

    # -- the online loop ----------------------------------------------------

    def feed(
        self,
        interval_index: int,
        mem_per_uop: float,
        upc: float = 0.0,
    ) -> SampleOutcome:
        """Process one completed sampling interval.

        Samples must arrive in order: ``interval_index`` is validated
        against the session's own monotonic count so a replayed or
        reordered stream fails loudly instead of silently corrupting
        predictor history.  The sample runs the decision-cycle kernel
        as a one-sample column, between two clock reads when the session
        has a clock.  ``upc`` is accepted for the wire protocol; the
        ``Mem/Uop`` phase metric never reads it.
        """
        if interval_index != self._samples:
            raise ConfigurationError(
                f"out-of-order sample: expected interval {self._samples}, "
                f"got {interval_index}"
            )
        if mem_per_uop < 0:
            raise ConfigurationError(
                f"Mem/Uop must be >= 0, got {mem_per_uop}"
            )
        started = self._clock() if self._clock is not None else None
        actual, predicted, frequencies, degraded, hits = self._feed_kernel(
            (mem_per_uop,)
        )
        if started is not None and self._clock is not None:
            elapsed = self._clock() - started
            self._observe_latency(elapsed)
            self._update_degradation(elapsed)
        if self._metrics is not None:
            self._metrics.counter("serve.samples").inc()
            if degraded[0]:
                self._metrics.counter("serve.degraded_samples").inc()
        return SampleOutcome(
            interval=interval_index,
            actual_phase=actual[0],
            predicted_phase=predicted[0],
            frequency_mhz=frequencies[0],
            degraded=degraded[0],
            hit=hits[0],
        )

    def feed_batch(
        self,
        start_interval: int,
        samples: Sequence[Tuple[float, float]],
    ) -> BatchOutcomes:
        """Process N ordered samples for this session in one call.

        ``samples`` is a sequence of ``(mem_per_uop, upc)`` pairs whose
        first element corresponds to interval ``start_interval`` (which
        must equal the session's own sample count, like :meth:`feed`).
        Returns a :class:`BatchOutcomes` — a columnar sequence that
        compares equal to the list of :class:`SampleOutcome` objects N
        single :meth:`feed` calls would have produced.

        **Bit-for-bit contract:** fed the same values (and, when a
        latency budget is active, the same clock sequence), the returned
        outcomes are identical to N single :meth:`feed` calls — including
        degraded-mode entry/exit mid-batch.  ``tests/properties/
        test_serve_batching.py`` holds every governor to this for every
        partition of a stream into batches, and against a reference
        model built from the scalar pieces.

        **One kernel:** without an active latency budget (a clock and a
        budget) the mode cannot change mid-batch, so the whole batch is
        one call of the decision-cycle kernel.  With one, the kernel runs
        once per sample between two clock reads, because the degradation
        state machine consumes one latency per sample.

        **Per-batch accounting:** metrics are updated once per batch
        (``serve.samples += N``, one ``serve.batch_size`` observation,
        one ``serve.sample_latency_s`` observation covering the whole
        batch) instead of once per sample — this is the point of the
        batched wire protocol.

        **Atomic validation:** the whole batch is validated before the
        first sample is processed, so a malformed batch leaves the
        session untouched instead of half-applied.
        """
        if start_interval != self._samples:
            raise ConfigurationError(
                f"out-of-order batch: expected start interval "
                f"{self._samples}, got {start_interval}"
            )
        for offset, (mem_per_uop, _) in enumerate(samples):
            if mem_per_uop < 0:
                raise ConfigurationError(
                    f"Mem/Uop must be >= 0, got {mem_per_uop} "
                    f"(batch sample {offset})"
                )
        clock = self._clock
        if clock is not None and self._config.latency_budget_s is not None:
            columns: Tuple[List[Any], ...] = ([], [], [], [], [])
            batch_elapsed = 0.0
            for mem_per_uop, _ in samples:
                sample_started = clock()
                sample_columns: Tuple[List[Any], ...] = self._feed_kernel(
                    (mem_per_uop,)
                )
                elapsed = clock() - sample_started
                batch_elapsed += elapsed
                self._update_degradation(elapsed)
                for column, values in zip(columns, sample_columns):
                    column.extend(values)
            if samples:
                self._observe_latency(batch_elapsed)
            outcomes = BatchOutcomes(
                start_interval, *columns, row_tails=self._row_tails
            )
        else:
            started = clock() if clock is not None else None
            outcomes = BatchOutcomes(
                start_interval,
                *self._feed_kernel([sample[0] for sample in samples]),
                row_tails=self._row_tails,
            )
            if started is not None and clock is not None and samples:
                self._observe_latency(clock() - started)
        if self._metrics is not None and samples:
            self._metrics.counter("serve.samples").inc(len(samples))
            self._metrics.histogram("serve.batch_size").observe(
                float(len(samples))
            )
            degraded_count = outcomes.degraded_count
            if degraded_count:
                self._metrics.counter("serve.degraded_samples").inc(
                    degraded_count
                )
        return outcomes

    def _feed_kernel(self, mem_values: Sequence[float]) -> Columns:
        """The decision cycle over a validated column of ``Mem/Uop``.

        Classifies, observes and predicts, translates each prediction to
        a SpeedStep frequency and scores the previous prediction, for
        every sample, in the session's current mode (the caller owns
        clock reads and the degradation state machine):

        * classification — :meth:`PhaseTable.classify_batch`;
        * prediction — in normal mode the predictor's fused
          ``predict_batch`` cycle, then the clamp into the table's phase
          range (skipped wholesale when every prediction is already in range,
          the overwhelmingly common case); in degraded mode
          ``observe_batch`` keeps the history warm and each prediction is
          the sample's own phase, the GPHT's own miss fallback;
        * translation and scoring — one loop maps each prediction
          through a cached phase→MHz dict, counts it for the one
          :meth:`DVFSPolicy.record_lookups` call (advancing the
          per-phase counters exactly as ``setting_for`` lookups would),
          and scores the previous prediction: the first sample settles
          the carried-over pending prediction into the ledger of the
          mode it was made in, every later one into the current mode's.

        Returns the :class:`BatchOutcomes` columns: actual phases,
        predictions, frequencies, degraded flags and hits.
        """
        if not mem_values:
            return [], [], [], [], []
        governor = self._governor
        policy = governor.policy
        table = policy.phase_table
        actual = table.classify_batch(mem_values)
        degraded = self._degraded
        if degraded:
            governor.predictor.observe_batch(actual, mem_values)
            predicted = actual
        else:
            predicted = governor.predictor.predict_batch(actual, mem_values)
            num_phases = table.num_phases
            if min(predicted) < 1 or max(predicted) > num_phases:
                predicted = [
                    min(max(phase, 1), num_phases) for phase in predicted
                ]
        frequency_of = self._frequency_by_phase
        if frequency_of is None:
            frequency_of = {
                phase_id: point.frequency_mhz
                for phase_id, point in policy.assignments.items()
            }
            self._frequency_by_phase = frequency_of
        frequencies: List[int] = []
        hits: List[Optional[bool]] = []
        lookups: Dict[int, int] = {}
        correct = 0
        pending = self._pending
        for phase, prediction in zip(actual, predicted):
            frequencies.append(frequency_of[prediction])
            lookups[prediction] = lookups.get(prediction, 0) + 1
            if pending is None:
                hits.append(None)
            else:
                hit = pending == phase
                hits.append(hit)
                correct += hit
            pending = prediction
        policy.record_lookups(lookups)
        first_hit = hits[0]
        if first_hit is not None:
            correct -= first_hit
            if self._pending_degraded:
                self._degraded_scored += 1
                self._degraded_correct += first_hit
            else:
                self._scored += 1
                self._correct += first_hit
        if degraded:
            self._degraded_scored += len(actual) - 1
            self._degraded_correct += correct
        else:
            self._scored += len(actual) - 1
            self._correct += correct
        self._pending = pending
        self._pending_degraded = degraded
        self._samples += len(actual)
        return actual, predicted, frequencies, [degraded] * len(actual), hits

    def predict(self) -> "tuple[int, int]":
        """The standing prediction and its recommended frequency.

        Before any sample has been fed this is the safe cold-start
        default (phase 1, the fastest setting).
        """
        predicted = (
            self._pending
            if self._pending is not None
            else PhasePredictor.DEFAULT_PHASE
        )
        table = self.phase_table
        clamped = min(max(predicted, 1), table.num_phases)
        setting = self._governor.policy.setting_for(clamped)
        return predicted, setting.frequency_mhz

    # -- degradation state machine ------------------------------------------

    def _observe_latency(self, seconds: float) -> None:
        """Record one latency observation (a sample's, or a batch's)."""
        if self._metrics is not None:
            self._metrics.histogram("serve.sample_latency_s").observe(seconds)

    def _update_degradation(self, seconds: float) -> None:
        """Advance the degradation state machine by one sample latency."""
        budget = self._config.latency_budget_s
        if budget is None:
            return
        if not self._degraded:
            if seconds > budget:
                self._degraded = True
                self._degraded_events += 1
                self._in_budget_streak = 0
                self._emit_degraded(active=True, latency_s=seconds)
            return
        if seconds <= budget:
            self._in_budget_streak += 1
            if self._in_budget_streak >= self._config.cooldown:
                self._degraded = False
                self._in_budget_streak = 0
                self._emit_degraded(active=False, latency_s=seconds)
        else:
            self._in_budget_streak = 0

    def _emit_degraded(self, active: bool, latency_s: float) -> None:
        if self._metrics is not None and active:
            self._metrics.counter("serve.degradation_events").inc()
        if self._tracer.enabled:
            self._tracer.emit(
                SessionDegraded(
                    interval=self._samples,
                    session=self._id,
                    active=active,
                    latency_s=latency_s,
                )
            )

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Payload:
        """A lossless JSON-able checkpoint of the whole session.

        Covers the configuration, the predictor's full state (for the
        GPHT: GPHR contents and PHT entries with tags and LRU order),
        scoring statistics and the degradation state machine, so a
        restored session continues *bit-for-bit* where this one stops.
        """
        from repro.serve.checkpoint import CHECKPOINT_VERSION

        return {
            "version": CHECKPOINT_VERSION,
            "config": self._config.to_payload(),
            "samples": self._samples,
            "scored": self._scored,
            "correct": self._correct,
            "degraded_scored": self._degraded_scored,
            "degraded_correct": self._degraded_correct,
            "pending_prediction": self._pending,
            "pending_degraded": self._pending_degraded,
            "degraded": self._degraded,
            "degraded_events": self._degraded_events,
            "in_budget_streak": self._in_budget_streak,
            "predictor": self.predictor.export_state(),
        }

    @classmethod
    def from_snapshot(
        cls,
        payload: Payload,
        session_id: str = "",
        clock: Optional[Clock] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "PhaseSession":
        """Rebuild a session from a :meth:`snapshot` payload.

        Raises:
            ConfigurationError: On a malformed or version-incompatible
                checkpoint.
        """
        from repro.serve.checkpoint import validate_checkpoint

        validate_checkpoint(payload)
        config_payload = payload["config"]
        predictor_state = payload["predictor"]
        samples = payload["samples"]
        # validate_checkpoint narrowed the outline.
        assert isinstance(config_payload, dict)
        assert isinstance(predictor_state, dict)
        assert isinstance(samples, int)
        session = cls(
            SessionConfig.from_payload(config_payload),
            session_id=session_id,
            clock=clock,
            tracer=tracer,
            metrics=metrics,
        )
        session.predictor.restore_state(predictor_state)
        session._samples = samples
        session._scored = as_int(payload.get("scored"), "scored", minimum=0)
        session._correct = as_int(payload.get("correct"), "correct", minimum=0)
        # Degraded-mode counters are additive: a pre-split checkpoint
        # simply restores with empty fallback statistics.
        session._degraded_scored = as_int(
            payload.get("degraded_scored", 0), "degraded_scored", minimum=0
        )
        session._degraded_correct = as_int(
            payload.get("degraded_correct", 0), "degraded_correct", minimum=0
        )
        session._pending = as_opt_int(
            payload.get("pending_prediction"), "pending_prediction"
        )
        session._pending_degraded = as_bool(
            payload.get("pending_degraded", False), "pending_degraded"
        )
        session._degraded = as_bool(payload.get("degraded", False), "degraded")
        session._degraded_events = as_int(
            payload.get("degraded_events", 0), "degraded_events", minimum=0
        )
        session._in_budget_streak = as_int(
            payload.get("in_budget_streak", 0), "in_budget_streak", minimum=0
        )
        return session

    def stats(self) -> Payload:
        """JSON-able per-session statistics (the ``stats`` wire answer)."""
        return {
            "session": self._id,
            "governor": self._governor.name,
            "policy": self._governor.policy.name,
            "samples": self._samples,
            "scored": self._scored,
            "correct": self._correct,
            "accuracy": self.accuracy,
            "degraded": self._degraded,
            "degraded_events": self._degraded_events,
            "degraded_scored": self._degraded_scored,
            "degraded_correct": self._degraded_correct,
            "degraded_accuracy": self.degraded_accuracy,
        }

    def __repr__(self) -> str:
        return (
            f"<PhaseSession {self._id or '(anonymous)'} "
            f"{self._governor.name} samples={self._samples}>"
        )
