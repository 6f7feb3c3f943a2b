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

from collections import Counter
from dataclasses import dataclass
from typing import (
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

from repro.core.governor import (
    IntervalCounters,
    PhasePredictionGovernor,
    ReactiveGovernor,
)
from repro.core.phases import PhaseTable
from repro.core.predictors import (
    FixedWindowPredictor,
    GPHTPredictor,
    LastValuePredictor,
    PhaseObservation,
    PhasePredictor,
)
from repro.errors import ConfigurationError
from repro.numerics import finite_float
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

#: Checkpoint / wire payload: JSON-able scalars and containers only.
Payload = Dict[str, object]


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
        pht_entries: GPHT pattern-table capacity (``gpht`` only).
        window_size: Sliding-window length (``fixed_window`` only).
        history_length: Feature-window length (``learned_tree`` only).
        markov_order: Context length (``markov`` only).
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
                f"unknown session governor {self.governor!r}; "
                f"known: {SESSION_GOVERNORS}"
            )
        if self.gphr_depth > MAX_GPHR_DEPTH:
            raise ConfigurationError(
                f"gphr_depth must be <= {MAX_GPHR_DEPTH}, got "
                f"{self.gphr_depth}"
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
        return {
            "governor": self.governor,
            "policy": self.policy,
            "gphr_depth": self.gphr_depth,
            "pht_entries": self.pht_entries,
            "window_size": self.window_size,
            "history_length": self.history_length,
            "markov_order": self.markov_order,
            "markov_alpha": self.markov_alpha,
            "latency_budget_s": self.latency_budget_s,
            "cooldown": self.cooldown,
        }

    @classmethod
    def from_payload(cls, payload: Payload) -> "SessionConfig":
        """Validate and rebuild a configuration from JSON-able form."""
        kwargs: Dict[str, object] = {}
        for key, kind in (
            ("governor", str),
            ("policy", str),
            ("gphr_depth", int),
            ("pht_entries", int),
            ("window_size", int),
            ("history_length", int),
            ("markov_order", int),
            ("cooldown", int),
        ):
            if key in payload:
                value = payload[key]
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigurationError(
                        f"session config {key!r} must be {kind.__name__}, "
                        f"got {value!r}"
                    )
                kwargs[key] = value
        if "markov_alpha" in payload:
            alpha = finite_float(payload["markov_alpha"])
            if alpha is None:
                raise ConfigurationError(
                    "markov_alpha must be a finite number, got "
                    f"{payload['markov_alpha']!r}"
                )
            kwargs["markov_alpha"] = alpha
        if payload.get("latency_budget_s") is not None:
            budget = finite_float(payload["latency_budget_s"])
            if budget is None:
                raise ConfigurationError(
                    "latency_budget_s must be a finite number or null, got "
                    f"{payload['latency_budget_s']!r}"
                )
            kwargs["latency_budget_s"] = budget
        unknown = set(payload) - {
            "governor",
            "policy",
            "gphr_depth",
            "pht_entries",
            "window_size",
            "history_length",
            "markov_order",
            "markov_alpha",
            "latency_budget_s",
            "cooldown",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown session config fields: {sorted(unknown)}"
            )
        return cls(**kwargs)  # type: ignore[arg-type]


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


class BatchOutcomes(Sequence[SampleOutcome]):
    """Columnar answer to one :meth:`PhaseSession.feed_batch` call.

    Reads like an immutable sequence of :class:`SampleOutcome` — length,
    indexing, slicing, iteration, and equality against any sequence of
    outcomes — but stores the response fields as parallel columns and
    only materializes ``SampleOutcome`` objects on access.  Building one
    frozen dataclass per sample costs more than the entire batched
    decision cycle, so the columnar kernel never does: the wire layer
    serializes straight from :meth:`rows`.
    """

    __slots__ = (
        "_start_interval",
        "_actual",
        "_predicted",
        "_frequencies",
        "_degraded",
        "_hits",
    )

    def __init__(
        self,
        start_interval: int,
        actual_phases: List[int],
        predicted_phases: List[int],
        frequencies_mhz: List[int],
        degraded: List[bool],
        hits: List[Optional[bool]],
    ) -> None:
        self._start_interval = start_interval
        self._actual = actual_phases
        self._predicted = predicted_phases
        self._frequencies = frequencies_mhz
        self._degraded = degraded
        self._hits = hits

    @classmethod
    def from_outcomes(
        cls, start_interval: int, outcomes: Sequence[SampleOutcome]
    ) -> "BatchOutcomes":
        """Column-pack already-materialized outcomes (the budgeted
        per-sample loop of :meth:`PhaseSession.feed_batch`)."""
        return cls(
            start_interval,
            [outcome.actual_phase for outcome in outcomes],
            [outcome.predicted_phase for outcome in outcomes],
            [outcome.frequency_mhz for outcome in outcomes],
            [outcome.degraded for outcome in outcomes],
            [outcome.hit for outcome in outcomes],
        )

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
        predictor history.
        """
        self._validate_sample(interval_index, mem_per_uop, self._samples)
        started = self._clock() if self._clock is not None else None
        outcome = self._feed_one(interval_index, mem_per_uop, upc)
        if started is not None and self._clock is not None:
            elapsed = self._clock() - started
            self._observe_latency(elapsed)
            self._update_degradation(elapsed)
        if self._metrics is not None:
            self._metrics.counter("serve.samples").inc()
            if outcome.degraded:
                self._metrics.counter("serve.degraded_samples").inc()
        return outcome

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
        partition of a stream into batches.

        **Two bodies:** a latency budget is active when the session has
        both a clock and a budget.  Without one no per-sample clock
        reads are needed, so every batch, in normal or degraded mode,
        runs the columnar kernel (:meth:`PhaseTable.classify_batch` plus
        the predictor's :meth:`~repro.core.predictors.base.
        PhasePredictor.predict_batch`, or its ``observe_batch`` while
        degraded) instead of N scalar decision cycles.  With one, the
        batch loops the scalar cycle, reading the clock twice per
        sample.

        **Per-batch accounting:** metrics are updated once per batch
        (``serve.samples += N``, one ``serve.batch_size`` observation,
        one ``serve.sample_latency_s`` observation covering the whole
        batch) instead of once per sample — this is the point of the
        batched wire protocol.  The latency-budget degradation state
        machine still runs per sample when a budget is configured,
        because mid-batch transitions are part of the outcome contract.

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
            # The degradation state machine consumes one latency per
            # sample; anything coarser would diverge from N feed() calls.
            scalar_outcomes: List[SampleOutcome] = []
            batch_elapsed = 0.0
            for offset, (mem_per_uop, upc) in enumerate(samples):
                sample_started = clock()
                outcome = self._feed_one(
                    start_interval + offset, mem_per_uop, upc
                )
                elapsed = clock() - sample_started
                batch_elapsed += elapsed
                self._update_degradation(elapsed)
                scalar_outcomes.append(outcome)
            if samples:
                self._observe_latency(batch_elapsed)
            outcomes = BatchOutcomes.from_outcomes(
                start_interval, scalar_outcomes
            )
        elif clock is not None:
            started = clock()
            outcomes = self._feed_kernel(start_interval, samples)
            if samples:
                self._observe_latency(clock() - started)
        else:
            outcomes = self._feed_kernel(start_interval, samples)
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

    def _feed_kernel(
        self,
        start_interval: int,
        samples: Sequence[Tuple[float, float]],
    ) -> BatchOutcomes:
        """Columnar decision cycle for a validated batch.

        Mirrors N :meth:`_feed_one` calls exactly, column-at-a-time.
        Without a latency budget the degradation state cannot change
        mid-batch, so the whole batch runs in the session's current mode:

        * classification — :meth:`PhaseTable.classify_batch` over the raw
          ``mem_per_uop`` values (the scalar path's unit-µop synthetic
          counters reproduce the value bit-exactly, so classifying it
          directly is identical);
        * prediction — in normal mode the predictor's fused
          ``predict_batch`` cycle, then the governor's range clamp
          (skipped wholesale when every prediction is already in range,
          the overwhelmingly common case); in degraded mode
          ``observe_batch`` keeps the history warm and each prediction is
          the sample's own phase, as in :meth:`_decide_degraded`;
        * policy translation — a cached phase→frequency map plus one
          bulk :meth:`DVFSPolicy.record_lookups` call, advancing the
          per-phase residency counters exactly as N ``setting_for``
          lookups would;
        * scoring — the first sample settles the carried-over pending
          prediction (degraded-tagged if it was made in degraded mode),
          every later sample scores its predecessor's prediction into
          the counters of the batch's mode.

        ``upc`` is ignored here as in the scalar path: it only feeds the
        synthetic TSC counter, which the Mem/Uop metric never reads.
        """
        n = len(samples)
        if n == 0:
            return BatchOutcomes(start_interval, [], [], [], [], [])
        mem_values = [sample[0] for sample in samples]
        table = self.phase_table
        actual = table.classify_batch(mem_values)
        degraded = self._degraded
        if degraded:
            self.predictor.observe_batch(actual, mem_values)
            predicted = actual
        else:
            predicted = self.predictor.predict_batch(actual, mem_values)
            num_phases = table.num_phases
            if min(predicted) < 1 or max(predicted) > num_phases:
                predicted = [
                    min(max(phase, 1), num_phases) for phase in predicted
                ]
        frequency_map = self._frequency_by_phase
        if frequency_map is None:
            frequency_map = {
                phase_id: point.frequency_mhz
                for phase_id, point in (
                    self._governor.policy.assignments.items()
                )
            }
            self._frequency_by_phase = frequency_map
        frequencies = [frequency_map[phase] for phase in predicted]
        self._governor.policy.record_lookups(Counter(predicted))
        pending = self._pending
        first_hit: Optional[bool] = (
            None if pending is None else pending == actual[0]
        )
        hits: List[Optional[bool]] = [first_hit]
        rest_hits = [
            prediction == outcome
            for prediction, outcome in zip(predicted, actual[1:])
        ]
        hits.extend(rest_hits)
        if first_hit is not None:
            if self._pending_degraded:
                self._degraded_scored += 1
                if first_hit:
                    self._degraded_correct += 1
            else:
                self._scored += 1
                if first_hit:
                    self._correct += 1
        if degraded:
            self._degraded_scored += len(rest_hits)
            self._degraded_correct += sum(rest_hits)
        else:
            self._scored += len(rest_hits)
            self._correct += sum(rest_hits)
        self._pending = predicted[-1]
        self._pending_degraded = degraded
        self._samples += n
        return BatchOutcomes(
            start_interval, actual, predicted, frequencies, [degraded] * n, hits
        )

    @staticmethod
    def _validate_sample(
        interval_index: int, mem_per_uop: float, expected: int
    ) -> None:
        if interval_index != expected:
            raise ConfigurationError(
                f"out-of-order sample: expected interval {expected}, "
                f"got {interval_index}"
            )
        if mem_per_uop < 0:
            raise ConfigurationError(
                f"Mem/Uop must be >= 0, got {mem_per_uop}"
            )

    def _feed_one(
        self, interval_index: int, mem_per_uop: float, upc: float
    ) -> SampleOutcome:
        """Classify, score, train and predict for one validated sample.

        No clock reads, no metrics — the callers own latency accounting
        (per sample in :meth:`feed`, per batch in :meth:`feed_batch`).
        """
        if self._degraded:
            actual, predicted, frequency_mhz = self._decide_degraded(
                mem_per_uop
            )
        else:
            actual, predicted, frequency_mhz = self._decide(mem_per_uop, upc)
        hit: Optional[bool] = None
        if self._pending is not None:
            hit = self._pending == actual
            if self._pending_degraded:
                self._degraded_scored += 1
                if hit:
                    self._degraded_correct += 1
            else:
                self._scored += 1
                if hit:
                    self._correct += 1
        self._pending = predicted
        self._pending_degraded = self._degraded
        self._samples += 1
        return SampleOutcome(
            interval=interval_index,
            actual_phase=actual,
            predicted_phase=predicted,
            frequency_mhz=frequency_mhz,
            degraded=self._degraded,
            hit=hit,
        )

    def _decide(self, mem_per_uop: float, upc: float) -> "tuple[int, int, int]":
        """Normal path: one governor consultation.

        The counters are unit-µop synthetic: ``uops = 1`` makes the
        governor's ``mem_transactions / uops`` reproduce ``mem_per_uop``
        *exactly* (no float round trip), which the bit-for-bit
        online/offline equivalence depends on.
        """
        counters = IntervalCounters(
            uops=1.0,
            mem_transactions=mem_per_uop,
            instructions=1.0,
            tsc_cycles=(1.0 / upc) if upc > 0 else 0.0,
        )
        decision = self._governor.decide(counters)
        return (
            decision.actual_phase,
            decision.predicted_phase,
            decision.setting.frequency_mhz,
        )

    def _decide_degraded(self, mem_per_uop: float) -> "tuple[int, int, int]":
        """Degraded path: classify, train, predict last-value.

        The expensive predictor lookup is skipped; the predictor still
        observes the actual phase so its history stays warm, mirroring
        the GPHT's own miss fallback (predict the last observed phase).
        """
        policy = self._governor.policy
        actual = policy.phase_table.classify(mem_per_uop)
        self.predictor.observe(
            PhaseObservation(phase=actual, mem_per_uop=mem_per_uop)
        )
        setting = policy.setting_for(actual)
        return actual, actual, setting.frequency_mhz

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
        assert isinstance(config_payload, dict)  # validate_checkpoint did
        config = SessionConfig.from_payload(config_payload)
        session = cls(
            config,
            session_id=session_id,
            clock=clock,
            tracer=tracer,
            metrics=metrics,
        )
        predictor_state = payload["predictor"]
        assert isinstance(predictor_state, dict)  # validate_checkpoint did
        session.predictor.restore_state(predictor_state)
        session._samples = _checkpoint_int(payload, "samples")
        session._scored = _checkpoint_int(payload, "scored")
        session._correct = _checkpoint_int(payload, "correct")
        # Degraded-mode counters are additive: a pre-split checkpoint
        # simply restores with empty fallback statistics.
        session._degraded_scored = _checkpoint_int(
            payload, "degraded_scored", default=0
        )
        session._degraded_correct = _checkpoint_int(
            payload, "degraded_correct", default=0
        )
        pending = payload.get("pending_prediction")
        if pending is not None and (
            isinstance(pending, bool) or not isinstance(pending, int)
        ):
            raise ConfigurationError(
                f"pending_prediction must be an int or null, got {pending!r}"
            )
        session._pending = pending
        session._pending_degraded = _checkpoint_bool(
            payload, "pending_degraded", default=False
        )
        degraded = payload.get("degraded", False)
        if not isinstance(degraded, bool):
            raise ConfigurationError(
                f"degraded must be a bool, got {degraded!r}"
            )
        session._degraded = degraded
        session._degraded_events = _checkpoint_int(
            payload, "degraded_events", default=0
        )
        session._in_budget_streak = _checkpoint_int(
            payload, "in_budget_streak", default=0
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


def _checkpoint_int(payload: Payload, key: str, default: Optional[int] = None) -> int:
    """Extract a non-negative int field from a checkpoint payload."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"checkpoint {key!r} must be an int, got {value!r}"
        )
    if value < 0:
        raise ConfigurationError(
            f"checkpoint {key!r} must be >= 0, got {value}"
        )
    return value


def _checkpoint_bool(payload: Payload, key: str, default: bool) -> bool:
    """Extract a bool field from a checkpoint payload."""
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"checkpoint {key!r} must be a bool, got {value!r}"
        )
    return value
