"""Common interface for phase predictors.

Every predictor follows the same observe/predict cycle that the paper's
PMI handler drives once per sampling interval:

1. :meth:`PhasePredictor.observe` — the handler reads the counters,
   classifies the elapsed interval and tells the predictor what actually
   happened;
2. :meth:`PhasePredictor.predict` — the predictor names the phase it
   expects in the *next* interval.

Observations carry both the discrete phase id and the raw ``Mem/Uop``
value, because some statistical predictors (the variable-window family)
key their history resets off the raw metric.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER, Tracer

#: A JSON-able predictor checkpoint payload (see ``export_state``).
PredictorState = Dict[str, object]


class PhaseObservation(NamedTuple):
    """What the handler observed for one completed sampling interval.

    Attributes:
        phase: The classified phase id (1-based).
        mem_per_uop: The raw ``Mem/Uop`` value the phase was derived from.
    """

    phase: int
    mem_per_uop: float


class PhasePredictor(ABC):
    """Abstract observe/predict phase predictor.

    Subclasses must be usable cold: :meth:`predict` may be called before
    any observation, in which case a sensible default (phase 1, the
    fastest setting) keeps the machine safe.
    """

    #: Phase predicted before any observation has been made.
    DEFAULT_PHASE = 1

    #: Trace collector; the shared no-op singleton until bound.  Kept on
    #: the class so predictors that never bind pay nothing.
    _tracer: Tracer = NULL_TRACER

    @property
    def tracer(self) -> Tracer:
        """The bound trace collector (``NULL_TRACER`` by default)."""
        return self._tracer

    def bind_tracer(self, tracer: Tracer) -> None:
        """Attach a trace collector; recording must not change behaviour."""
        self._tracer = tracer

    @property
    @abstractmethod
    def name(self) -> str:
        """Short display name (used in figures and reports)."""

    @abstractmethod
    def observe(self, observation: PhaseObservation) -> None:
        """Record the actual behaviour of the interval that just ended."""

    @abstractmethod
    def predict(self) -> int:
        """Predict the phase of the next interval."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all history (fresh application start)."""

    # -- batch evaluation (vectorized fast path) ----------------------------

    def observe_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> None:
        """Record a run of completed intervals in one call.

        ``phases[i]`` and ``mem_values[i]`` describe the same interval,
        in execution order.  Equivalent to calling :meth:`observe` once
        per sample; subclasses may override with a batch kernel, but the
        result must be bit-identical to the scalar loop — same mutable
        state (and so the same :meth:`export_state` payload) afterwards.
        """
        observe = self.observe
        for phase, value in zip(phases, mem_values):
            observe(PhaseObservation(phase=phase, mem_per_uop=value))

    def predict_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> List[int]:
        """Run the fused observe/predict cycle over a run of intervals.

        For each sample ``i`` the predictor first observes
        ``(phases[i], mem_values[i])`` and then predicts the next phase;
        the returned list holds those predictions, one per sample.  This
        is exactly the per-interval cycle the PMI handler drives, so
        ``predict_batch(p, m)[i]`` must be bit-identical to what scalar
        ``observe``/``predict`` calls would have returned — including
        hit/miss accounting and any other mutable state.

        Kernelized overrides must fall back to this scalar loop when a
        trace collector is bound and enabled, so per-interval trace
        events are never silently dropped.
        """
        observe = self.observe
        predict = self.predict
        predictions: List[int] = []
        append = predictions.append
        for phase, value in zip(phases, mem_values):
            observe(PhaseObservation(phase=phase, mem_per_uop=value))
            append(predict())
        return predictions

    # -- checkpointing (repro.serve session snapshot/restore) --------------

    def export_state(self) -> PredictorState:
        """A lossless, JSON-able snapshot of all mutable predictor state.

        A predictor restored from this payload must emit *bit-identical*
        predictions to the original from that point on.  Predictors that
        do not support checkpointing raise ``ConfigurationError``; the
        base class supports none.
        """
        raise ConfigurationError(
            f"{self.name} does not support state checkpointing"
        )

    def restore_state(self, state: PredictorState) -> None:
        """Replace all mutable state with an :meth:`export_state` payload.

        Raises:
            ConfigurationError: On a malformed payload or one exported
                from an incompatible predictor configuration.
        """
        raise ConfigurationError(
            f"{self.name} does not support state checkpointing"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
