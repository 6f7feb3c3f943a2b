"""DVFS governors: the decision logic inside the PMI handler.

A governor is consulted once per sampling interval with the counter
readings of the interval that just finished, and answers with the
operating point to program for the next interval — the "Translate
counter readings / predict next phase / translate predicted phase"
portion of the paper's Figure 8.

Three governors cover the paper's comparison space:

* :class:`PhasePredictionGovernor` — the paper's proactive scheme: any
  :class:`~repro.core.predictors.base.PhasePredictor` (deployed: the
  GPHT) predicts the next phase, which a :class:`~repro.core.dvfs_policy.
  DVFSPolicy` translates to a setting;
* :class:`ReactiveGovernor` — the "reactive" prior art of Section 6.2:
  configure for the behaviour just observed (equivalent to last-value
  prediction);
* :class:`StaticGovernor` — the unmanaged baseline pinned at one point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, NamedTuple, Optional

from repro.core.dvfs_policy import DVFSPolicy
from repro.core.phases import PhaseTable
from repro.core.predictors import LastValuePredictor, PhaseObservation, PhasePredictor
from repro.cpu.frequency import OperatingPoint
from repro.obs.events import PhaseClassified
from repro.obs.tracer import NULL_TRACER, Tracer


class IntervalCounters(NamedTuple):
    """Counter readings for one completed sampling interval.

    Attributes:
        uops: Retired micro-ops (the PMI pacing count).
        mem_transactions: Memory bus transactions.
        instructions: Retired architectural instructions.
        tsc_cycles: Elapsed core cycles (from the TSC).
    """

    uops: float
    mem_transactions: float
    instructions: float
    tsc_cycles: float

    @property
    def mem_per_uop(self) -> float:
        """The phase metric: memory transactions per micro-op."""
        if self.uops == 0:
            return 0.0
        return self.mem_transactions / self.uops

    @property
    def upc(self) -> float:
        """Observed micro-ops per cycle over the interval."""
        if self.tsc_cycles == 0:
            return 0.0
        return self.uops / self.tsc_cycles


class GovernorDecision(NamedTuple):
    """One governor consultation and its outcome.

    Attributes:
        actual_phase: Phase classified from the finished interval.
        predicted_phase: Phase predicted for the next interval.
        setting: Operating point chosen for the next interval.
    """

    actual_phase: int
    predicted_phase: int
    setting: OperatingPoint


class Governor(ABC):
    """Per-interval DVFS decision logic."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short display name for reports."""

    @abstractmethod
    def decide(self, counters: IntervalCounters) -> GovernorDecision:
        """Choose the operating point for the next interval."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all accumulated state (fresh run)."""

    def bind_tracer(self, tracer: Tracer) -> None:
        """Attach a trace collector.

        Recording must be zero-perturbation — no override may let the
        tracer influence a decision.  The base implementation discards
        the tracer (static governors have nothing to report).
        """


#: Extracts the classification metric from the interval counters.  The
#: paper's choice is ``Mem/Uop``; Section 4 demonstrates why UPC-derived
#: metrics are unsafe under DVFS (see :mod:`repro.core.upc_phases`).
MetricExtractor = Callable[[IntervalCounters], float]


def mem_per_uop_metric(counters: IntervalCounters) -> float:
    """The paper's DVFS-invariant phase metric."""
    return counters.mem_per_uop


class PhasePredictionGovernor(Governor):
    """The paper's proactive governor: predict, then configure.

    Args:
        predictor: Any phase predictor (the deployed system uses
            ``GPHTPredictor(gphr_depth=8, pht_entries=128)``).
        policy: Phase-to-setting translation table.
        name: Optional display-name override (defaults to the
            predictor's name).
        metric: How to derive the classification metric from the counter
            readings (default: ``Mem/Uop``).  Provided so Section 4's
            UPC-classification pitfall can be demonstrated; production
            policies should keep the DVFS-invariant default.
        record_decisions: Whether to keep every decision in
            :attr:`decisions` (the offline-evaluation default).  A
            long-running service (``repro.serve``) disables this so a
            session's memory stays bounded; disabling never changes any
            decision taken.
    """

    def __init__(
        self,
        predictor: PhasePredictor,
        policy: Optional[DVFSPolicy] = None,
        name: Optional[str] = None,
        metric: MetricExtractor = mem_per_uop_metric,
    ) -> None:
        self._predictor = predictor
        self._policy = policy if policy is not None else DVFSPolicy.paper_default()
        self._name = name if name is not None else predictor.name
        self._metric = metric
        self._tracer: Tracer = NULL_TRACER

    @property
    def name(self) -> str:
        return self._name

    @property
    def predictor(self) -> PhasePredictor:
        """The predictor steering this governor."""
        return self._predictor

    @property
    def policy(self) -> DVFSPolicy:
        """The phase-to-setting policy in force."""
        return self._policy

    def bind_tracer(self, tracer: Tracer) -> None:
        """Attach a trace collector to this governor and its predictor."""
        self._tracer = tracer
        self._predictor.bind_tracer(tracer)

    def decide(self, counters: IntervalCounters) -> GovernorDecision:
        phase_table = self._policy.phase_table
        metric_value = self._metric(counters)
        actual = phase_table.classify(metric_value)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                PhaseClassified(
                    interval=tracer.interval,
                    governor=self._name,
                    metric=metric_value,
                    phase=actual,
                )
            )
        self._predictor.observe(PhaseObservation(actual, metric_value))
        predicted = self._clamp(self._predictor.predict(), phase_table)
        return GovernorDecision(
            actual, predicted, self._policy.setting_for(predicted)
        )

    @staticmethod
    def _clamp(phase_id: int, phase_table: PhaseTable) -> int:
        """Keep out-of-range predictions inside the valid phase range."""
        return min(max(phase_id, 1), phase_table.num_phases)

    def reset(self) -> None:
        self._predictor.reset()


class ReactiveGovernor(PhasePredictionGovernor):
    """Reactive management: configure for the last observed behaviour.

    The common prior-art scheme the paper compares against in Section
    6.2 — identical to a :class:`PhasePredictionGovernor` driven by a
    last-value predictor.
    """

    def __init__(self, policy: Optional[DVFSPolicy] = None) -> None:
        super().__init__(LastValuePredictor(), policy, name="Reactive")


class StaticGovernor(Governor):
    """Unmanaged baseline: a fixed operating point, forever.

    Args:
        setting: The pinned operating point (the paper's baseline is the
            fastest, 1.5 GHz).
        phase_table: Used only to classify intervals so that baseline
            runs still produce actual-phase logs for evaluation.
    """

    def __init__(
        self,
        setting: OperatingPoint,
        phase_table: Optional[PhaseTable] = None,
    ) -> None:
        self._setting = setting
        self._phase_table = phase_table if phase_table is not None else PhaseTable()

    @property
    def name(self) -> str:
        return f"Static_{self._setting.frequency_mhz}MHz"

    @property
    def setting(self) -> OperatingPoint:
        """The pinned operating point."""
        return self._setting

    def decide(self, counters: IntervalCounters) -> GovernorDecision:
        actual = self._phase_table.classify(counters.mem_per_uop)
        return GovernorDecision(actual, actual, self._setting)

    def reset(self) -> None:
        """Static governors hold no state."""
