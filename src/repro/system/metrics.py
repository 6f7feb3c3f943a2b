"""Run results and power/performance metrics.

Collects what a full machine run produces — the kernel log joined with
the machine's per-interval time/energy accounting — and derives the
paper's evaluation metrics: BIPS (billions of instructions per second),
average power, energy, energy-delay product (EDP), and the normalised
baseline-vs-managed comparisons of Figures 11-13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.system.lkm import KernelLogRecord


class IntervalMetrics(NamedTuple):
    """One sampling interval: handler log joined with machine accounting.

    Attributes:
        record: The kernel log entry written by the PMI handler.
        seconds: Wall-clock time of the interval (application execution
            only, excluding the handler).
        energy_j: Energy consumed during the interval.
        instructions: Architectural instructions retired (machine ground
            truth; the 2-counter configuration cannot log this itself).
    """

    record: KernelLogRecord
    seconds: float
    energy_j: float
    instructions: float

    @property
    def power_w(self) -> float:
        """Mean power over the interval."""
        if self.seconds == 0:
            return 0.0
        return self.energy_j / self.seconds

    @property
    def bips(self) -> float:
        """Billions of instructions per second over the interval."""
        if self.seconds == 0:
            return 0.0
        return self.instructions / 1.0e9 / self.seconds


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregate statistics of one phase within a run.

    Attributes:
        phase_id: The phase.
        interval_count: Sampling intervals classified into it.
        seconds: Wall-clock time spent in it.
        energy_j: Energy consumed in it.
        time_share: Its fraction of the run's interval time.
    """

    phase_id: int
    interval_count: int
    seconds: float
    energy_j: float
    time_share: float

    @property
    def mean_power_w(self) -> float:
        """Mean power while executing this phase."""
        if self.seconds == 0:
            return 0.0
        return self.energy_j / self.seconds


@dataclass(frozen=True)
class RunResult:
    """Aggregate outcome of one machine run.

    Attributes:
        workload_name: Name of the executed trace.
        governor_name: Name of the managing governor.
        intervals: Per-interval metrics in execution order.
        total_instructions: Instructions retired over the whole run.
        total_uops: Micro-ops retired over the whole run.
        total_seconds: Wall-clock duration (including handler time).
        total_energy_j: Energy consumed (including handler energy).
        handler_seconds: Time spent inside the PMI handler.
        transition_count: Actual DVFS mode changes performed.
    """

    workload_name: str
    governor_name: str
    intervals: Tuple[IntervalMetrics, ...]
    total_instructions: float
    total_uops: float
    total_seconds: float
    total_energy_j: float
    handler_seconds: float
    transition_count: int

    @property
    def bips(self) -> float:
        """Whole-run billions of instructions per second."""
        if self.total_seconds == 0:
            return 0.0
        return self.total_instructions / 1.0e9 / self.total_seconds

    @property
    def average_power_w(self) -> float:
        """Whole-run mean power."""
        if self.total_seconds == 0:
            return 0.0
        return self.total_energy_j / self.total_seconds

    @property
    def edp(self) -> float:
        """Energy-delay product of the run, in joule-seconds."""
        return self.total_energy_j * self.total_seconds

    @property
    def handler_overhead_fraction(self) -> float:
        """Fraction of run time spent in the handler — the paper's
        "no observable overheads" claim requires this to be tiny."""
        if self.total_seconds == 0:
            return 0.0
        return self.handler_seconds / self.total_seconds

    def actual_phases(self) -> List[int]:
        """Actual phase ids per interval."""
        return [m.record.actual_phase for m in self.intervals]

    def predicted_phases(self) -> List[int]:
        """Next-interval predictions per interval."""
        return [m.record.predicted_phase for m in self.intervals]

    def mem_per_uop_series(self) -> List[float]:
        """Observed ``Mem/Uop`` per interval."""
        return [m.record.mem_per_uop for m in self.intervals]

    def frequency_series(self) -> List[int]:
        """Frequency (MHz) each interval actually ran at."""
        return [m.record.frequency_mhz for m in self.intervals]

    def power_series(self) -> List[float]:
        """Mean power per interval."""
        return [m.power_w for m in self.intervals]

    def bips_series(self) -> List[float]:
        """BIPS per interval."""
        return [m.bips for m in self.intervals]

    def phase_summary(self) -> "Dict[int, PhaseSummary]":
        """Aggregate time, energy and occupancy per actual phase.

        The per-phase view behind the paper's discussion of where the
        savings come from: memory-bound phases contribute most of the
        time and the bulk of the energy reduction.
        """
        sums: Dict[int, List[float]] = {}
        for m in self.intervals:
            entry = sums.setdefault(m.record.actual_phase, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += m.seconds
            entry[2] += m.energy_j
        total_seconds = sum(entry[1] for entry in sums.values())
        summaries: Dict[int, PhaseSummary] = {}
        for phase_id, (count, seconds, energy) in sorted(sums.items()):
            summaries[phase_id] = PhaseSummary(
                phase_id=phase_id,
                interval_count=count,
                seconds=seconds,
                energy_j=energy,
                time_share=(seconds / total_seconds) if total_seconds else 0.0,
            )
        return summaries

    def prediction_accuracy(self) -> float:
        """Online prediction accuracy over the run.

        The prediction logged at interval ``t`` targets interval
        ``t + 1``, so it is scored against the next record's actual
        phase.
        """
        records = [m.record for m in self.intervals]
        if len(records) < 2:
            return 1.0
        correct = sum(
            1
            for earlier, later in zip(records, records[1:])
            if earlier.predicted_phase == later.actual_phase
        )
        return correct / (len(records) - 1)


@dataclass(frozen=True)
class ComparisonMetrics:
    """Normalised managed-vs-baseline comparison (Figures 11-13).

    Attributes:
        baseline: The unmanaged reference run.
        managed: The dynamically managed run of the same workload.
    """

    baseline: RunResult
    managed: RunResult

    def __post_init__(self) -> None:
        if self.baseline.workload_name != self.managed.workload_name:
            raise ConfigurationError(
                "comparison requires the same workload: "
                f"{self.baseline.workload_name!r} vs "
                f"{self.managed.workload_name!r}"
            )

    @property
    def normalized_bips(self) -> float:
        """Managed BIPS as a fraction of baseline BIPS."""
        return self.managed.bips / self.baseline.bips

    @property
    def normalized_power(self) -> float:
        """Managed mean power as a fraction of baseline."""
        return self.managed.average_power_w / self.baseline.average_power_w

    @property
    def normalized_edp(self) -> float:
        """Managed EDP as a fraction of baseline (lower is better)."""
        return self.managed.edp / self.baseline.edp

    @property
    def edp_improvement(self) -> float:
        """Fractional EDP improvement (positive = managed wins)."""
        return 1.0 - self.normalized_edp

    @property
    def performance_degradation(self) -> float:
        """Fractional BIPS loss of the managed run."""
        return 1.0 - self.normalized_bips

    @property
    def power_savings(self) -> float:
        """Fractional mean-power reduction of the managed run."""
        return 1.0 - self.normalized_power

    @property
    def energy_savings(self) -> float:
        """Fractional energy reduction of the managed run."""
        return 1.0 - self.managed.total_energy_j / self.baseline.total_energy_j


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ConfigurationError("mean of an empty sequence")
    return sum(values) / len(values)
