"""Phase run-length (duration) analysis — extension.

The paper's related work (Isci, Martonosi & Buyuktosunoglu, IEEE Micro
2005, its reference [14]) predicts *phase durations*: how long the
current phase will persist before transitioning.  This module provides
the run-length machinery — run-length encoding of phase sequences and
per-phase duration statistics — used both for workload characterisation
and by the duration-based predictor in
:mod:`repro.core.predictors.duration`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.numerics import as_int, as_list


@dataclass(frozen=True)
class PhaseRun:
    """A maximal run of consecutive identical phases.

    Attributes:
        phase: The phase id of the run.
        start: Index of the run's first sample.
        length: Number of consecutive samples (>= 1).
    """

    phase: int
    start: int
    length: int


def phase_runs(phases: Sequence[int]) -> List[PhaseRun]:
    """Run-length encode a phase sequence.

    Args:
        phases: The per-interval phase ids (non-empty).

    Returns:
        Maximal runs in order; their lengths sum to ``len(phases)``.
    """
    if not phases:
        raise ConfigurationError("cannot encode an empty phase sequence")
    runs: List[PhaseRun] = []
    start = 0
    current = phases[0]
    for index, phase in enumerate(phases[1:], start=1):
        if phase != current:
            runs.append(PhaseRun(phase=current, start=start,
                                 length=index - start))
            current = phase
            start = index
    runs.append(PhaseRun(phase=current, start=start,
                         length=len(phases) - start))
    return runs


class DurationStatistics:
    """Per-phase run-length distributions of a phase sequence.

    Built offline from a complete sequence (characterisation) or grown
    online one completed run at a time (the duration predictor).
    """

    def __init__(self) -> None:
        self._histograms: Dict[int, Counter] = defaultdict(Counter)

    @classmethod
    def from_sequence(cls, phases: Sequence[int]) -> "DurationStatistics":
        """Build statistics from a complete phase sequence.

        The final (possibly truncated) run is excluded: its true
        duration is unknown.
        """
        statistics = cls()
        runs = phase_runs(phases)
        for run in runs[:-1]:
            statistics.record(run.phase, run.length)
        return statistics

    def record(self, phase: int, length: int) -> None:
        """Record one completed run of ``phase`` lasting ``length``."""
        if length < 1:
            raise ConfigurationError(f"run length must be >= 1, got {length}")
        self._histograms[phase][length] += 1

    def observed_phases(self) -> Tuple[int, ...]:
        """Phases with at least one recorded run, ascending."""
        return tuple(sorted(self._histograms))

    def run_count(self, phase: int) -> int:
        """Number of completed runs recorded for ``phase``."""
        return sum(self._histograms[phase].values())

    def histogram(self, phase: int) -> Dict[int, int]:
        """Run-length histogram of ``phase`` (length -> occurrences)."""
        return dict(self._histograms[phase])

    def mean_duration(self, phase: int) -> float:
        """Mean run length of ``phase``.

        Raises:
            ConfigurationError: If no run of ``phase`` was recorded.
        """
        histogram = self._histograms.get(phase)
        if not histogram:
            raise ConfigurationError(f"no runs recorded for phase {phase}")
        total = sum(length * count for length, count in histogram.items())
        return total / sum(histogram.values())

    def median_duration(self, phase: int) -> int:
        """Median run length of ``phase`` (lower median)."""
        histogram = self._histograms.get(phase)
        if not histogram:
            raise ConfigurationError(f"no runs recorded for phase {phase}")
        count = sum(histogram.values())
        midpoint = (count + 1) // 2
        seen = 0
        for length in sorted(histogram):
            seen += histogram[length]
            if seen >= midpoint:
                return length
        raise AssertionError("unreachable: midpoint within total count")

    def to_payload(self) -> List[List[object]]:
        """Lossless JSON-able form of the recorded histograms.

        Entries keep their insertion order (first-recorded phase first,
        first-recorded length first) so a rebuilt instance is exactly the
        original, not merely statistically equivalent.
        """
        return [
            [phase, [[length, count] for length, count in histogram.items()]]
            for phase, histogram in self._histograms.items()
        ]

    @classmethod
    def from_payload(cls, payload: object) -> "DurationStatistics":
        """Rebuild statistics from a :meth:`to_payload` value.

        Raises:
            ConfigurationError: On a malformed payload.
        """
        statistics = cls()
        for entry in as_list(payload, "duration statistics payload"):
            phase, pairs = as_list(entry, "duration histogram entry", 2)
            histogram = statistics._histograms[
                as_int(phase, "duration histogram phase")
            ]
            for pair in as_list(pairs, f"duration histogram of {phase}"):
                length, count = as_list(pair, "duration histogram pair", 2)
                histogram[as_int(length, "duration length", minimum=1)] = (
                    as_int(count, "duration count", minimum=1)
                )
        return statistics

    def continuation_probability(self, phase: int, elapsed: int) -> float:
        """P(run continues past ``elapsed`` | it reached ``elapsed``).

        The hazard-complement a duration predictor thresholds on: among
        recorded runs of ``phase`` that lasted at least ``elapsed``
        samples, the fraction that lasted strictly longer.
        """
        if elapsed < 1:
            raise ConfigurationError(f"elapsed must be >= 1, got {elapsed}")
        histogram = self._histograms.get(phase)
        if not histogram:
            return 1.0
        reached = sum(c for length, c in histogram.items() if length >= elapsed)
        if reached == 0:
            # Longer than anything seen: assume the run is ending.
            return 0.0
        longer = sum(c for length, c in histogram.items() if length > elapsed)
        return longer / reached
