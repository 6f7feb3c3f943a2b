"""Composable behaviour-pattern generators for synthetic workloads.

SPEC2000 binaries are not available offline, so the reproduction
synthesises per-benchmark behaviour *statistics*: each benchmark is a
:class:`BehaviorPattern` producing a per-interval series of
``(mem_per_uop, upc_core)`` pairs whose variability, level structure and
repetitiveness match what the paper reports for that benchmark
(Figures 2-4).  Predictor quality depends only on these sequence
statistics, which is what makes the substitution faithful.

Patterns are deterministic given a seeded ``numpy`` generator, so every
experiment in the repository is exactly reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Clipping bounds keeping generated values physically meaningful.
_MEM_BOUNDS = (0.0, 0.2)
_UPC_BOUNDS = (0.05, 2.0)


class BehaviorPattern(ABC):
    """A generator of per-interval ``(mem_per_uop, upc_core)`` series."""

    @abstractmethod
    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Produce ``n`` intervals of behaviour.

        Args:
            n: Number of intervals to generate (> 0).
            rng: Seeded random generator; identical seeds give identical
                series.

        Returns:
            Array of shape ``(n, 2)``: column 0 is ``mem_per_uop``,
            column 1 is ``upc_core``.
        """

    @staticmethod
    def _clip(series: np.ndarray) -> np.ndarray:
        """Clip a raw ``(n, 2)`` series into physical bounds."""
        series[:, 0] = np.clip(series[:, 0], *_MEM_BOUNDS)
        series[:, 1] = np.clip(series[:, 1], *_UPC_BOUNDS)
        return series


def _check_length(n: int) -> None:
    if n <= 0:
        raise ConfigurationError(f"pattern length must be > 0, got {n}")


class FlatPattern(BehaviorPattern):
    """Constant behaviour with optional Gaussian jitter.

    Models the paper's Q1/Q2 benchmarks: "almost completely flat
    execution behaviour, where the application rarely changes its
    execution properties".

    Args:
        mem_per_uop: Mean memory transactions per uop.
        upc_core: Mean core-limited UPC.
        mem_sigma: Standard deviation of per-interval ``Mem/Uop`` noise.
        upc_sigma: Standard deviation of per-interval UPC noise.
    """

    def __init__(
        self,
        mem_per_uop: float,
        upc_core: float,
        mem_sigma: float = 0.0,
        upc_sigma: float = 0.0,
    ) -> None:
        if mem_per_uop < 0 or upc_core <= 0:
            raise ConfigurationError(
                f"invalid flat levels mem={mem_per_uop}, upc={upc_core}"
            )
        if mem_sigma < 0 or upc_sigma < 0:
            raise ConfigurationError("noise sigmas must be >= 0")
        self._mem = mem_per_uop
        self._upc = upc_core
        self._mem_sigma = mem_sigma
        self._upc_sigma = upc_sigma

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_length(n)
        series = np.empty((n, 2))
        series[:, 0] = self._mem + (
            rng.normal(0.0, self._mem_sigma, n) if self._mem_sigma else 0.0
        )
        series[:, 1] = self._upc + (
            rng.normal(0.0, self._upc_sigma, n) if self._upc_sigma else 0.0
        )
        return self._clip(series)


@dataclass(frozen=True)
class MotifElement:
    """One step of a repeating motif.

    Attributes:
        mem_per_uop: ``Mem/Uop`` level during this step.
        upc_core: Core UPC during this step.
        duration: How many sampling intervals the step lasts (>= 1).
    """

    mem_per_uop: float
    upc_core: float
    duration: int = 1

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ConfigurationError(
                f"motif element duration must be >= 1, got {self.duration}"
            )


class MotifPattern(BehaviorPattern):
    """A repeating multi-level motif — the loop-nest signature of the
    paper's variable benchmarks (applu's "distinctive repetitive phases").

    Args:
        elements: The motif steps, repeated cyclically forever.
        mem_sigma: Gaussian noise added to every interval's ``Mem/Uop``.
        duration_jitter: Probability that an element instance is stretched
            or shrunk by one interval (never below one).  Jitter models
            the real-system timing variability of Section 5.1 and keeps
            pattern-based predictors honest.
    """

    def __init__(
        self,
        elements: Sequence[MotifElement],
        mem_sigma: float = 0.0,
        duration_jitter: float = 0.0,
    ) -> None:
        if not elements:
            raise ConfigurationError("a motif needs at least one element")
        if not 0.0 <= duration_jitter <= 1.0:
            raise ConfigurationError(
                f"duration_jitter must be in [0, 1], got {duration_jitter}"
            )
        if mem_sigma < 0:
            raise ConfigurationError("mem_sigma must be >= 0")
        self._elements = tuple(elements)
        self._mem_sigma = mem_sigma
        self._jitter = duration_jitter

    @property
    def period(self) -> int:
        """Nominal motif period in intervals (without jitter)."""
        return sum(e.duration for e in self._elements)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_length(n)
        mems: List[float] = []
        upcs: List[float] = []
        index = 0
        while len(mems) < n:
            element = self._elements[index % len(self._elements)]
            duration = element.duration
            if self._jitter and rng.random() < self._jitter:
                duration = max(1, duration + rng.choice((-1, 1)))
            mems.extend([element.mem_per_uop] * duration)
            upcs.extend([element.upc_core] * duration)
            index += 1
        series = np.column_stack((mems[:n], upcs[:n]))
        if self._mem_sigma:
            series[:, 0] += rng.normal(0.0, self._mem_sigma, n)
        return self._clip(series)


class CyclePattern(BehaviorPattern):
    """Cycles through sub-patterns in fixed-length blocks.

    Models program-level structure above the loop level: a benchmark
    alternating between several distinct loop nests.  Used to enlarge the
    set of distinct history patterns a benchmark exhibits — the knob
    behind the PHT-capacity sensitivity of the paper's Figure 5.

    Args:
        blocks: ``(pattern, block_length)`` pairs visited round-robin.
    """

    def __init__(self, blocks: Sequence[Tuple[BehaviorPattern, int]]) -> None:
        if not blocks:
            raise ConfigurationError("a cycle needs at least one block")
        for _, length in blocks:
            if length < 1:
                raise ConfigurationError(
                    f"block length must be >= 1, got {length}"
                )
        self._blocks = tuple(blocks)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_length(n)
        pieces: List[np.ndarray] = []
        produced = 0
        index = 0
        while produced < n:
            pattern, length = self._blocks[index % len(self._blocks)]
            take = min(length, n - produced)
            pieces.append(pattern.generate(take, rng))
            produced += take
            index += 1
        return np.vstack(pieces)


class BurstPattern(BehaviorPattern):
    """A base behaviour interrupted by short random bursts.

    Models benchmarks that are mostly flat but occasionally shift
    behaviour for a few intervals (gzip's buffer refills, mcf's
    non-pointer-chasing spells).  Burst starts are random, so no
    predictor can anticipate them — but history-based predictors can
    learn the burst's *shape* once it starts.

    Args:
        base: Steady-state ``(mem_per_uop, upc_core)``.
        burst: Burst ``(mem_per_uop, upc_core)``.
        burst_probability: Per-interval probability a burst begins.
        burst_length: Burst duration in intervals.
        mem_sigma: Gaussian ``Mem/Uop`` noise on every interval.
    """

    def __init__(
        self,
        base: Tuple[float, float],
        burst: Tuple[float, float],
        burst_probability: float,
        burst_length: int = 2,
        mem_sigma: float = 0.0,
    ) -> None:
        if not 0.0 <= burst_probability <= 1.0:
            raise ConfigurationError(
                f"burst probability must be in [0, 1], got {burst_probability}"
            )
        if burst_length < 1:
            raise ConfigurationError(
                f"burst length must be >= 1, got {burst_length}"
            )
        self._base = base
        self._burst = burst
        self._probability = burst_probability
        self._length = burst_length
        self._mem_sigma = mem_sigma

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_length(n)
        series = np.empty((n, 2))
        series[:, 0] = self._base[0]
        series[:, 1] = self._base[1]
        i = 0
        while i < n:
            if rng.random() < self._probability:
                end = min(i + self._length, n)
                series[i:end, 0] = self._burst[0]
                series[i:end, 1] = self._burst[1]
                i = end
            else:
                i += 1
        if self._mem_sigma:
            series[:, 0] += rng.normal(0.0, self._mem_sigma, n)
        return self._clip(series)


class MarkovPattern(BehaviorPattern):
    """Behaviour levels visited according to a Markov chain.

    The stress case for pattern-based prediction: transitions carry only
    one step of memory, so the GPHT's deep history buys nothing beyond
    the chain's own predictability.  Used in robustness studies rather
    than in the SPEC registry.

    Args:
        states: The ``(mem_per_uop, upc_core)`` level of each state.
        transition_matrix: Row-stochastic matrix of state transition
            probabilities.
    """

    def __init__(
        self,
        states: Sequence[Tuple[float, float]],
        transition_matrix: Sequence[Sequence[float]],
    ) -> None:
        if not states:
            raise ConfigurationError("a Markov pattern needs states")
        matrix = np.asarray(transition_matrix, dtype=float)
        if matrix.shape != (len(states), len(states)):
            raise ConfigurationError(
                f"transition matrix shape {matrix.shape} does not match "
                f"{len(states)} states"
            )
        if np.any(matrix < 0) or not np.allclose(matrix.sum(axis=1), 1.0):
            raise ConfigurationError("rows must be probability distributions")
        self._states = tuple(states)
        self._matrix = matrix

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_length(n)
        series = np.empty((n, 2))
        state = 0
        for i in range(n):
            series[i] = self._states[state]
            state = int(rng.choice(len(self._states), p=self._matrix[state]))
        return self._clip(series)


class RampPattern(BehaviorPattern):
    """Behaviour drifting linearly between two levels, then repeating.

    Models gradual working-set growth (e.g. an in-place sort becoming
    cache-resident).  Exercises phase-boundary crossings that are slow
    rather than abrupt.

    Args:
        start: ``(mem_per_uop, upc_core)`` at the ramp start.
        end: ``(mem_per_uop, upc_core)`` at the ramp end.
        length: Intervals per ramp before restarting.
    """

    def __init__(
        self,
        start: Tuple[float, float],
        end: Tuple[float, float],
        length: int,
    ) -> None:
        if length < 2:
            raise ConfigurationError(f"ramp length must be >= 2, got {length}")
        self._start = np.asarray(start, dtype=float)
        self._end = np.asarray(end, dtype=float)
        self._length = length

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_length(n)
        fractions = (np.arange(n) % self._length) / (self._length - 1)
        series = self._start + np.outer(fractions, self._end - self._start)
        return self._clip(series)
