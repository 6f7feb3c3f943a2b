"""Phase definitions and classification (paper Section 2, Table 1).

Application behaviour is classified into a small number of *phases* from
the ``Mem/Uop`` metric — memory bus transactions per retired micro-op —
which Section 4 of the paper shows is invariant under DVFS.  The paper's
Table 1 defines six phases:

====================  =======
Mem/Uop               Phase #
====================  =======
< 0.005               1 (highly CPU-bound)
[0.005, 0.010)        2
[0.010, 0.015)        3
[0.015, 0.020)        4
[0.020, 0.030)        5
>= 0.030              6 (highly memory-bound)
====================  =======

The table is a first-class object so alternative definitions — notably
the conservative, performance-bounding tables of Section 6.3 — can be
swapped in without touching any other component.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Upper bin edges of the paper's Table 1.  Phase ``i`` (1-based) covers
#: ``[edge[i-2], edge[i-1])`` with an implicit 0 lower bound and +inf top.
PAPER_PHASE_EDGES: Tuple[float, ...] = (0.005, 0.010, 0.015, 0.020, 0.030)

#: Series shorter than this are classified by bisecting the edges in
#: Python; from this length on, one NumPy ``searchsorted`` call pays
#: back its fixed cost (a single value bisects in about a tenth of it).
NUMPY_MIN_VALUES = 32


@dataclass(frozen=True)
class PhaseDefinition:
    """One phase: a half-open ``Mem/Uop`` interval with a 1-based id.

    Attributes:
        phase_id: 1-based phase number (1 = most CPU-bound).
        lower: Inclusive lower ``Mem/Uop`` bound.
        upper: Exclusive upper bound (``inf`` for the last phase).
    """

    phase_id: int
    lower: float
    upper: float

    def contains(self, mem_per_uop: float) -> bool:
        """Whether ``mem_per_uop`` falls in this phase's interval."""
        return self.lower <= mem_per_uop < self.upper

    def __str__(self) -> str:
        if math.isinf(self.upper):
            return f"phase {self.phase_id}: Mem/Uop >= {self.lower}"
        return f"phase {self.phase_id}: Mem/Uop in [{self.lower}, {self.upper})"


class PhaseTable:
    """Maps ``Mem/Uop`` values to phase ids via ordered bin edges.

    Args:
        edges: Strictly increasing, positive upper bin edges.  ``n`` edges
            define ``n + 1`` phases, numbered 1 (below the first edge,
            most CPU-bound) through ``n + 1`` (at or above the last edge,
            most memory-bound).

    The default table is the paper's Table 1.
    """

    def __init__(self, edges: Sequence[float] = PAPER_PHASE_EDGES) -> None:
        edge_tuple: Tuple[float, ...] = tuple(edges)
        if not edge_tuple:
            raise ConfigurationError("a phase table needs at least one edge")
        if any(e <= 0 for e in edge_tuple):
            raise ConfigurationError(f"edges must be positive: {edge_tuple}")
        if any(b <= a for a, b in zip(edge_tuple, edge_tuple[1:])):
            raise ConfigurationError(
                f"edges must be strictly increasing: {edge_tuple}"
            )
        self._edges = edge_tuple
        self._edge_array = np.asarray(edge_tuple, dtype=np.float64)
        bounds = (0.0,) + edge_tuple + (float("inf"),)
        self._definitions = tuple(
            PhaseDefinition(phase_id=i + 1, lower=bounds[i], upper=bounds[i + 1])
            for i in range(len(bounds) - 1)
        )

    @property
    def edges(self) -> Tuple[float, ...]:
        """The upper bin edges."""
        return self._edges

    @property
    def num_phases(self) -> int:
        """How many phases this table defines."""
        return len(self._edges) + 1

    @property
    def definitions(self) -> Tuple[PhaseDefinition, ...]:
        """All phase definitions, ordered by phase id."""
        return self._definitions

    @property
    def phase_ids(self) -> Tuple[int, ...]:
        """All valid phase ids (1-based, ascending)."""
        return tuple(d.phase_id for d in self._definitions)

    def classify(self, mem_per_uop: float) -> int:
        """Return the 1-based phase id for a ``Mem/Uop`` observation.

        Raises:
            ConfigurationError: If ``mem_per_uop`` is negative (a counter
                ratio can never be).
        """
        if mem_per_uop < 0:
            raise ConfigurationError(
                f"Mem/Uop must be >= 0, got {mem_per_uop}"
            )
        for i, edge in enumerate(self._edges):
            if mem_per_uop < edge:
                return i + 1
        return len(self._edges) + 1

    def classify_series(self, values: Sequence[float]) -> List[int]:
        """Classify a whole series of ``Mem/Uop`` observations."""
        return [self.classify(v) for v in values]

    def classify_batch(self, values: Sequence[float]) -> List[int]:
        """Vectorized :meth:`classify` over a whole series.

        Bit-identical to ``[self.classify(v) for v in values]``: a value
        equal to an edge lands in the upper bin and NaN in the top one,
        because ``bisect_right`` and ``searchsorted(side="right")`` count
        the edges ``<= v`` exactly as the scalar scan's strict
        ``v < edge`` test does.  Series shorter than
        :data:`NUMPY_MIN_VALUES` bisect in Python, longer ones go
        through NumPy.

        Raises:
            ConfigurationError: If any value is negative; the first
                offending value (in series order) is reported with the
                scalar path's message.
        """
        if len(values) < NUMPY_MIN_VALUES:
            edges = self._edges
            phases: List[int] = []
            for value in values:
                if value < 0:
                    raise ConfigurationError(
                        f"Mem/Uop must be >= 0, got {value}"
                    )
                phases.append(bisect_right(edges, value) + 1)
            return phases
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-D series, got shape {array.shape}"
            )
        negative = array < 0
        if negative.any():
            first_bad = values[int(np.argmax(negative))]
            raise ConfigurationError(
                f"Mem/Uop must be >= 0, got {first_bad}"
            )
        indices = np.searchsorted(self._edge_array, array, side="right")
        result: List[int] = (indices + 1).tolist()
        return result

    def definition(self, phase_id: int) -> PhaseDefinition:
        """Return the definition of ``phase_id``.

        Raises:
            ConfigurationError: If the id is out of range.
        """
        if not 1 <= phase_id <= self.num_phases:
            raise ConfigurationError(
                f"phase id must be in [1, {self.num_phases}], got {phase_id}"
            )
        return self._definitions[phase_id - 1]

    def representative_value(self, phase_id: int) -> float:
        """A representative ``Mem/Uop`` for a phase (bin midpoint).

        The unbounded top phase uses its lower edge plus half the previous
        bin's width, keeping the value finite and monotone.
        """
        definition = self.definition(phase_id)
        if math.isinf(definition.upper):
            if len(self._edges) >= 2:
                previous_width = self._edges[-1] - self._edges[-2]
            else:
                previous_width = self._edges[-1]
            return definition.lower + previous_width / 2.0
        return (definition.lower + definition.upper) / 2.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseTable):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        return f"PhaseTable(edges={self._edges})"
