"""DVFS mode-set register interface (Enhanced SpeedStep analogue).

The paper programs DVFS through the Pentium-M's mode-set MSRs from inside
the PMI handler.  This module models that interface: a register holding
the current operating point, a ``request`` operation that validates the
target against the platform's :class:`~repro.cpu.frequency.SpeedStepTable`,
and accounting of transition costs (a voltage/frequency switch stalls the
core for tens of microseconds — invisible at the paper's 100M-instruction
granularity, but modelled for fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.frequency import OperatingPoint, SpeedStepTable
from repro.errors import ConfigurationError

#: Time the core is stalled while a voltage/frequency transition settles.
DEFAULT_TRANSITION_SECONDS = 10.0e-6


@dataclass
class TransitionRecord:
    """One DVFS transition: from where, to where, at what simulated time."""

    time_s: float
    previous: OperatingPoint
    new: OperatingPoint


class DVFSInterface:
    """The mode-set register file controlling voltage and frequency.

    Mirrors the check-then-set flow of the paper's Figure 8: the handler
    compares the desired setting with the current one and only writes the
    registers (paying the transition penalty) when they differ.

    Args:
        table: Platform operating points.
        initial: Starting operating point; defaults to the fastest.
        transition_seconds: Core stall per actual transition.
    """

    def __init__(
        self,
        table: Optional[SpeedStepTable] = None,
        initial: Optional[OperatingPoint] = None,
        transition_seconds: float = DEFAULT_TRANSITION_SECONDS,
    ) -> None:
        if transition_seconds < 0:
            raise ConfigurationError(
                f"transition time must be >= 0, got {transition_seconds}"
            )
        self._table = table if table is not None else SpeedStepTable()
        self._current = initial if initial is not None else self._table.fastest
        if self._current not in self._table:
            raise ConfigurationError(
                f"initial point {self._current} not in platform table"
            )
        self._transition_seconds = transition_seconds
        self._transitions: List[TransitionRecord] = []

    @property
    def table(self) -> SpeedStepTable:
        """The platform's supported operating points."""
        return self._table

    @property
    def current(self) -> OperatingPoint:
        """The operating point the core is running at now."""
        return self._current

    @property
    def transition_seconds(self) -> float:
        """Stall paid per actual mode change."""
        return self._transition_seconds

    @property
    def transitions(self) -> Tuple[TransitionRecord, ...]:
        """All mode changes performed so far, in time order."""
        return tuple(self._transitions)

    @property
    def transition_count(self) -> int:
        """Number of actual mode changes performed."""
        return len(self._transitions)

    def request(self, point: OperatingPoint, time_s: float = 0.0) -> float:
        """Request the core switch to ``point``.

        Implements "Same as current setting?" from Figure 8: if the
        requested point equals the current one, nothing happens and the
        cost is zero.  The current point was validated when it was set,
        so requesting that very object skips the table lookup.

        Args:
            point: Desired operating point; must be in the platform table.
            time_s: Simulated time of the request (for the transition log).

        Returns:
            The stall time in seconds incurred by this request (zero if
            no change was needed).

        Raises:
            ConfigurationError: If ``point`` is not supported.
        """
        if point is self._current:
            return 0.0
        if point not in self._table:
            raise ConfigurationError(
                f"operating point {point} not supported by this platform"
            )
        if point == self._current:
            return 0.0
        self._transitions.append(
            TransitionRecord(time_s=time_s, previous=self._current, new=point)
        )
        self._current = point
        return self._transition_seconds

    def reset(self, initial: Optional[OperatingPoint] = None) -> None:
        """Clear the transition log and return to ``initial`` (or fastest)."""
        self._current = initial if initial is not None else self._table.fastest
        if self._current not in self._table:
            raise ConfigurationError(
                f"initial point {self._current} not in platform table"
            )
        self._transitions.clear()
