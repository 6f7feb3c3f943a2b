"""SpeedStep operating points for the simulated Pentium-M platform.

The paper's prototype machine exposes six Enhanced SpeedStep voltage and
frequency pairs (Table 2 of the paper).  This module models those pairs as
immutable :class:`OperatingPoint` values collected in a
:class:`SpeedStepTable` that supports the lookups the rest of the system
needs: by index, by frequency, and ordered traversal from fastest to
slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """A single DVFS setting: a (frequency, voltage) pair.

    Ordering compares by frequency first, which makes ``max()``/``min()``
    and sorting behave naturally ("bigger" means "faster").  The unit
    conversions are computed once per point; equality, ordering and
    hashing read only the two fields.

    Attributes:
        frequency_mhz: Core clock frequency in megahertz.
        voltage_mv: Supply voltage in millivolts.
    """

    frequency_mhz: int
    voltage_mv: int

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {self.frequency_mhz} MHz"
            )
        if self.voltage_mv <= 0:
            raise ConfigurationError(
                f"voltage must be positive, got {self.voltage_mv} mV"
            )

    @cached_property
    def frequency_ghz(self) -> float:
        """Clock frequency in gigahertz (cycles per nanosecond)."""
        return self.frequency_mhz / 1000.0

    @cached_property
    def frequency_hz(self) -> float:
        """Clock frequency in hertz."""
        return self.frequency_mhz * 1.0e6

    @cached_property
    def voltage_v(self) -> float:
        """Supply voltage in volts."""
        return self.voltage_mv / 1000.0

    def __str__(self) -> str:
        return f"({self.frequency_mhz} MHz, {self.voltage_mv} mV)"


#: The six SpeedStep points of the paper's Pentium-M prototype (Table 2),
#: fastest first.
PENTIUM_M_OPERATING_POINTS: Tuple[OperatingPoint, ...] = (
    OperatingPoint(1500, 1484),
    OperatingPoint(1400, 1452),
    OperatingPoint(1200, 1356),
    OperatingPoint(1000, 1228),
    OperatingPoint(800, 1116),
    OperatingPoint(600, 956),
)


class SpeedStepTable:
    """The set of operating points a platform supports.

    The table is ordered fastest-first, mirroring how the paper indexes
    DVFS settings 1..6 from the highest frequency down.

    Args:
        points: Operating points in any order; duplicates (by frequency)
            are rejected.  Defaults to the Pentium-M table.
    """

    def __init__(
        self, points: Sequence[OperatingPoint] = PENTIUM_M_OPERATING_POINTS
    ) -> None:
        if not points:
            raise ConfigurationError("a SpeedStepTable needs at least one point")
        ordered = sorted(points, key=lambda p: p.frequency_mhz, reverse=True)
        frequencies = [p.frequency_mhz for p in ordered]
        if len(set(frequencies)) != len(frequencies):
            raise ConfigurationError(
                f"duplicate frequencies in operating points: {frequencies}"
            )
        self._points: Tuple[OperatingPoint, ...] = tuple(ordered)
        self._by_frequency = {p.frequency_mhz: p for p in ordered}

    @property
    def points(self) -> Tuple[OperatingPoint, ...]:
        """All operating points, fastest first."""
        return self._points

    @property
    def fastest(self) -> OperatingPoint:
        """The highest-frequency operating point."""
        return self._points[0]

    @property
    def slowest(self) -> OperatingPoint:
        """The lowest-frequency operating point."""
        return self._points[-1]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __contains__(self, point: OperatingPoint) -> bool:
        return self._by_frequency.get(point.frequency_mhz) == point

    def __getitem__(self, index: int) -> OperatingPoint:
        """Return the ``index``-th fastest point (0 = fastest)."""
        return self._points[index]

    def index_of(self, point: OperatingPoint) -> int:
        """Return the position of ``point`` (0 = fastest).

        Raises:
            ConfigurationError: If the point is not in the table.
        """
        for i, candidate in enumerate(self._points):
            if candidate == point:
                return i
        raise ConfigurationError(f"operating point {point} not in table")

    def at_frequency(self, frequency_mhz: int) -> OperatingPoint:
        """Return the operating point running at ``frequency_mhz``.

        Raises:
            ConfigurationError: If no point has that frequency.
        """
        try:
            return self._by_frequency[frequency_mhz]
        except KeyError:
            supported = sorted(self._by_frequency)
            raise ConfigurationError(
                f"{frequency_mhz} MHz is not a supported frequency; "
                f"supported: {supported}"
            ) from None

    def slower_than(self, point: OperatingPoint) -> Tuple[OperatingPoint, ...]:
        """All points strictly slower than ``point``, fastest first."""
        return tuple(
            p for p in self._points if p.frequency_mhz < point.frequency_mhz
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in self._points)
        return f"SpeedStepTable([{inner}])"
