"""Tests for operating points and the SpeedStep table."""

import pickle

import pytest

from repro.cpu.frequency import (
    PENTIUM_M_OPERATING_POINTS,
    OperatingPoint,
    SpeedStepTable,
)
from repro.errors import ConfigurationError


class TestOperatingPoint:
    def test_unit_conversions(self):
        point = OperatingPoint(1500, 1484)
        assert point.frequency_ghz == pytest.approx(1.5)
        assert point.frequency_hz == pytest.approx(1.5e9)
        assert point.voltage_v == pytest.approx(1.484)

    def test_ordering_is_by_frequency(self):
        slow = OperatingPoint(600, 956)
        fast = OperatingPoint(1500, 1484)
        assert slow < fast
        assert max(slow, fast) is fast

    def test_equality(self):
        assert OperatingPoint(800, 1116) == OperatingPoint(800, 1116)
        assert OperatingPoint(800, 1116) != OperatingPoint(800, 1117)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ConfigurationError):
            OperatingPoint(0, 1000)
        with pytest.raises(ConfigurationError):
            OperatingPoint(-600, 1000)

    def test_rejects_nonpositive_voltage(self):
        with pytest.raises(ConfigurationError):
            OperatingPoint(600, 0)

    def test_str_shows_both_quantities(self):
        assert str(OperatingPoint(600, 956)) == "(600 MHz, 956 mV)"

    def test_cached_conversions_leave_identity_alone(self):
        point = OperatingPoint(800, 1116)
        assert (point.frequency_ghz, point.frequency_hz, point.voltage_v) == (
            0.8,
            8.0e8,
            1.116,
        )
        fresh = OperatingPoint(800, 1116)
        assert point == fresh
        assert hash(point) == hash(fresh)
        assert not point < fresh and not fresh < point
        assert OperatingPoint(600, 956) < point < OperatingPoint(1000, 1228)
        restored = pickle.loads(pickle.dumps(point))
        assert restored == fresh
        assert restored.frequency_hz == 8.0e8


class TestPaperOperatingPoints:
    """The exact six SpeedStep pairs of the paper's Table 2."""

    def test_six_points(self):
        assert len(PENTIUM_M_OPERATING_POINTS) == 6

    def test_table2_values(self):
        expected = [
            (1500, 1484),
            (1400, 1452),
            (1200, 1356),
            (1000, 1228),
            (800, 1116),
            (600, 956),
        ]
        actual = [
            (p.frequency_mhz, p.voltage_mv) for p in PENTIUM_M_OPERATING_POINTS
        ]
        assert actual == expected

    def test_voltage_decreases_with_frequency(self):
        voltages = [p.voltage_mv for p in PENTIUM_M_OPERATING_POINTS]
        assert voltages == sorted(voltages, reverse=True)


class TestSpeedStepTable:
    def test_default_is_pentium_m(self):
        table = SpeedStepTable()
        assert table.points == PENTIUM_M_OPERATING_POINTS

    def test_orders_fastest_first(self):
        points = [OperatingPoint(600, 956), OperatingPoint(1500, 1484)]
        table = SpeedStepTable(points)
        assert table.fastest.frequency_mhz == 1500
        assert table.slowest.frequency_mhz == 600
        assert table[0].frequency_mhz == 1500

    def test_len_iter_contains(self):
        table = SpeedStepTable()
        assert len(table) == 6
        assert list(table) == list(PENTIUM_M_OPERATING_POINTS)
        assert OperatingPoint(800, 1116) in table
        assert OperatingPoint(900, 1116) not in table

    def test_contains_requires_matching_voltage(self):
        table = SpeedStepTable()
        assert OperatingPoint(800, 1200) not in table

    def test_index_of(self):
        table = SpeedStepTable()
        assert table.index_of(OperatingPoint(1500, 1484)) == 0
        assert table.index_of(OperatingPoint(600, 956)) == 5

    def test_index_of_unknown_point_raises(self):
        with pytest.raises(ConfigurationError):
            SpeedStepTable().index_of(OperatingPoint(900, 1000))

    def test_at_frequency(self):
        point = SpeedStepTable().at_frequency(1200)
        assert point.voltage_mv == 1356

    def test_at_unknown_frequency_raises(self):
        with pytest.raises(ConfigurationError, match="not a supported"):
            SpeedStepTable().at_frequency(1300)

    def test_slower_than(self):
        table = SpeedStepTable()
        slower = table.slower_than(table.at_frequency(1000))
        assert [p.frequency_mhz for p in slower] == [800, 600]

    def test_slower_than_slowest_is_empty(self):
        table = SpeedStepTable()
        assert table.slower_than(table.slowest) == ()

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SpeedStepTable([])

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SpeedStepTable(
                [OperatingPoint(600, 956), OperatingPoint(600, 1000)]
            )

    def test_repr_lists_points(self):
        table = SpeedStepTable([OperatingPoint(600, 956)])
        assert "600 MHz" in repr(table)
