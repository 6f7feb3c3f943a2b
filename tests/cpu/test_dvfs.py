"""Tests for the DVFS mode-set register interface."""

import pytest

from repro.cpu.dvfs import DEFAULT_TRANSITION_SECONDS, DVFSInterface
from repro.cpu.frequency import OperatingPoint, SpeedStepTable
from repro.errors import ConfigurationError


class TestConstruction:
    def test_defaults_to_fastest_point(self):
        dvfs = DVFSInterface()
        assert dvfs.current.frequency_mhz == 1500

    def test_custom_initial_point(self):
        table = SpeedStepTable()
        dvfs = DVFSInterface(table, initial=table.at_frequency(600))
        assert dvfs.current.frequency_mhz == 600

    def test_rejects_initial_point_outside_table(self):
        with pytest.raises(ConfigurationError):
            DVFSInterface(initial=OperatingPoint(900, 1000))

    def test_rejects_negative_transition_time(self):
        with pytest.raises(ConfigurationError):
            DVFSInterface(transition_seconds=-1e-6)


class TestRequest:
    def test_same_setting_is_free(self):
        """Figure 8's 'Same as current setting?' short-circuit."""
        dvfs = DVFSInterface()
        cost = dvfs.request(dvfs.current)
        assert cost == 0.0
        assert dvfs.transition_count == 0

    def test_change_pays_transition_and_updates(self):
        dvfs = DVFSInterface()
        target = dvfs.table.at_frequency(600)
        cost = dvfs.request(target, time_s=1.0)
        assert cost == pytest.approx(DEFAULT_TRANSITION_SECONDS)
        assert dvfs.current == target
        assert dvfs.transition_count == 1

    def test_transition_log_records_endpoints(self):
        dvfs = DVFSInterface()
        dvfs.request(dvfs.table.at_frequency(800), time_s=2.5)
        record = dvfs.transitions[0]
        assert record.time_s == 2.5
        assert record.previous.frequency_mhz == 1500
        assert record.new.frequency_mhz == 800

    def test_rejects_unsupported_point(self):
        dvfs = DVFSInterface()
        with pytest.raises(ConfigurationError, match="not supported"):
            dvfs.request(OperatingPoint(1300, 1400))

    @pytest.mark.parametrize("identical", [True, False])
    def test_current_point_is_free_by_identity_or_equality(self, identical):
        table = SpeedStepTable()
        dvfs = DVFSInterface(table, initial=table.at_frequency(800))
        point = dvfs.current if identical else OperatingPoint(800, 1116)
        assert (point is dvfs.current) is identical
        assert dvfs.request(point, time_s=1.0) == 0.0
        assert dvfs.transitions == ()
        assert dvfs.current is table.at_frequency(800)

    def test_unsupported_point_raises_after_a_free_request(self):
        dvfs = DVFSInterface()
        dvfs.request(dvfs.current)
        with pytest.raises(ConfigurationError, match="not supported"):
            dvfs.request(OperatingPoint(1500, 1400))
        assert dvfs.transition_count == 0

    def test_repeated_toggling_counts_each_change(self):
        dvfs = DVFSInterface()
        fast = dvfs.table.fastest
        slow = dvfs.table.slowest
        for _ in range(3):
            dvfs.request(slow)
            dvfs.request(fast)
        assert dvfs.transition_count == 6


class TestReset:
    def test_reset_restores_fastest_and_clears_log(self):
        dvfs = DVFSInterface()
        dvfs.request(dvfs.table.slowest)
        dvfs.reset()
        assert dvfs.current == dvfs.table.fastest
        assert dvfs.transitions == ()

    def test_reset_to_specific_point(self):
        dvfs = DVFSInterface()
        dvfs.reset(dvfs.table.at_frequency(1000))
        assert dvfs.current.frequency_mhz == 1000

    def test_reset_rejects_foreign_point(self):
        dvfs = DVFSInterface()
        with pytest.raises(ConfigurationError):
            dvfs.reset(OperatingPoint(2000, 1500))
