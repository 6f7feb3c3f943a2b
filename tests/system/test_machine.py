"""Tests for the full simulated machine."""

import pytest

from repro.core.governor import (
    PhasePredictionGovernor,
    ReactiveGovernor,
    StaticGovernor,
)
from repro.core.predictors import GPHTPredictor, LastValuePredictor
from repro.power.daq import DataAcquisitionSystem
from repro.system.machine import Machine
from repro.workloads.segments import SegmentSpec, WorkloadTrace, uniform_trace


def small_machine():
    """A machine with a small PMI granularity for fast tests."""
    return Machine(granularity_uops=1_000_000)


def trace_of(levels, uops=1_000_000, name="t"):
    return uniform_trace(name, levels, uops_per_segment=uops)


class TestRunBasics:
    def test_one_interval_per_granularity(self):
        machine = small_machine()
        trace = trace_of([(0.01, 1.0)] * 7)
        result = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
        assert len(result.intervals) == 7

    def test_totals_match_trace(self):
        machine = small_machine()
        trace = trace_of([(0.01, 1.0)] * 5)
        result = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
        assert result.total_uops == trace.total_uops
        assert result.total_instructions == pytest.approx(
            trace.total_instructions
        )
        assert result.total_seconds > 0
        assert result.total_energy_j > 0

    def test_interval_energy_sums_to_total(self):
        machine = small_machine()
        trace = trace_of([(0.02, 1.2)] * 6)
        result = machine.run(trace, ReactiveGovernor())
        interval_energy = sum(m.energy_j for m in result.intervals)
        # Totals additionally include handler energy.
        assert interval_energy <= result.total_energy_j
        assert interval_energy == pytest.approx(
            result.total_energy_j, rel=0.01
        )

    def test_segments_split_across_interval_boundaries(self):
        """A single big segment must still produce per-granularity
        intervals."""
        machine = small_machine()
        trace = WorkloadTrace(
            "big",
            [SegmentSpec(uops=5_000_000, mem_per_uop=0.01, upc_core=1.0)],
        )
        result = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
        assert len(result.intervals) == 5

    def test_fine_segments_aggregate_into_intervals(self):
        machine = small_machine()
        trace = trace_of([(0.01, 1.0)] * 10, uops=500_000)
        result = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
        assert len(result.intervals) == 5
        assert result.intervals[0].record.uops == 1_000_000


class TestGovernance:
    def test_static_governor_never_transitions(self):
        machine = small_machine()
        trace = trace_of([(0.0, 1.5), (0.04, 1.0)] * 5)
        result = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
        assert result.transition_count == 0
        assert set(result.frequency_series()) == {1500}

    def test_reactive_governor_follows_phases(self):
        machine = small_machine()
        trace = trace_of([(0.0, 1.5)] * 3 + [(0.04, 1.0)] * 3)
        result = machine.run(trace, ReactiveGovernor())
        # Interval 3 observes phase 6, so interval 4 runs at 600 MHz.
        assert result.frequency_series()[4] == 600
        assert result.transition_count >= 1

    def test_decision_takes_effect_next_interval(self):
        machine = small_machine()
        trace = trace_of([(0.04, 1.0)] * 3)
        result = machine.run(trace, ReactiveGovernor())
        frequencies = result.frequency_series()
        assert frequencies[0] == 1500  # starts at the baseline point
        assert frequencies[1] == 600   # reaction to interval 0

    def test_governor_is_reset_between_runs(self):
        machine = small_machine()
        governor = PhasePredictionGovernor(GPHTPredictor(4, 16))
        trace = trace_of([(0.01, 1.0)] * 3)
        first = machine.run(trace, governor)
        state = governor.predictor.export_state()
        second = machine.run(trace, governor)
        assert second == first
        assert governor.predictor.export_state() == state
        assert second.intervals[0].record.interval_index == 0

    def test_initial_point_override(self):
        machine = small_machine()
        slow = machine.speedstep.slowest
        trace = trace_of([(0.0, 1.5)] * 2)
        result = machine.run(
            trace, StaticGovernor(slow), initial_point=slow
        )
        assert set(result.frequency_series()) == {600}


class TestOverheads:
    def test_handler_overhead_is_invisible(self):
        """The paper's 'no observable overheads' claim: handler time is
        a vanishing fraction of execution at 100M-uop granularity."""
        machine = Machine()  # full 100M-uop granularity
        trace = uniform_trace(
            "t", [(0.01, 1.0)] * 5, uops_per_segment=100_000_000
        )
        result = machine.run(
            trace, PhasePredictionGovernor(GPHTPredictor(8, 128))
        )
        assert result.handler_overhead_fraction < 1e-3

    def test_handler_seconds_reported(self):
        machine = small_machine()
        trace = trace_of([(0.01, 1.0)] * 4)
        result = machine.run(trace, ReactiveGovernor())
        assert result.handler_seconds > 0


class TestEnergyBehaviour:
    def test_slow_execution_draws_less_power(self):
        machine = small_machine()
        trace = trace_of([(0.03, 1.0)] * 6)
        fast = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
        slow = machine.run(
            trace,
            StaticGovernor(machine.speedstep.slowest),
            initial_point=machine.speedstep.slowest,
        )
        assert slow.average_power_w < fast.average_power_w
        assert slow.total_seconds > fast.total_seconds

    def test_memory_bound_run_uses_less_power_than_cpu_bound(self):
        machine = small_machine()
        cpu = machine.run(
            trace_of([(0.0, 1.5)] * 4, name="cpu"),
            StaticGovernor(machine.speedstep.fastest),
        )
        mem = machine.run(
            trace_of([(0.05, 1.5)] * 4, name="mem"),
            StaticGovernor(machine.speedstep.fastest),
        )
        assert mem.average_power_w < cpu.average_power_w


class TestDAQIntegration:
    def test_daq_sees_the_whole_run(self):
        machine = small_machine()
        daq = DataAcquisitionSystem()
        trace = trace_of([(0.01, 1.0)] * 4)
        result = machine.run(trace, ReactiveGovernor(), daq=daq)
        times, *_ = daq.raw_arrays()
        assert daq.sample_count > 0
        assert times[-1] <= result.total_seconds


class TestPartialIntervals:
    def test_trailing_partial_interval_counts_toward_totals_only(self):
        machine = Machine(granularity_uops=1_000_000)
        # 2.5 intervals of work: the final half interval never triggers
        # a PMI, so it appears in totals but not in the interval log.
        trace = WorkloadTrace(
            "partial",
            [SegmentSpec(uops=2_500_000, mem_per_uop=0.01, upc_core=1.0)],
        )
        result = machine.run(trace, ReactiveGovernor())
        assert len(result.intervals) == 2
        assert result.total_uops == 2_500_000
        interval_seconds = sum(m.seconds for m in result.intervals)
        assert result.total_seconds > interval_seconds

    def test_trace_shorter_than_granularity_has_no_intervals(self):
        machine = Machine(granularity_uops=10_000_000)
        trace = WorkloadTrace(
            "tiny",
            [SegmentSpec(uops=1_000_000, mem_per_uop=0.01, upc_core=1.0)],
        )
        result = machine.run(trace, ReactiveGovernor())
        assert result.intervals == ()
        assert result.total_energy_j > 0
        assert result.transition_count == 0
