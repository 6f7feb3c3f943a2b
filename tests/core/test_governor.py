"""Tests for the DVFS governors (the Figure 8 decision logic)."""

import pytest

from repro.core.dvfs_policy import DVFSPolicy
from repro.core.governor import (
    IntervalCounters,
    PhasePredictionGovernor,
    ReactiveGovernor,
    StaticGovernor,
)
from repro.core.predictors import (
    GPHTPredictor,
    LastValuePredictor,
    PhaseObservation,
    PhasePredictor,
)
from repro.cpu.frequency import SpeedStepTable


def counters(mem_per_uop, uops=100_000_000.0):
    return IntervalCounters(
        uops=uops,
        mem_transactions=uops * mem_per_uop,
        instructions=uops / 1.2,
        tsc_cycles=uops / 0.8,
    )


class TestIntervalCounters:
    def test_derived_metrics(self):
        c = counters(0.0123)
        assert c.mem_per_uop == pytest.approx(0.0123)
        assert c.upc == pytest.approx(0.8)

    def test_zero_division_guards(self):
        c = IntervalCounters(
            uops=0, mem_transactions=0, instructions=0, tsc_cycles=0
        )
        assert c.mem_per_uop == 0.0
        assert c.upc == 0.0


class TestPhasePredictionGovernor:
    def test_decision_classifies_and_translates(self):
        governor = PhasePredictionGovernor(LastValuePredictor())
        decision = governor.decide(counters(0.012))
        assert decision.actual_phase == 3
        # Last-value predicts the observed phase persists.
        assert decision.predicted_phase == 3
        assert decision.setting.frequency_mhz == 1200

    def test_decisions_follow_interval_order(self):
        governor = PhasePredictionGovernor(LastValuePredictor())
        decisions = [governor.decide(counters(m)) for m in (0.001, 0.04)]
        assert [d.actual_phase for d in decisions] == [1, 6]
        assert [d.predicted_phase for d in decisions] == [1, 6]

    def test_predictor_sees_observations(self):
        class Spy(PhasePredictor):
            def __init__(self):
                self.seen = []

            @property
            def name(self):
                return "Spy"

            def observe(self, observation: PhaseObservation):
                self.seen.append(observation)

            def predict(self):
                return 4

            def reset(self):
                self.seen.clear()

        spy = Spy()
        governor = PhasePredictionGovernor(spy)
        decision = governor.decide(counters(0.021))
        assert spy.seen[0].phase == 5
        assert spy.seen[0].mem_per_uop == pytest.approx(0.021)
        # The spy's constant prediction drives the setting.
        assert decision.setting.frequency_mhz == 1000

    def test_out_of_range_prediction_is_clamped(self):
        class Wild(PhasePredictor):
            @property
            def name(self):
                return "Wild"

            def observe(self, observation):
                pass

            def predict(self):
                return 99

            def reset(self):
                pass

        governor = PhasePredictionGovernor(Wild())
        decision = governor.decide(counters(0.001))
        assert decision.predicted_phase == 6
        assert decision.setting.frequency_mhz == 600

    def test_reset_clears_predictor(self):
        predictor = GPHTPredictor(4, 16)
        governor = PhasePredictionGovernor(predictor)
        governor.decide(counters(0.012))
        governor.reset()
        assert predictor.pht_occupancy == 0

    def test_name_defaults_to_predictor(self):
        governor = PhasePredictionGovernor(GPHTPredictor(8, 128))
        assert governor.name == "GPHT_8_128"

    def test_name_override(self):
        governor = PhasePredictionGovernor(
            LastValuePredictor(), name="mine"
        )
        assert governor.name == "mine"

    def test_custom_policy_used(self):
        speedstep = SpeedStepTable()
        policy = DVFSPolicy(
            DVFSPolicy.paper_default().phase_table,
            {p: speedstep.fastest for p in range(1, 7)},
            name="pinned",
        )
        governor = PhasePredictionGovernor(LastValuePredictor(), policy)
        decision = governor.decide(counters(0.05))
        assert decision.setting.frequency_mhz == 1500


class TestReactiveGovernor:
    def test_is_last_value_management(self):
        """Reactive management == configure for the phase just seen."""
        governor = ReactiveGovernor()
        governor.decide(counters(0.001))
        decision = governor.decide(counters(0.04))
        assert decision.predicted_phase == decision.actual_phase == 6

    def test_name(self):
        assert ReactiveGovernor().name == "Reactive"


class TestStaticGovernor:
    def test_always_returns_pinned_setting(self):
        speedstep = SpeedStepTable()
        governor = StaticGovernor(speedstep.fastest)
        for mem in (0.0, 0.01, 0.05):
            assert governor.decide(counters(mem)).setting == speedstep.fastest

    def test_still_classifies_for_logging(self):
        governor = StaticGovernor(SpeedStepTable().fastest)
        assert governor.decide(counters(0.017)).actual_phase == 4

    def test_name_includes_frequency(self):
        assert StaticGovernor(SpeedStepTable().slowest).name == "Static_600MHz"

    def test_reset_is_noop(self):
        governor = StaticGovernor(SpeedStepTable().fastest)
        governor.reset()
