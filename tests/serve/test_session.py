"""PhaseSession: the online classify/observe/predict loop."""

from dataclasses import fields

import pytest

from repro.core.predictors import PhasePredictor
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingBufferTracer
from repro.serve import SESSION_GOVERNORS, PhaseSession, SessionConfig


class FakeClock:
    """Scripted time source: returns queued values, then the last one."""

    def __init__(self, values):
        self._values = list(values)

    def __call__(self):
        if len(self._values) > 1:
            return self._values.pop(0)
        return self._values[0]


class TestSessionConfig:
    def test_defaults_match_paper_deployment(self):
        config = SessionConfig()
        assert config.governor == "gpht"
        assert config.policy == "table2"
        assert config.gphr_depth == 8
        assert config.pht_entries == 128

    def test_unknown_governor_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown session governor"):
            SessionConfig(governor="oracle")

    def test_nonpositive_latency_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="latency budget"):
            SessionConfig(latency_budget_s=0.0)

    def test_payload_round_trip(self):
        config = SessionConfig(
            governor="fixed_window", window_size=4, latency_budget_s=0.5
        )
        assert SessionConfig.from_payload(config.to_payload()) == config
        # Field order is the wire order of a snapshot's config.
        assert list(config.to_payload()) == [
            field.name for field in fields(SessionConfig)
        ]

    def test_from_payload_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown session config"):
            SessionConfig.from_payload({"governor": "gpht", "depth": 3})

    def test_from_payload_rejects_wrong_types(self):
        with pytest.raises(ConfigurationError, match="gphr_depth"):
            SessionConfig.from_payload({"gphr_depth": "8"})

    @pytest.mark.parametrize("governor", SESSION_GOVERNORS)
    def test_build_predictor_for_every_governor(self, governor):
        predictor = SessionConfig(governor=governor).build_predictor()
        assert isinstance(predictor, PhasePredictor)


class TestFeed:
    def test_first_sample_has_no_hit(self):
        session = PhaseSession()
        outcome = session.feed(0, 0.001)
        assert outcome.hit is None
        assert outcome.interval == 0
        assert session.samples == 1
        assert session.scored == 0

    def test_out_of_order_sample_rejected(self):
        session = PhaseSession()
        session.feed(0, 0.001)
        with pytest.raises(ConfigurationError, match="out-of-order"):
            session.feed(2, 0.001)
        with pytest.raises(ConfigurationError, match="out-of-order"):
            session.feed(0, 0.001)

    def test_negative_metric_rejected(self):
        session = PhaseSession()
        with pytest.raises(ConfigurationError, match=">= 0"):
            session.feed(0, -0.1)

    def test_hits_scored_against_next_actual(self):
        # A constant series: from the second sample on, last-value-style
        # prediction is always right.
        session = PhaseSession(SessionConfig(governor="reactive"))
        outcomes = [session.feed(i, 0.001) for i in range(5)]
        assert outcomes[0].hit is None
        assert all(outcome.hit is True for outcome in outcomes[1:])
        assert session.scored == 4
        assert session.correct == 4
        assert session.accuracy == 1.0

    def test_accuracy_defaults_to_one_before_scoring(self):
        assert PhaseSession().accuracy == 1.0

    def test_recommended_frequency_tracks_predicted_phase(self):
        session = PhaseSession(SessionConfig(governor="reactive"))
        low = session.feed(0, 0.001)  # phase 1 -> fastest point
        high = session.feed(1, 0.05)  # deep-memory phase -> slowest point
        assert low.frequency_mhz > high.frequency_mhz

    def test_samples_counted_in_metrics(self):
        metrics = MetricsRegistry()
        session = PhaseSession(metrics=metrics)
        session.feed(0, 0.001)
        session.feed(1, 0.001)
        assert metrics.counter("serve.samples").value == 2.0


class TestPredict:
    def test_cold_start_is_default_phase(self):
        predicted, frequency_mhz = PhaseSession().predict()
        assert predicted == PhasePredictor.DEFAULT_PHASE
        assert frequency_mhz > 0

    def test_predict_does_not_advance_the_session(self):
        session = PhaseSession()
        outcome = session.feed(0, 0.001)
        before = session.samples
        predicted, _ = session.predict()
        assert predicted == outcome.predicted_phase
        assert session.samples == before


class TestDegradation:
    def _session(self, latencies, budget=1.0, cooldown=2, tracer=None):
        # feed() reads the clock twice, so each sample consumes a
        # (start, end) pair: latency k = values[2k+1] - values[2k].
        ticks = []
        t = 0.0
        for latency in latencies:
            ticks.extend([t, t + latency])
            t += latency + 1.0
        return PhaseSession(
            SessionConfig(latency_budget_s=budget, cooldown=cooldown),
            clock=FakeClock(ticks or [0.0]),
            tracer=tracer if tracer is not None else RingBufferTracer(),
        )

    def test_stays_normal_within_budget(self):
        session = self._session([0.1, 0.2, 0.3])
        for i in range(3):
            assert not session.feed(i, 0.001).degraded
        assert session.degraded_events == 0

    def test_overrun_enters_degraded_mode(self):
        session = self._session([0.1, 5.0, 0.1])
        assert not session.feed(0, 0.001).degraded
        # The overrunning sample itself was served normally; degradation
        # applies from the next sample on.
        assert not session.feed(1, 0.001).degraded
        assert session.degraded
        assert session.degraded_events == 1
        assert session.feed(2, 0.001).degraded

    def test_cooldown_restores_normal_mode(self):
        session = self._session([5.0, 0.1, 0.1, 0.1], cooldown=2)
        session.feed(0, 0.001)
        assert session.degraded
        session.feed(1, 0.001)
        assert session.degraded  # one in-budget sample is not enough
        session.feed(2, 0.001)
        assert not session.degraded  # cooldown=2 reached
        assert session.feed(3, 0.001).degraded is False

    def test_overrun_mid_cooldown_resets_the_streak(self):
        session = self._session([5.0, 0.1, 5.0, 0.1, 0.1, 0.1], cooldown=3)
        for i in range(5):
            session.feed(i, 0.001)
        # Streak was broken by the overrun at sample 2: only samples 3-4
        # count, so cooldown=3 is not yet reached.
        assert session.degraded
        session.feed(5, 0.001)
        assert not session.degraded

    def test_degraded_mode_predicts_last_value(self):
        session = self._session([5.0, 0.1, 0.1], cooldown=99)
        session.feed(0, 0.001)
        outcome = session.feed(1, 0.05)
        assert session.degraded
        assert outcome.predicted_phase == outcome.actual_phase

    def test_degradation_events_traced(self):
        tracer = RingBufferTracer()
        session = self._session([5.0], tracer=tracer)
        session.feed(0, 0.001)
        kinds = [type(event).__name__ for event in tracer.events()]
        assert "SessionDegraded" in kinds

    def test_no_clock_means_no_degradation(self):
        session = PhaseSession(SessionConfig(latency_budget_s=1e-12))
        for i in range(10):
            assert not session.feed(i, 0.001).degraded


class TestStats:
    def test_stats_payload_is_json_scalars(self):
        session = PhaseSession(session_id="s9")
        session.feed(0, 0.001)
        stats = session.stats()
        assert stats["session"] == "s9"
        assert stats["samples"] == 1
        assert all(
            value is None or isinstance(value, (str, int, float, bool))
            for value in stats.values()
        )


class TestFeedBatch:
    def test_matches_single_feeds(self):
        series = [0.001, 0.001, 0.02, 0.05, 0.02, 0.001, 0.06, 0.06]
        single = PhaseSession()
        expected = [single.feed(i, value) for i, value in enumerate(series)]
        batched = PhaseSession()
        outcomes = batched.feed_batch(0, [(value, 0.0) for value in series])
        assert outcomes == expected
        assert batched.samples == single.samples
        assert batched.scored == single.scored
        assert batched.correct == single.correct

    def test_accepts_continuation_batches(self):
        session = PhaseSession()
        session.feed_batch(0, [(0.001, 0.0), (0.02, 0.0)])
        outcomes = session.feed_batch(2, [(0.05, 0.0)])
        assert outcomes[0].interval == 2
        assert session.samples == 3

    def test_empty_batch_is_a_noop(self):
        session = PhaseSession()
        assert session.feed_batch(0, []) == []
        assert session.samples == 0

    def test_validation_is_atomic(self):
        session = PhaseSession()
        session.feed(0, 0.001)
        with pytest.raises(ConfigurationError, match="out-of-order"):
            session.feed_batch(5, [(0.001, 0.0)])
        with pytest.raises(ConfigurationError, match=">= 0"):
            session.feed_batch(1, [(0.001, 0.0), (-0.5, 0.0)])
        # The valid prefix of the rejected batch was NOT applied.
        assert session.samples == 1

    def test_per_batch_metrics(self):
        metrics = MetricsRegistry()
        session = PhaseSession(metrics=metrics)
        session.feed_batch(0, [(0.001, 0.0)] * 5)
        assert metrics.counter("serve.samples").value == 5
        batch_size = metrics.histogram("serve.batch_size")
        assert batch_size.count == 1
        assert batch_size.max == 5.0

    def test_one_latency_observation_per_batch(self):
        metrics = MetricsRegistry()
        session = PhaseSession(
            metrics=metrics, clock=FakeClock([0.0, 0.25])
        )
        session.feed_batch(0, [(0.001, 0.0)] * 4)
        latency = metrics.histogram("serve.sample_latency_s")
        assert latency.count == 1
        assert latency.total == pytest.approx(0.25)

    def test_degradation_transitions_match_single_feeds(self):
        # With a latency budget the state machine must run per sample:
        # the same scripted clock drives a batch and N single feeds to
        # identical outcomes, including mid-batch degradation entry.
        def ticks(latencies):
            values, t = [], 0.0
            for latency in latencies:
                values.extend([t, t + latency])
                t += latency + 1.0
            return values

        latencies = [0.1, 5.0, 0.1, 0.1, 0.1]
        series = [0.001, 0.02, 0.05, 0.02, 0.001]
        config = SessionConfig(latency_budget_s=1.0, cooldown=2)
        single = PhaseSession(config, clock=FakeClock(ticks(latencies)))
        expected = [single.feed(i, value) for i, value in enumerate(series)]
        batched = PhaseSession(config, clock=FakeClock(ticks(latencies)))
        outcomes = batched.feed_batch(0, [(value, 0.0) for value in series])
        assert outcomes == expected
        assert [outcome.degraded for outcome in outcomes] == [
            outcome.degraded for outcome in expected
        ]
        assert batched.degraded == single.degraded
        assert batched.degraded_events == single.degraded_events
        assert batched.snapshot() == single.snapshot()


class TestDegradedAccounting:
    """Degraded-mode predictions must not pollute the normal hit rate."""

    def _degraded_session(self, latencies, **kwargs):
        ticks, t = [], 0.0
        for latency in latencies:
            ticks.extend([t, t + latency])
            t += latency + 1.0
        return PhaseSession(
            SessionConfig(latency_budget_s=1.0, cooldown=99, **kwargs),
            clock=FakeClock(ticks or [0.0]),
        )

    def test_degraded_hits_scored_separately(self):
        # Sample 0 overruns: predictions made from sample 1 on are
        # degraded last-value guesses.  Only prediction 0 (made in
        # normal mode, scored at sample 1) may count toward `scored`.
        session = self._degraded_session([5.0, 0.1, 0.1, 0.1, 0.1])
        for i in range(5):
            session.feed(i, 0.001)
        assert session.scored == 1
        assert session.degraded_scored == 3
        assert session.scored + session.degraded_scored == 4

    def test_degraded_accuracy_exposed(self):
        session = self._degraded_session([5.0, 0.1, 0.1])
        for i in range(3):
            session.feed(i, 0.001)
        assert session.degraded_accuracy == 1.0
        stats = session.stats()
        assert stats["degraded_scored"] == session.degraded_scored
        assert stats["degraded_correct"] == session.degraded_correct
        assert stats["degraded_accuracy"] == session.degraded_accuracy

    def test_counters_survive_checkpoint(self):
        session = self._degraded_session([5.0, 0.1, 0.1, 0.1])
        for i in range(4):
            session.feed(i, 0.001)
        restored = PhaseSession.from_snapshot(session.snapshot())
        assert restored.degraded_scored == session.degraded_scored
        assert restored.degraded_correct == session.degraded_correct
        assert restored.scored == session.scored

    def test_normal_only_session_has_no_degraded_counts(self):
        session = PhaseSession()
        for i in range(5):
            session.feed(i, 0.001)
        assert session.degraded_scored == 0
        assert session.degraded_correct == 0
        assert session.degraded_accuracy == 1.0
