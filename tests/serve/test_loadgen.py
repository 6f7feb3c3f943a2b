"""Deterministic load generator: series, digests, chaos, end-to-end runs."""

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    ChaosEvent,
    ChaosSchedule,
    ShardedServer,
    generate_series,
    run_loadgen,
)
from repro.serve.loadgen import parse_chaos_event


class TestGenerateSeries:
    def test_deterministic_per_seed(self):
        assert generate_series(100, seed=7) == generate_series(100, seed=7)
        assert generate_series(100, seed=7) != generate_series(100, seed=8)

    def test_exact_length(self):
        for n in (0, 1, 5, 100):
            assert len(generate_series(n)) == n

    def test_values_are_valid_mem_per_uop(self):
        assert all(0 <= value < 0.1 for value in generate_series(500))

    def test_has_plateaus(self):
        series = generate_series(200, seed=0)
        runs = sum(
            1 for a, b in zip(series, series[1:]) if a == b
        )
        assert runs > 100  # phase-like, not noise

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError, match="length"):
            generate_series(-1)


class TestValidation:
    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="sessions"):
            run_loadgen("127.0.0.1", 1, sessions=0)
        with pytest.raises(ConfigurationError, match="batch_size"):
            run_loadgen("127.0.0.1", 1, batch_size=0)

    def test_chaos_requires_verify_mode(self):
        chaos = ChaosSchedule(lambda worker: None, [ChaosEvent(1, 0)])
        with pytest.raises(ConfigurationError, match="verify"):
            run_loadgen("127.0.0.1", 1, chaos=chaos, verify=False)

    def test_recovery_knobs_validated(self):
        with pytest.raises(ConfigurationError, match="recovery_attempts"):
            run_loadgen("127.0.0.1", 1, recovery_attempts=0)
        with pytest.raises(ConfigurationError, match="recovery_delay_s"):
            run_loadgen("127.0.0.1", 1, recovery_delay_s=-1.0)


class TestChaosSchedule:
    def test_fires_at_exact_request_counts(self):
        killed = []
        schedule = ChaosSchedule(
            killed.append, [ChaosEvent(5, 1), ChaosEvent(2, 0)]
        )
        for expected in ([], [0], [0], [0], [0, 1], [0, 1]):
            schedule.note_request()
            assert killed == expected
        assert schedule.requests == 6
        assert [e.worker for e in schedule.fired] == [0, 1]
        assert schedule.pending == ()

    def test_each_event_fires_once(self):
        killed = []
        schedule = ChaosSchedule(killed.append, [ChaosEvent(1, 0)])
        for _ in range(10):
            schedule.note_request()
        assert killed == [0]

    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="after_requests"):
            ChaosEvent(0, 0)
        with pytest.raises(ConfigurationError, match="worker"):
            ChaosEvent(1, -1)


class TestParseChaosEvent:
    def test_parses_requests_and_worker(self):
        assert parse_chaos_event("40:1") == ChaosEvent(40, 1)

    @pytest.mark.parametrize("spec", ["", "40", "40:1:2", "a:b", "4.5:0"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="chaos event"):
            parse_chaos_event(spec)


@pytest.fixture(scope="module")
def sharded():
    server = ShardedServer(workers=2, max_sessions=8)
    port = server.start()
    yield port
    server.stop()


class TestRunLoadgen:
    def test_clean_run_no_errors(self, sharded):
        result = run_loadgen(
            "127.0.0.1",
            sharded,
            sessions=4,
            samples_per_session=96,
            batch_size=16,
            connections=2,
        )
        assert result.errors == 0
        assert result.samples == 4 * 96
        assert result.elapsed_s > 0
        assert result.samples_per_s > 0

    def test_digest_independent_of_batch_size(self, sharded):
        kwargs = dict(sessions=3, samples_per_session=80, connections=2)
        batched = run_loadgen(
            "127.0.0.1", sharded, batch_size=8, **kwargs
        )
        single = run_loadgen(
            "127.0.0.1", sharded, batch_size=1, **kwargs
        )
        assert batched.errors == single.errors == 0
        assert batched.outcome_digest == single.outcome_digest

    def test_digest_independent_of_connection_count(self, sharded):
        kwargs = dict(sessions=4, samples_per_session=64, batch_size=16)
        wide = run_loadgen("127.0.0.1", sharded, connections=4, **kwargs)
        narrow = run_loadgen("127.0.0.1", sharded, connections=1, **kwargs)
        assert wide.outcome_digest == narrow.outcome_digest

    def test_seed_changes_digest(self, sharded):
        kwargs = dict(sessions=2, samples_per_session=64, batch_size=16)
        a = run_loadgen("127.0.0.1", sharded, seed=0, **kwargs)
        b = run_loadgen("127.0.0.1", sharded, seed=1, **kwargs)
        assert a.outcome_digest != b.outcome_digest

    def test_payload_is_json_scalars(self, sharded):
        result = run_loadgen(
            "127.0.0.1",
            sharded,
            sessions=1,
            samples_per_session=32,
            batch_size=8,
            connections=1,
        )
        payload = result.to_payload()
        assert payload["samples"] == 32
        assert all(
            isinstance(value, (str, int, float, bool))
            for value in payload.values()
        )
