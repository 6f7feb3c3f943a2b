"""Trained repro.learn models served through the session stack.

The acceptance bar for the learned-model integration: a trained tree
(or Markov) artifact must ride the existing serve machinery — session
snapshot/restore, the durable CheckpointStore worker-restart path and
`serve replay` verification — bit-for-bit, with the trained stratum
surviving every hop.
"""

import pathlib

import pytest

from repro.core.phases import PhaseTable
from repro.errors import ConfigurationError
from repro.learn import (
    phase_dataset_from_series,
    session_config_params,
    train_markov,
    train_phase_tree,
)
from repro.serve import PhaseSession, SessionConfig, load_trace, replay_trace
from repro.serve.checkpoint import CheckpointStore
from repro.workloads import benchmark

FIXTURE_TRACE = (
    pathlib.Path(__file__).parent.parent
    / "learn"
    / "fixtures"
    / "tiny_trace.jsonl"
)

TABLE = PhaseTable()


def _train_series():
    return list(benchmark("applu_in").mem_series(200, seed=11))


def _tree_artifact():
    dataset = phase_dataset_from_series(_train_series(), history_length=4)
    return train_phase_tree(dataset)[1]


def _markov_artifact():
    dataset = phase_dataset_from_series(_train_series(), history_length=3)
    return train_markov(dataset, order=3)[1]


def _session_for(artifact):
    config = SessionConfig.from_payload(session_config_params(artifact))
    session = PhaseSession(config, session_id="learned")
    session.predictor.restore_state(dict(artifact.state))
    return session


def _live_series():
    return list(benchmark("swim_in").mem_series(120, seed=4))


def _feed(session, series, start=0):
    return [
        session.feed(start + i, value) for i, value in enumerate(series)
    ]


@pytest.mark.parametrize(
    "make_artifact",
    [_tree_artifact, _markov_artifact],
    ids=["tree", "markov"],
)
class TestLearnedSessionCheckpoints:
    def test_snapshot_restores_into_fresh_session(self, make_artifact):
        artifact = make_artifact()
        series = _live_series()
        original = _session_for(artifact)
        _feed(original, series[:60])
        snapshot = original.snapshot()

        restored = PhaseSession.from_snapshot(snapshot, session_id="twin")
        assert restored.snapshot() == snapshot
        left = _feed(original, series[60:], start=60)
        right = _feed(restored, series[60:], start=60)
        assert left == right
        assert restored.snapshot() == original.snapshot()

    def test_worker_restart_through_checkpoint_store(
        self, make_artifact, tmp_path
    ):
        artifact = make_artifact()
        series = _live_series()
        session = _session_for(artifact)
        _feed(session, series[:50])

        store = CheckpointStore(tmp_path / "ckpt")
        store.save("worker-0", session.snapshot())
        store.close()

        # The restarted worker reopens the store cold.
        reopened = CheckpointStore(tmp_path / "ckpt")
        stored = reopened.load("worker-0")
        assert stored is not None
        revived = PhaseSession.from_snapshot(
            stored.checkpoint, session_id="worker-0"
        )
        reopened.close()

        left = _feed(session, series[50:], start=50)
        right = _feed(revived, series[50:], start=50)
        assert left == right
        assert revived.snapshot() == session.snapshot()

    def test_replay_trace_with_trained_state_matches_offline(
        self, make_artifact
    ):
        artifact = make_artifact()
        events = load_trace(FIXTURE_TRACE)
        config = SessionConfig.from_payload(session_config_params(artifact))
        report = replay_trace(
            events, config, predictor_state=dict(artifact.state)
        )
        assert report.matches_offline
        assert report.samples > 0

    def test_replay_with_mid_stream_snapshot(self, make_artifact):
        artifact = make_artifact()
        events = load_trace(FIXTURE_TRACE)
        config = SessionConfig.from_payload(session_config_params(artifact))
        report = replay_trace(
            events,
            config,
            snapshot_at=40,
            predictor_state=dict(artifact.state),
        )
        assert report.snapshot_at == 40
        assert report.matches_offline


class TestLearnedSessionConfig:
    def test_learned_tree_payload_round_trip(self):
        config = SessionConfig(governor="learned_tree", history_length=6)
        assert SessionConfig.from_payload(config.to_payload()) == config

    def test_markov_payload_round_trip(self):
        config = SessionConfig(
            governor="markov", markov_order=2, markov_alpha=0.25
        )
        assert SessionConfig.from_payload(config.to_payload()) == config

    def test_markov_alpha_type_is_validated(self):
        with pytest.raises(ConfigurationError, match="markov_alpha"):
            SessionConfig.from_payload({"markov_alpha": "0.5"})
        with pytest.raises(ConfigurationError, match="markov_alpha"):
            SessionConfig.from_payload({"markov_alpha": True})

    def test_unknown_fields_still_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown session"):
            SessionConfig.from_payload(
                {"governor": "markov", "markov_beta": 1.0}
            )

    def test_untrained_learned_governors_serve_from_scratch(self):
        # Without an artifact the learned governors still serve (the
        # tree falls back to last-value; markov learns online).
        for governor in ("learned_tree", "markov"):
            session = PhaseSession(SessionConfig(governor=governor))
            outcomes = _feed(session, _live_series()[:30])
            assert len(outcomes) == 30
