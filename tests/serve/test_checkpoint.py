"""Lossless predictor/session checkpointing and the durable store."""

import json

import pytest

from repro.core.predictors import (
    FixedWindowPredictor,
    GPHTPredictor,
    LastValuePredictor,
    PhaseObservation,
    PhasePredictor,
    VariableWindowPredictor,
)
from repro.errors import ConfigurationError
from repro.serve import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    PhaseSession,
    SessionConfig,
    checkpoint_from_json,
    checkpoint_to_json,
    validate_checkpoint,
)

SERIES = [0.001, 0.02, 0.001, 0.05, 0.02, 0.001, 0.02, 0.05] * 4


def _observe(predictor, phases):
    for phase in phases:
        predictor.observe(PhaseObservation(phase=phase, mem_per_uop=0.01))


class TestPredictorState:
    @pytest.mark.parametrize(
        "factory",
        [
            LastValuePredictor,
            lambda: FixedWindowPredictor(4),
            lambda: GPHTPredictor(4, 8),
        ],
    )
    def test_export_restore_continues_identically(self, factory):
        phases = [1, 2, 1, 3, 2, 1, 2, 3, 1, 1, 2, 3]
        trained = factory()
        _observe(trained, phases)
        clone = factory()
        clone.restore_state(trained.export_state())
        for phase in [2, 1, 3, 2, 1]:
            _observe(trained, [phase])
            _observe(clone, [phase])
            assert trained.predict() == clone.predict()

    def test_export_is_idempotent_after_restore(self):
        trained = GPHTPredictor(4, 8)
        _observe(trained, [1, 2, 1, 3, 2, 1, 2, 3])
        clone = GPHTPredictor(4, 8)
        clone.restore_state(trained.export_state())
        assert clone.export_state() == trained.export_state()

    def test_gpht_restore_rejects_config_mismatch(self):
        state = GPHTPredictor(4, 8).export_state()
        with pytest.raises(ConfigurationError):
            GPHTPredictor(8, 8).restore_state(state)
        with pytest.raises(ConfigurationError):
            GPHTPredictor(4, 16).restore_state(state)

    def test_restore_rejects_foreign_state(self):
        with pytest.raises(ConfigurationError):
            LastValuePredictor().restore_state(
                GPHTPredictor(4, 8).export_state()
            )

    def test_unsupported_predictor_raises(self):
        # The whole built-in zoo supports checkpointing now; the
        # base-class default (for third-party predictors that never
        # implement the contract) must keep raising loudly.
        class _NoCheckpoint(PhasePredictor):
            name = "no_checkpoint"

            def observe(self, observation):
                pass

            def predict(self):
                return 1

            def reset(self):
                pass

        predictor = _NoCheckpoint()
        with pytest.raises(ConfigurationError, match="checkpointing"):
            predictor.export_state()
        with pytest.raises(ConfigurationError, match="checkpointing"):
            predictor.restore_state({})

    def test_variable_window_supports_checkpointing(self):
        trained = VariableWindowPredictor(16, 0.005)
        _observe(trained, [1, 2, 1, 3, 2, 1, 2, 3])
        clone = VariableWindowPredictor(16, 0.005)
        clone.restore_state(trained.export_state())
        assert clone.export_state() == trained.export_state()

    @pytest.mark.parametrize(
        "text",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "huge_int"],
    )
    def test_variable_window_rejects_non_finite_last_metric(self, text):
        state = VariableWindowPredictor(16, 0.005).export_state()
        state["last_metric"] = json.loads(text)
        with pytest.raises(ConfigurationError, match="finite"):
            VariableWindowPredictor(16, 0.005).restore_state(state)


class TestSessionSnapshot:
    @pytest.mark.parametrize(
        "governor", ["gpht", "reactive", "fixed_window"]
    )
    def test_restore_continues_bit_for_bit(self, governor):
        config = SessionConfig(governor=governor)
        session = PhaseSession(config)
        for index, value in enumerate(SERIES[:16]):
            session.feed(index, value)
        restored = PhaseSession.from_snapshot(session.snapshot())
        for index, value in enumerate(SERIES[16:], start=16):
            assert session.feed(index, value) == restored.feed(index, value)
        assert session.snapshot() == restored.snapshot()

    def test_snapshot_survives_json_round_trip(self):
        session = PhaseSession()
        for index, value in enumerate(SERIES[:10]):
            session.feed(index, value)
        checkpoint = checkpoint_from_json(checkpoint_to_json(session.snapshot()))
        assert checkpoint == session.snapshot()
        restored = PhaseSession.from_snapshot(checkpoint)
        assert restored.samples == session.samples
        assert restored.stats() == session.stats()

    def test_snapshot_carries_scoring_state(self):
        session = PhaseSession(SessionConfig(governor="reactive"))
        for index in range(6):
            session.feed(index, 0.001)
        restored = PhaseSession.from_snapshot(session.snapshot())
        assert restored.scored == session.scored == 5
        assert restored.correct == session.correct == 5
        assert restored.accuracy == 1.0

    def test_version_mismatch_rejected(self):
        payload = PhaseSession().snapshot()
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            PhaseSession.from_snapshot(payload)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            validate_checkpoint({"version": CHECKPOINT_VERSION})

    def test_corrupt_counter_rejected(self):
        payload = PhaseSession().snapshot()
        payload["samples"] = "three"
        with pytest.raises(ConfigurationError, match="samples"):
            PhaseSession.from_snapshot(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            checkpoint_from_json("{not json")
        with pytest.raises(ConfigurationError, match="object"):
            checkpoint_from_json("[1, 2]")

    # Regression: validate_checkpoint never type-checked `samples`, so
    # a numeric *string* sailed through validation and blew up later
    # (or silently corrupted arithmetic on the counter).
    @pytest.mark.parametrize("bad", ["12", -1, True, 3.5, None])
    def test_non_int_or_negative_samples_rejected(self, bad):
        payload = PhaseSession().snapshot()
        payload["samples"] = bad
        with pytest.raises(ConfigurationError, match="samples"):
            validate_checkpoint(payload)

    def test_zero_samples_accepted(self):
        validate_checkpoint(PhaseSession().snapshot())


def _snapshot(samples=3):
    session = PhaseSession()
    for index in range(samples):
        session.feed(index, SERIES[index])
    return session.snapshot()


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = _snapshot()
        store.save("s1", checkpoint)
        store.flush()
        record = store.load("s1")
        assert record is not None
        assert record.session == "s1"
        assert record.checkpoint == checkpoint

    def test_load_missing_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("nope") is None

    def test_delete_removes_and_tolerates_missing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s1", _snapshot())
        store.delete("s1")
        store.delete("s1")
        store.flush()
        assert store.load("s1") is None
        assert store.sessions() == ()

    def test_load_all_sorted_by_session(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for session_id in ("s2", "s10", "s1x1"):
            store.save(session_id, _snapshot())
        store.flush()
        assert [r.session for r in store.load_all()] == ["s10", "s1x1", "s2"]
        assert store.sessions() == ("s10", "s1x1", "s2")

    def test_hostile_session_ids_stay_inside_root(self, tmp_path):
        store = CheckpointStore(tmp_path)
        hostile = "../escape/attempt"
        store.save(hostile, _snapshot())
        store.flush()
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert store.load(hostile) is not None
        assert store.sessions() == (hostile,)

    def test_invalid_checkpoint_rejected_before_write(self, tmp_path):
        store = CheckpointStore(tmp_path)
        bad = _snapshot()
        bad["samples"] = "12"
        with pytest.raises(ConfigurationError, match="samples"):
            store.save("s1", bad)
        store.flush()
        assert store.load("s1") is None

    def test_corrupt_file_raises_but_load_all_skips(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s1", _snapshot())
        store.flush()
        corrupt = tmp_path / "s2.ckpt.json"
        corrupt.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            store.load("s2")
        assert [r.session for r in store.load_all()] == ["s1"]

    def test_background_writer_flush_and_close(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = _snapshot()
        for index in range(8):
            store.save(f"s{index}", checkpoint)
        store.flush()
        assert len(store.sessions()) == 8
        store.close()
        store.close()  # idempotent
        # A closed store degrades to synchronous writes.
        store.save("late", checkpoint)
        assert store.load("late") is not None

    def test_record_is_versioned_wire_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s1", _snapshot())
        store.flush()
        raw = json.loads((tmp_path / "s1.ckpt.json").read_text("utf-8"))
        assert set(raw) == {"session", "checkpoint"}
        assert raw["session"] == "s1"
        assert raw["checkpoint"]["version"] == CHECKPOINT_VERSION

    def test_empty_session_id_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ConfigurationError, match="session"):
            store.save("", _snapshot())
