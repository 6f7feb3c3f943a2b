"""SessionManager: lifecycle, overload, eviction, durable checkpoints."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.events import SessionClosed, SessionOpened, SessionRestored
from repro.obs.tracer import RingBufferTracer
from repro.serve import (
    MIGRATED_CLOSE_REASON,
    CheckpointStore,
    OverloadedError,
    SessionConfig,
    SessionManager,
    UnknownSessionError,
)


class TestLifecycle:
    def test_open_get_close(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.get(session.session_id) is session
        assert manager.active_sessions == 1
        manager.close(session.session_id)
        assert manager.active_sessions == 0

    def test_ids_are_unique_and_never_reused(self):
        manager = SessionManager()
        first = manager.open()
        manager.close(first.session_id)
        second = manager.open()
        assert first.session_id != second.session_id

    def test_unknown_session_raises(self):
        manager = SessionManager()
        with pytest.raises(UnknownSessionError):
            manager.get("s999")
        with pytest.raises(UnknownSessionError):
            manager.close("s999")

    def test_closed_session_is_gone(self):
        manager = SessionManager()
        session = manager.open()
        manager.close(session.session_id)
        with pytest.raises(UnknownSessionError):
            manager.get(session.session_id)

    def test_restore_opens_a_new_session(self):
        manager = SessionManager()
        original = manager.open(SessionConfig(governor="reactive"))
        for index in range(4):
            original.feed(index, 0.001)
        restored = manager.restore(original.snapshot())
        assert restored.session_id != original.session_id
        assert restored.samples == 4

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionManager(max_sessions=0)
        with pytest.raises(ConfigurationError):
            SessionManager(idle_timeout_s=0.0)


class TestOverload:
    def test_session_ceiling_enforced(self):
        manager = SessionManager(max_sessions=2)
        manager.open()
        manager.open()
        with pytest.raises(OverloadedError):
            manager.open()

    def test_closing_frees_a_slot(self):
        manager = SessionManager(max_sessions=1)
        session = manager.open()
        manager.close(session.session_id)
        assert manager.open() is not None

    def test_restore_respects_the_ceiling(self):
        manager = SessionManager(max_sessions=1)
        session = manager.open()
        checkpoint = session.snapshot()
        with pytest.raises(OverloadedError):
            manager.restore(checkpoint)


class TestIdleEviction:
    def test_idle_sessions_evicted_on_logical_clock(self):
        # No wall clock: time is the request count, one tick per request.
        manager = SessionManager(idle_timeout_s=3)
        idle = manager.open()
        for _ in range(5):
            manager.tick()
        assert manager.evict_idle() == [idle.session_id]
        with pytest.raises(UnknownSessionError):
            manager.get(idle.session_id)

    def test_active_sessions_survive_eviction(self):
        manager = SessionManager(idle_timeout_s=3)
        busy = manager.open()
        for _ in range(5):
            manager.tick()
            manager.get(busy.session_id)  # refreshes the idle timer
        assert manager.evict_idle() == []

    def test_open_sweeps_idle_sessions_first(self):
        manager = SessionManager(max_sessions=1, idle_timeout_s=2)
        stale = manager.open()
        for _ in range(5):
            manager.tick()
        fresh = manager.open()  # evicts the stale one instead of failing
        assert fresh.session_id != stale.session_id
        assert manager.active_sessions == 1

    def test_no_timeout_means_no_eviction(self):
        manager = SessionManager()
        manager.open()
        for _ in range(1000):
            manager.tick()
        assert manager.evict_idle() == []


class TestObservability:
    def test_lifecycle_events_traced(self):
        tracer = RingBufferTracer()
        manager = SessionManager(idle_timeout_s=2, tracer=tracer)
        session = manager.open()
        for _ in range(5):
            manager.tick()
        manager.evict_idle()
        opened = [e for e in tracer.events() if isinstance(e, SessionOpened)]
        closed = [e for e in tracer.events() if isinstance(e, SessionClosed)]
        assert [e.session for e in opened] == [session.session_id]
        assert [(e.session, e.reason) for e in closed] == [
            (session.session_id, "evicted")
        ]

    def test_metrics_track_the_population(self):
        manager = SessionManager()
        a = manager.open()
        manager.open()
        manager.close(a.session_id)
        metrics = manager.metrics
        assert metrics.counter("serve.sessions_opened").value == 2
        assert metrics.counter("serve.sessions_closed").value == 1
        assert metrics.gauge("serve.sessions_active").value == 1.0

    def test_stats_payload(self):
        manager = SessionManager(max_sessions=8)
        manager.open()
        stats = manager.stats()
        assert stats["sessions_active"] == 1
        assert stats["max_sessions"] == 8
        assert isinstance(stats["metrics"], dict)


def _store_manager(tmp_path, cadence=4, **kwargs):
    store = CheckpointStore(tmp_path)
    manager = SessionManager(
        max_sessions=kwargs.pop("max_sessions", 4),
        checkpoint_store=store,
        checkpoint_every=cadence,
        **kwargs,
    )
    return store, manager


def _stored(store, session_id):
    """The durable record once the writer thread has caught up."""
    store.flush()
    return store.load(session_id)


class TestDurableCheckpoints:
    def test_open_writes_the_initial_checkpoint(self, tmp_path):
        store, manager = _store_manager(tmp_path)
        session = manager.open()
        record = _stored(store, session.session_id)
        assert record is not None
        assert record.checkpoint["samples"] == 0

    def test_cadence_gates_checkpoint_writes(self, tmp_path):
        store, manager = _store_manager(tmp_path, cadence=4)
        session = manager.open()
        for index in range(3):
            session.feed(index, 0.02)
            assert manager.maybe_checkpoint(session.session_id) is False
        assert _stored(store, session.session_id).checkpoint["samples"] == 0
        session.feed(3, 0.02)
        assert manager.maybe_checkpoint(session.session_id) is True
        assert _stored(store, session.session_id).checkpoint["samples"] == 4
        assert (
            manager.metrics.counter("serve.checkpoints_written").value == 2
        )

    def test_maybe_checkpoint_without_store_is_a_noop(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.maybe_checkpoint(session.session_id) is False
        assert manager.maybe_checkpoint("s999") is False

    def test_close_deletes_the_checkpoint(self, tmp_path):
        store, manager = _store_manager(tmp_path)
        session = manager.open()
        manager.close(session.session_id)
        assert _stored(store, session.session_id) is None

    def test_migrated_close_keeps_the_checkpoint(self, tmp_path):
        # The target worker's restore takes ownership of the store
        # file; a `migrated` close on the source must not race it with
        # a delete.
        store, manager = _store_manager(tmp_path)
        session = manager.open()
        manager.close(session.session_id, reason=MIGRATED_CLOSE_REASON)
        assert _stored(store, session.session_id) is not None

    def test_eviction_deletes_the_checkpoint(self, tmp_path):
        store, manager = _store_manager(tmp_path, idle_timeout_s=2)
        session = manager.open()
        for _ in range(5):
            manager.tick()
        assert manager.evict_idle() == [session.session_id]
        assert _stored(store, session.session_id) is None

    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            SessionManager(checkpoint_every=-1)


class TestRestoreAs:
    def test_preserves_the_session_id(self):
        manager = SessionManager()
        original = manager.open()
        for index in range(4):
            original.feed(index, 0.02)
        checkpoint = original.snapshot()
        manager.close(original.session_id)
        restored = manager.restore_as(original.session_id, checkpoint)
        assert restored.session_id == original.session_id
        assert restored.samples == 4
        assert manager.get(original.session_id) is restored

    def test_live_id_collision_rejected(self):
        manager = SessionManager()
        session = manager.open()
        with pytest.raises(ConfigurationError, match="already"):
            manager.restore_as(session.session_id, session.snapshot())

    def test_empty_id_rejected(self):
        manager = SessionManager()
        with pytest.raises(ConfigurationError, match="session"):
            manager.restore_as("", manager.open().snapshot())

    def test_minted_ids_never_collide_with_restored_ones(self):
        # Adopting "s3" must push the minting counter past 3, or the
        # next opened session would reuse a restored id.
        manager = SessionManager()
        checkpoint = SessionManager().open().snapshot()
        manager.restore_as("s3", checkpoint)
        fresh = manager.open()
        assert fresh.session_id not in ("s3",)
        assert manager.active_sessions == 2

    def test_respects_the_ceiling(self):
        manager = SessionManager(max_sessions=1)
        checkpoint = SessionManager().open().snapshot()
        manager.open()
        with pytest.raises(OverloadedError):
            manager.restore_as("other", checkpoint)

    def test_emits_session_restored_event(self):
        tracer = RingBufferTracer()
        manager = SessionManager(tracer=tracer)
        donor = SessionManager().open()
        for index in range(3):
            donor.feed(index, 0.02)
        manager.restore_as("s7", donor.snapshot())
        restored = [
            e for e in tracer.events() if isinstance(e, SessionRestored)
        ]
        assert [(e.session, e.samples) for e in restored] == [("s7", 3)]
