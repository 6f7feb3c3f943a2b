"""Self-healing serving: checkpoint recovery, auto-restart, migration.

The property at the center (the paper-style losslessness claim,
promoted to the failure domain): for any kill point, a session restored
from its last durable checkpoint and replayed over the remaining stream
ends in a state *bit-identical* to an uninterrupted twin fed the same
stream.  The tests assert it at three levels — manager+store in one
process (hypothesis, any cadence/kill point), a real sharded server
with a killed and auto-restarted worker, and the load generator's chaos
mode, whose outcome digest must equal an undisturbed run's.
"""

import json
import socket
import tempfile
import threading
import time

from hypothesis import given, settings, strategies as st

from repro.serve import (
    ChaosEvent,
    ChaosSchedule,
    ShardedServer,
    aggregate_stats,
    handle_request,
    run_loadgen,
    shard_for,
)
from repro.serve.checkpoint import CheckpointStore
from repro.serve.manager import SessionManager
from repro.serve.session import PhaseSession, SessionConfig
from repro.serve.shard import _adopt_shard_sessions

mem_values = st.sampled_from([0.001, 0.011, 0.02, 0.03, 0.045, 0.06])


def _feed(manager, session_id, series, start=0):
    for index, value in enumerate(series[start:], start):
        response = handle_request(
            manager,
            {
                "op": "sample",
                "session": session_id,
                "interval": index,
                "mem_per_uop": value,
            },
        )
        assert response["ok"], response


class TestCrashReplayProperty:
    @given(
        series=st.lists(mem_values, min_size=2, max_size=48),
        cadence=st.integers(min_value=1, max_value=16),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_post_replay_snapshot_bit_identical_to_twin(
        self, series, cadence, cut
    ):
        kill_at = int(len(series) * cut)
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root)
            manager = SessionManager(
                max_sessions=4, checkpoint_store=store, checkpoint_every=cadence
            )
            session_id = handle_request(manager, {"op": "hello"})["session"]
            _feed(manager, session_id, series[:kill_at])
            store.flush()

            # Crash: the manager (worker process) is simply abandoned.
            # A replacement adopts the session from its last durable
            # checkpoint and the client replays from the restored count.
            successor = SessionManager(
                max_sessions=4, checkpoint_store=store, checkpoint_every=cadence
            )
            record = store.load(session_id)
            assert record is not None  # hello wrote the initial checkpoint
            restored = successor.restore_as(session_id, record.checkpoint)
            assert restored.samples <= kill_at  # replay window, never ahead
            _feed(manager=successor, session_id=session_id, series=series,
                  start=restored.samples)

            twin = SessionManager(max_sessions=4)
            twin_id = handle_request(twin, {"op": "hello"})["session"]
            _feed(twin, twin_id, series)

            recovered = successor.get(session_id).snapshot()
            straight = twin.get(twin_id).snapshot()
            store.close()
            assert recovered == straight


class _Client:
    def __init__(self, port):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, **request):
        self._file.write(json.dumps(request) + "\n")
        self._file.flush()
        return json.loads(self._file.readline())

    def close(self):
        self._sock.close()


def _await_recovery(client, session_id, attempts=400, delay=0.05):
    """Poll a session's stats until its restarted worker answers."""
    for _ in range(attempts):
        response = client.rpc(op="stats", session=session_id)
        if response.get("ok"):
            return response["stats"]["samples"]
        assert response["error"] in ("worker_unavailable", "worker_recovering")
        time.sleep(delay)
    raise AssertionError("session never recovered")


class TestAutoRestart:
    def test_kill_restart_replay_matches_uninterrupted_twin(self):
        series = [0.001, 0.02, 0.06, 0.02, 0.001, 0.045, 0.03, 0.011] * 4
        server = ShardedServer(
            workers=2, max_sessions=8, auto_restart=True, checkpoint_every=4
        )
        port = server.start()
        try:
            client = _Client(port)
            session = client.rpc(op="hello")["session"]
            fed = 20
            for index in range(fed):
                assert client.rpc(
                    op="sample", session=session, interval=index,
                    mem_per_uop=series[index],
                )["ok"]
            server.kill_worker(shard_for(session, 2))
            resumed = _await_recovery(client, session)
            assert 0 < resumed <= fed  # restored from a checkpoint, not lost
            for index in range(resumed, len(series)):
                assert client.rpc(
                    op="sample", session=session, interval=index,
                    mem_per_uop=series[index],
                )["ok"]
            snapshot = client.rpc(op="snapshot", session=session)["checkpoint"]

            twin = SessionManager(max_sessions=1)
            twin_id = handle_request(twin, {"op": "hello"})["session"]
            _feed(twin, twin_id, series)
            assert snapshot == json.loads(
                json.dumps(twin.get(twin_id).snapshot())
            )
            stats = client.rpc(op="stats")["stats"]
            assert stats["workers_alive"] == 2
            assert stats["workers_recovering"] == 0
            assert server.metrics.counter("serve.worker_restarts").value == 1
            client.close()
        finally:
            server.stop()

    def test_recovering_error_code_is_transient(self):
        server = ShardedServer(workers=1, auto_restart=True)
        port = server.start()
        try:
            client = _Client(port)
            session = client.rpc(op="hello")["session"]
            server.kill_worker(0)
            # The first failed forward marks the worker down and kicks
            # the restart; until it finishes, responses carry one of
            # the two transient codes with the `recovering` detail.
            response = client.rpc(
                op="sample", session=session, interval=0, mem_per_uop=0.02
            )
            assert response["ok"] is False
            assert response["error"] in (
                "worker_unavailable", "worker_recovering"
            )
            assert response["recovering"] in (True, False)
            resumed = _await_recovery(client, session)
            assert resumed == 0
            client.close()
        finally:
            server.stop()


class TestChaosLoadgen:
    def test_chaos_digest_equals_undisturbed_digest(self):
        kwargs = dict(
            sessions=4, samples_per_session=160, batch_size=8,
            connections=1, seed=11,
        )
        server = ShardedServer(workers=2, auto_restart=True)
        port = server.start()
        clean = run_loadgen("127.0.0.1", port, **kwargs)
        server.stop()
        assert clean.errors == 0

        server = ShardedServer(workers=2, auto_restart=True)
        port = server.start()
        chaos = ChaosSchedule(
            server.kill_worker, [ChaosEvent(15, 0), ChaosEvent(55, 1)]
        )
        try:
            result = run_loadgen("127.0.0.1", port, chaos=chaos, **kwargs)
        finally:
            server.stop()
        assert len(chaos.fired) == 2
        assert result.errors == 0
        assert result.recoveries >= 1
        assert result.replayed_samples >= 1
        assert result.outcome_digest == clean.outcome_digest

    def test_kill_during_verify_epilogue_replays_and_reverifies(self):
        # A 1-session/48-sample/batch-8 run finishes feeding by request
        # 8, so a kill at request 10 lands *inside* the verify epilogue.
        # The restarted worker adopts the session from its last
        # checkpoint (32 samples); the epilogue must report the rollback
        # so the driver replays the tail and verifies again, instead of
        # counting sample-count mismatches as errors.
        kwargs = dict(
            sessions=1, samples_per_session=48, batch_size=8,
            connections=1, seed=3,
        )
        server = ShardedServer(workers=2, auto_restart=True)
        port = server.start()
        clean = run_loadgen("127.0.0.1", port, **kwargs)
        server.stop()
        assert clean.errors == 0

        server = ShardedServer(workers=2, auto_restart=True)
        port = server.start()
        chaos = ChaosSchedule(server.kill_worker, [ChaosEvent(10, 0)])
        try:
            result = run_loadgen("127.0.0.1", port, chaos=chaos, **kwargs)
        finally:
            server.stop()
        assert len(chaos.fired) == 1
        assert result.errors == 0
        assert result.recoveries >= 1
        assert result.replayed_samples >= 1
        assert result.outcome_digest == clean.outcome_digest


class TestMigration:
    def test_round_trip_under_concurrent_traffic(self):
        series = [0.001, 0.02, 0.06, 0.02, 0.001, 0.045, 0.03, 0.011] * 3
        server = ShardedServer(workers=2, max_sessions=8)
        port = server.start()
        try:
            client = _Client(port)
            moving = client.rpc(op="hello")["session"]
            noisy = client.rpc(op="hello")["session"]
            home = shard_for(moving, 2)

            stop = threading.Event()
            noise_errors = []

            def hammer():
                other = _Client(port)
                index = 0
                while not stop.is_set():
                    response = other.rpc(
                        op="sample", session=noisy, interval=index,
                        mem_per_uop=0.02,
                    )
                    if not response.get("ok"):
                        noise_errors.append(response)
                        break
                    index += 1
                other.close()

            noise = threading.Thread(target=hammer)
            noise.start()
            try:
                index = 0
                for hop, target in enumerate([1 - home, home, 1 - home]):
                    for _ in range(4):
                        assert client.rpc(
                            op="sample", session=moving, interval=index,
                            mem_per_uop=series[index],
                        )["ok"]
                        index += 1
                    migrated = client.rpc(
                        op="migrate", session=moving, worker=target
                    )
                    assert migrated["ok"], migrated
                    assert migrated["to_worker"] == target
                    assert migrated["samples"] == index
                for index in range(index, len(series)):
                    assert client.rpc(
                        op="sample", session=moving, interval=index,
                        mem_per_uop=series[index],
                    )["ok"]
            finally:
                stop.set()
                noise.join(timeout=30)
            assert not noise_errors

            # The migrated session is bit-identical to a never-moved twin.
            snapshot = client.rpc(op="snapshot", session=moving)["checkpoint"]
            twin = SessionManager(max_sessions=1)
            twin_id = handle_request(twin, {"op": "hello"})["session"]
            _feed(twin, twin_id, series)
            assert snapshot == json.loads(
                json.dumps(twin.get(twin_id).snapshot())
            )
            assert (
                server.metrics.counter("serve.sessions_migrated").value == 3
            )
            client.close()
        finally:
            server.stop()

    def test_migrate_to_same_worker_is_a_noop(self):
        server = ShardedServer(workers=2)
        port = server.start()
        try:
            client = _Client(port)
            session = client.rpc(op="hello")["session"]
            home = shard_for(session, 2)
            response = client.rpc(op="migrate", session=session, worker=home)
            assert response["ok"] is True
            assert response["migrated"] is False
            client.close()
        finally:
            server.stop()

    def test_migrate_validates_fields(self):
        server = ShardedServer(workers=2)
        port = server.start()
        try:
            client = _Client(port)
            assert client.rpc(op="migrate")["error"] == "bad_request"
            assert (
                client.rpc(op="migrate", session="s1", worker=9)["error"]
                == "bad_request"
            )
            assert (
                client.rpc(op="migrate", session="s1", extra=1)["error"]
                == "bad_request"
            )
            # Unknown (but valid-looking) session: the source worker
            # answers unknown_session and the router propagates it.
            missing = client.rpc(op="migrate", session="s999")
            assert missing["error"] == "unknown_session"
            client.close()
        finally:
            server.stop()


class TestWorkerBootAdoption:
    def test_adopts_records_that_carry_a_protocol(self, tmp_path):
        # Stores written while sessions were pinned to a protocol
        # version carry a "protocol" key in every record.  Boot adopts
        # them all, and no adopted session is held to version 1.
        series = [(0.001, 0.0), (0.02, 0.0), (0.05, 0.0), (0.02, 0.0)]
        tail = [0.06, 0.001, 0.001]
        expected = {}
        for session_id, version in (("s1", 1), ("s4", 1), ("s5", 2), ("s6", None)):
            session = PhaseSession(session_id=session_id)
            session.feed_batch(0, series)
            record = {
                "checkpoint": session.snapshot(),
                "protocol": version,
                "session": session_id,
            }
            (tmp_path / f"{session_id}.ckpt.json").write_text(
                json.dumps(record, sort_keys=True, separators=(",", ":")),
                encoding="utf-8",
            )
            rows = session.feed_batch(
                len(series), [(value, 0.0) for value in tail]
            ).rows()
            expected[session_id] = json.loads(json.dumps(rows))
        assert {shard_for(session_id, 2) for session_id in expected} == {0, 1}

        server = ShardedServer(
            workers=2, checkpoint_dir=str(tmp_path), checkpoint_every=4
        )
        port = server.start()
        try:
            client = _Client(port)
            for session_id, rows in expected.items():
                response = client.rpc(
                    op="sample_batch",
                    session=session_id,
                    start_interval=len(series),
                    samples=tail,
                )
                assert response["ok"] is True, response
                assert response["outcomes"] == rows
            client.close()
        finally:
            server.stop()

    def test_skips_records_it_cannot_restore(self, tmp_path):
        # One good fixed_window record among records a worker cannot
        # restore: windows past MAX_WINDOW_SIZE (2**63 once crashed the
        # boot with OverflowError), a torn write and a stray temp file.
        good = PhaseSession(SessionConfig(governor="fixed_window"))
        good.feed_batch(0, [(0.001, 0.0), (0.02, 0.0), (0.05, 0.0)])
        store = CheckpointStore(tmp_path)
        store.save("good", good.snapshot())
        for session_id, size in (("huge", 2**63), ("wide", 2000)):
            checkpoint = good.snapshot()
            checkpoint["config"]["window_size"] = size
            checkpoint["predictor"]["window_size"] = size
            store.save(session_id, checkpoint)
        store.close()
        record = (tmp_path / "good.ckpt.json").read_text(encoding="utf-8")
        (tmp_path / "torn.ckpt.json").write_text(
            record[: len(record) // 2], encoding="utf-8"
        )
        (tmp_path / "stray.ckpt.json.tmp").write_text(
            record, encoding="utf-8"
        )

        manager = SessionManager()
        store = CheckpointStore(tmp_path)
        try:
            assert _adopt_shard_sessions(manager, store, 0, 1, {}) == 1
        finally:
            store.close()
        assert manager.session_ids() == ("good",)
        assert manager.get("good").snapshot() == good.snapshot()

        server = ShardedServer(workers=1, checkpoint_dir=str(tmp_path))
        port = server.start()
        try:
            client = _Client(port)
            response = client.rpc(op="stats")
            assert response["stats"]["sessions_active"] == 1, response
            response = client.rpc(op="snapshot", session="good")
            assert response["checkpoint"] == good.snapshot(), response
            client.close()
        finally:
            server.stop()


class TestAggregateStatsMidRestart:
    def test_recovering_slot_counted_separately(self):
        manager = SessionManager(max_sessions=3)
        handle_request(manager, {"op": "hello"})
        alive = handle_request(manager, {"op": "stats"})["stats"]
        merged = aggregate_stats([None, alive], recovering=[0])
        assert merged["workers"] == 2
        assert merged["workers_alive"] == 1
        assert merged["workers_recovering"] == 1
        assert merged["sessions_active"] == 1
        assert merged["per_worker"][0] is None

    def test_out_of_range_recovering_indices_ignored(self):
        merged = aggregate_stats([None], recovering=[0, 5, -1])
        assert merged["workers_recovering"] == 1
