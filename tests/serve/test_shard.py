"""Sharded multi-worker server: routing, aggregation, failure isolation."""

import json
import socket

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.serve import (
    ShardedServer,
    aggregate_stats,
    handle_request,
    merge_metrics,
    mint_shard_session_id,
    shard_for,
    worker_ceilings,
)
from repro.serve import shard as shard_module
from repro.serve.manager import SessionManager
from repro.serve.protocol import MAX_LINE_BYTES


class TestShardFor:
    def test_stable_across_calls(self):
        assert shard_for("s1", 4) == shard_for("s1", 4)

    def test_known_values_pinned(self):
        # The mapping is part of the wire contract (state never
        # migrates), so pin concrete values: any change breaks every
        # deployed topology.
        assert shard_for("s1", 2) == 0
        assert shard_for("s2", 2) == 0
        assert shard_for("s3", 2) == 0
        assert shard_for("s1x1", 2) == 1

    def test_in_range_and_reasonably_balanced(self):
        workers = 4
        counts = [0] * workers
        for i in range(1000):
            counts[shard_for(f"s{i}", workers)] += 1
        assert all(count > 100 for count in counts)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            shard_for("s1", 0)


class TestMintShardSessionId:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    def test_minted_ids_hash_home(self, workers):
        for shard in range(workers):
            for seq in range(1, 20):
                minted = mint_shard_session_id(seq, shard, workers)
                assert shard_for(minted, workers) == shard

    def test_single_worker_keeps_plain_ids(self):
        assert mint_shard_session_id(1, 0, 1) == "s1"
        assert mint_shard_session_id(7, 0, 1) == "s7"

    def test_distinct_within_a_shard(self):
        minted = {mint_shard_session_id(seq, 1, 4) for seq in range(1, 50)}
        assert len(minted) == 49

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ConfigurationError, match="shard"):
            mint_shard_session_id(1, 2, 2)


class TestWorkerCeilings:
    def test_sums_to_global(self):
        assert sum(worker_ceilings(64, 4)) == 64
        assert sum(worker_ceilings(10, 3)) == 10

    def test_remainder_spread_evenly(self):
        assert worker_ceilings(10, 3) == [4, 3, 3]

    def test_rejects_too_small_global(self):
        with pytest.raises(ConfigurationError, match="max_sessions"):
            worker_ceilings(3, 4)


class TestMergeMetrics:
    def test_counters_and_gauges_sum(self):
        merged = merge_metrics(
            [
                {"c": {"kind": "counter", "value": 2.0},
                 "g": {"kind": "gauge", "value": 1.0}},
                {"c": {"kind": "counter", "value": 3.0},
                 "g": {"kind": "gauge", "value": 4.0}},
            ]
        )
        assert merged["c"]["value"] == 5.0
        assert merged["g"]["value"] == 5.0

    def test_histograms_pool(self):
        merged = merge_metrics(
            [
                {"h": {"kind": "histogram", "count": 2.0, "total": 3.0,
                       "min": 1.0, "max": 2.0, "mean": 1.5}},
                {"h": {"kind": "histogram", "count": 1.0, "total": 5.0,
                       "min": 5.0, "max": 5.0, "mean": 5.0}},
            ]
        )
        assert merged["h"] == {
            "kind": "histogram",
            "count": 3.0,
            "total": 8.0,
            "min": 1.0,
            "max": 5.0,
            "mean": pytest.approx(8.0 / 3.0),
        }

    def test_empty_histogram_does_not_poison_min(self):
        # to_dict() reports min/max as 0.0 for empty histograms; that
        # sentinel must not survive the merge as a fake observation.
        merged = merge_metrics(
            [
                {"h": {"kind": "histogram", "count": 0.0, "total": 0.0,
                       "min": 0.0, "max": 0.0, "mean": 0.0}},
                {"h": {"kind": "histogram", "count": 2.0, "total": 6.0,
                       "min": 2.0, "max": 4.0, "mean": 3.0}},
            ]
        )
        assert merged["h"]["min"] == 2.0

    def test_conflicting_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicting"):
            merge_metrics(
                [
                    {"x": {"kind": "counter", "value": 1.0}},
                    {"x": {"kind": "gauge", "value": 1.0}},
                ]
            )


class TestAggregateStats:
    def _worker_stats(self, manager):
        return handle_request(manager, {"op": "stats"})["stats"]

    def test_sums_real_worker_payloads(self):
        managers = [SessionManager(max_sessions=3) for _ in range(2)]
        for manager in managers:
            handle_request(manager, {"op": "hello"})
        merged = aggregate_stats([self._worker_stats(m) for m in managers])
        assert merged["workers"] == 2
        assert merged["workers_alive"] == 2
        assert merged["sessions_active"] == 2
        assert merged["max_sessions"] == 6
        assert merged["metrics"]["serve.sessions_opened"]["value"] == 2.0

    def test_dead_workers_keep_their_slot(self):
        manager = SessionManager(max_sessions=3)
        merged = aggregate_stats([None, self._worker_stats(manager)])
        assert merged["workers"] == 2
        assert merged["workers_alive"] == 1
        assert merged["per_worker"][0] is None
        assert merged["per_worker"][1] is not None


class _Client:
    """Blocking line client for end-to-end router tests."""

    def __init__(self, port):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, **request):
        self._file.write(json.dumps(request) + "\n")
        self._file.flush()
        return json.loads(self._file.readline())

    def close(self):
        self._sock.close()


@pytest.fixture(scope="module")
def sharded():
    server = ShardedServer(workers=2, max_sessions=8)
    port = server.start()
    yield server, port
    server.stop()


class TestShardedServerEndToEnd:
    def test_sessions_distribute_and_hash_home(self, sharded):
        server, port = sharded
        client = _Client(port)
        try:
            sessions = [client.rpc(op="hello")["session"] for _ in range(4)]
            shards = {shard_for(session, 2) for session in sessions}
            assert shards == {0, 1}  # round-robin hit both workers
            for session in sessions:
                response = client.rpc(
                    op="sample", session=session, interval=0, mem_per_uop=0.001
                )
                assert response["ok"] is True, response
            for session in sessions:
                assert client.rpc(op="bye", session=session)["ok"]
        finally:
            client.close()

    def test_batched_outcomes_match_in_process_session(self, sharded):
        server, port = sharded
        series = [0.001, 0.02, 0.05, 0.02, 0.001, 0.06]
        reference = SessionManager(max_sessions=1)
        ref_session = handle_request(reference, {"op": "hello"})["session"]
        expected = handle_request(
            reference,
            {
                "op": "sample_batch",
                "session": ref_session,
                "start_interval": 0,
                "samples": series,
            },
        )["outcomes"].rows()
        client = _Client(port)
        try:
            session = client.rpc(op="hello")["session"]
            response = client.rpc(
                op="sample_batch",
                session=session,
                start_interval=0,
                samples=series,
            )
            assert response["ok"] is True, response
            assert response["outcomes"] == expected
            client.rpc(op="bye", session=session)
        finally:
            client.close()

    def test_aggregated_stats_fan_in(self, sharded):
        server, port = sharded
        client = _Client(port)
        try:
            sessions = [client.rpc(op="hello")["session"] for _ in range(2)]
            response = client.rpc(op="stats")
            assert response["ok"] is True
            stats = response["stats"]
            assert stats["workers"] == 2
            assert stats["workers_alive"] == 2
            assert stats["max_sessions"] == 8  # per-worker ceilings sum
            assert stats["sessions_active"] >= 2
            assert len(stats["per_worker"]) == 2
            for session in sessions:
                client.rpc(op="bye", session=session)
        finally:
            client.close()

    def test_per_session_stats_route_by_hash(self, sharded):
        server, port = sharded
        client = _Client(port)
        try:
            session = client.rpc(op="hello")["session"]
            response = client.rpc(op="stats", session=session)
            assert response["ok"] is True
            assert response["stats"]["session"] == session
            client.rpc(op="bye", session=session)
        finally:
            client.close()

    def test_malformed_json_answered_by_router(self, sharded):
        server, port = sharded
        client = _Client(port)
        try:
            client._file.write("{nope\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"] == "bad_request"
        finally:
            client.close()

    def test_full_batch_matches_in_process_session(
        self, sharded, full_batch
    ):
        # Request and answer lines are both over asyncio's default
        # 64 KiB limit, on the client link and on the worker link.
        server, port = sharded
        samples, expected = full_batch
        client = _Client(port)
        try:
            session = client.rpc(op="hello")["session"]
            response = client.rpc(
                op="sample_batch",
                session=session,
                start_interval=0,
                samples=samples,
            )
            assert response["ok"] is True, response
            assert response["outcomes"] == expected
            assert client.rpc(op="bye", session=session)["ok"]
        finally:
            client.close()

    def test_over_limit_line_answered_once_by_router(self, sharded):
        server, port = sharded
        client = _Client(port)
        try:
            filler = "0.0123456789," * (2 * MAX_LINE_BYTES // 13)
            client._file.write(
                '{"op":"sample_batch","session":"s1","start_interval":0,'
                '"samples":[' + filler + "0.1]}\n"
            )
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["error"] == "bad_request"
            assert client.rpc(op="stats")["ok"] is True
        finally:
            client.close()


class TestWorkerAnswerOverrun:
    """A worker answer longer than the router's line limit.

    The router cannot carry it: it answers ``internal`` naming the
    limit, drops the worker link it left mid-line, and the next request
    on the same client connection opens a fresh link.
    """

    def test_answers_internal_and_reopens_the_link(self, monkeypatch):
        # At 2 KiB a 200-row batch answer is over the limit while the
        # request (short sample values) is not.
        monkeypatch.setattr(shard_module, "MAX_LINE_BYTES", 2048)
        server = ShardedServer(workers=2, max_sessions=8)
        port = server.start()
        client = _Client(port)
        try:
            session = client.rpc(op="hello")["session"]
            response = client.rpc(
                op="sample_batch",
                session=session,
                start_interval=0,
                samples=[0.05] * 200,
            )
            assert response["ok"] is False, response
            assert response["error"] == "internal"
            assert "2048-byte limit" in response["message"]
            stats = client.rpc(op="stats", session=session)
            assert stats["ok"] is True, stats
            assert stats["stats"]["samples"] == 200
            assert client.rpc(op="bye", session=session)["ok"] is True
        finally:
            client.close()
            server.stop()


class TestWorkerDeath:
    """Worker failure degrades one shard; the others keep serving.

    Module-scoped server can't be reused here — killing a worker is
    destructive — so this test pays for its own topology.
    """

    def test_dead_shard_isolated(self):
        server = ShardedServer(workers=2, max_sessions=8)
        port = server.start()
        try:
            client = _Client(port)
            # Open sessions on both shards.
            by_shard = {}
            while len(by_shard) < 2:
                session = client.rpc(op="hello")["session"]
                by_shard[shard_for(session, 2)] = session
            server.kill_worker(0)
            dead = client.rpc(
                op="sample",
                session=by_shard[0],
                interval=0,
                mem_per_uop=0.001,
            )
            assert dead["ok"] is False
            assert dead["error"] == "worker_unavailable"
            assert dead["worker"] == 0
            alive = client.rpc(
                op="sample",
                session=by_shard[1],
                interval=0,
                mem_per_uop=0.001,
            )
            assert alive["ok"] is True, alive
            stats = client.rpc(op="stats")["stats"]
            assert stats["workers_alive"] == 1
            assert stats["per_worker"][0] is None
            assert server.metrics.counter("serve.workers_died").value == 1
            client.close()
        finally:
            server.stop()

    def test_placement_skips_dead_workers(self):
        # Regression: round-robin placement used to cycle through dead
        # shards too, bouncing every other hello off a known-dead
        # worker while the live one had free capacity.
        server = ShardedServer(workers=2, max_sessions=8)
        port = server.start()
        try:
            client = _Client(port)
            server.kill_worker(0)
            sessions = []
            for _ in range(4):
                response = client.rpc(op="hello")
                assert response["ok"] is True, response
                sessions.append(response["session"])
            assert {shard_for(s, 2) for s in sessions} == {1}
            for session in sessions:
                assert client.rpc(op="bye", session=session)["ok"]
            client.close()
        finally:
            server.stop()

    def test_no_live_workers_is_a_clean_error(self):
        server = ShardedServer(workers=2, max_sessions=8)
        port = server.start()
        try:
            client = _Client(port)
            server.kill_worker(0)
            server.kill_worker(1)
            response = client.rpc(op="hello")
            assert response["ok"] is False
            assert response["error"] == "worker_unavailable"
            assert response["recovering"] is False
            client.close()
        finally:
            server.stop()


class TestRouterLifecycle:
    def test_bind_conflict_raises_clean_error(self):
        # Regression: a router bind failure used to be swallowed by the
        # router thread and surface as `assert self._router_port is not
        # None` — an AssertionError with no hint of the real cause.
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            busy_port = blocker.getsockname()[1]
            server = ShardedServer(workers=1, port=busy_port)
            with pytest.raises(ReproError, match="router failed to start"):
                server.start()
            server.stop()
        finally:
            blocker.close()

    def test_bind_conflict_is_named_before_stop(self, capsys, monkeypatch):
        # stop() joins the workers, and a caller interrupted there never
        # sees the ReproError: the cause must already be on stderr.
        blocker = socket.socket()
        server = None
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            server = ShardedServer(workers=1, port=blocker.getsockname()[1])

            def interrupted_stop():
                raise KeyboardInterrupt

            monkeypatch.setattr(server, "stop", interrupted_stop)
            with pytest.raises(KeyboardInterrupt):
                server.start()
            err = capsys.readouterr().err
            assert "router failed to start" in err
            assert "address already in use" in err
        finally:
            if server is not None:
                ShardedServer.stop(server)
            blocker.close()

    def test_router_without_a_socket_names_that_case(self, monkeypatch):
        monkeypatch.setattr(
            ShardedServer, "_thread_main", lambda self: self._started.set()
        )
        server = ShardedServer(workers=1)
        try:
            with pytest.raises(ReproError, match="no listening socket"):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent_and_server_restartable(self):
        # Regression: stop() used to leave _thread/_procs/_worker_ports
        # populated, so a second start() hit "already started" and a
        # stopped server could never come back.
        server = ShardedServer(workers=2, max_sessions=8)
        try:
            server.start()
            server.stop()
            server.stop()  # idempotent
            port = server.start()
            client = _Client(port)
            response = client.rpc(op="hello")
            assert response["ok"] is True, response
            assert client.rpc(op="bye", session=response["session"])["ok"]
            client.close()
        finally:
            server.stop()

    def test_restartable_after_failed_start(self):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            busy_port = blocker.getsockname()[1]
            server = ShardedServer(workers=1, port=busy_port)
            with pytest.raises(ReproError):
                server.start()
        finally:
            blocker.close()
        server._port = 0  # any free port this time
        port = server.start()
        try:
            client = _Client(port)
            assert client.rpc(op="hello")["ok"] is True
            client.close()
        finally:
            server.stop()
