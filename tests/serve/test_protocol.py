"""Wire protocol: dispatch, error codes, JSON line handling."""

import json

import pytest

from repro.serve import (
    MAX_GPHR_DEPTH,
    MAX_HISTORY_LENGTH,
    MAX_MARKOV_ORDER,
    MAX_PHT_ENTRIES,
    MAX_WINDOW_SIZE,
    PROTOCOL_VERSION,
    SessionManager,
    handle_line,
    handle_request,
    parse_response,
)
from repro.serve.protocol import MAX_LINE_BYTES


@pytest.fixture
def manager():
    return SessionManager(max_sessions=4)


def hello(manager, **fields):
    response = handle_request(manager, {"op": "hello", **fields})
    assert response["ok"], response
    return response["session"]


class TestHello:
    def test_opens_a_session(self, manager):
        response = handle_request(manager, {"op": "hello"})
        assert response["ok"] is True
        assert response["protocol"] == PROTOCOL_VERSION
        assert response["session"] == "s1"
        assert manager.active_sessions == 1

    def test_accepts_inline_session_config(self, manager):
        response = handle_request(
            manager, {"op": "hello", "governor": "reactive", "policy": "table2"}
        )
        assert response["ok"] and response["governor"] == "reactive"

    def test_rejects_unsupported_protocol(self, manager):
        response = handle_request(manager, {"op": "hello", "protocol": 99})
        assert response["ok"] is False
        assert response["error"] == "unsupported_protocol"

    def test_rejects_unknown_fields(self, manager):
        response = handle_request(manager, {"op": "hello", "turbo": True})
        assert response["error"] == "bad_request"

    def test_configures_every_session_governor(self, manager):
        session = hello(
            manager, governor="markov", markov_order=2, markov_alpha=0.25
        )
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        assert checkpoint["config"]["governor"] == "markov"
        assert checkpoint["config"]["markov_order"] == 2
        assert checkpoint["config"]["markov_alpha"] == 0.25
        tree = hello(manager, governor="learned_tree", history_length=6)
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": tree}
        )["checkpoint"]
        assert checkpoint["config"]["history_length"] == 6

    def test_rejects_bad_config(self, manager):
        response = handle_request(manager, {"op": "hello", "governor": "x"})
        assert response["error"] == "bad_request"

    def test_overload_maps_to_server_overloaded(self, manager):
        for _ in range(4):
            hello(manager)
        response = handle_request(manager, {"op": "hello"})
        assert response["error"] == "server_overloaded"


class TestSample:
    def test_feeds_and_answers(self, manager):
        session = hello(manager)
        response = handle_request(
            manager,
            {
                "op": "sample",
                "session": session,
                "interval": 0,
                "mem_per_uop": 0.001,
            },
        )
        assert response["ok"] is True
        assert response["interval"] == 0
        assert response["phase"] == 1
        assert response["hit"] is None
        assert response["frequency_mhz"] > 0

    def test_out_of_order_is_bad_request(self, manager):
        session = hello(manager)
        response = handle_request(
            manager,
            {
                "op": "sample",
                "session": session,
                "interval": 7,
                "mem_per_uop": 0.001,
            },
        )
        assert response["error"] == "bad_request"

    def test_unknown_session(self, manager):
        response = handle_request(
            manager,
            {"op": "sample", "session": "s77", "interval": 0, "mem_per_uop": 0.1},
        )
        assert response["error"] == "unknown_session"

    def test_missing_field_is_bad_request(self, manager):
        session = hello(manager)
        response = handle_request(
            manager, {"op": "sample", "session": session, "interval": 0}
        )
        assert response["error"] == "bad_request"
        assert "mem_per_uop" in response["message"]

    def test_wrong_types_are_bad_request(self, manager):
        session = hello(manager)
        response = handle_request(
            manager,
            {
                "op": "sample",
                "session": session,
                "interval": True,
                "mem_per_uop": 0.1,
            },
        )
        assert response["error"] == "bad_request"


class TestSnapshotRestore:
    def test_round_trip_over_the_wire(self, manager):
        session = hello(manager)
        for index, value in enumerate([0.001, 0.02, 0.05]):
            handle_request(
                manager,
                {
                    "op": "sample",
                    "session": session,
                    "interval": index,
                    "mem_per_uop": value,
                },
            )
        snapshot = handle_request(manager, {"op": "snapshot", "session": session})
        assert snapshot["ok"] is True
        restored = handle_request(
            manager, {"op": "restore", "checkpoint": snapshot["checkpoint"]}
        )
        assert restored["ok"] is True
        assert restored["samples"] == 3
        assert restored["session"] != session

    def test_restore_rejects_garbage(self, manager):
        response = handle_request(
            manager, {"op": "restore", "checkpoint": {"version": 1}}
        )
        assert response["error"] == "bad_request"
        response = handle_request(manager, {"op": "restore", "checkpoint": 5})
        assert response["error"] == "bad_request"

    def test_snapshot_carries_no_protocol(self, manager):
        session = hello(manager, protocol=1)
        snapshot = handle_request(
            manager, {"op": "snapshot", "session": session}
        )
        assert set(snapshot) == {"ok", "op", "session", "checkpoint"}

    def test_restore_under_explicit_id(self, manager):
        session = hello(manager)
        handle_request(
            manager,
            {
                "op": "sample",
                "session": session,
                "interval": 0,
                "mem_per_uop": 0.02,
            },
        )
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        handle_request(manager, {"op": "bye", "session": session})
        restored = handle_request(
            manager,
            {"op": "restore", "session": session, "checkpoint": checkpoint},
        )
        assert restored["ok"] is True, restored
        assert restored["session"] == session
        assert restored["samples"] == 1

    def test_restore_under_live_id_rejected(self, manager):
        session = hello(manager)
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        response = handle_request(
            manager,
            {"op": "restore", "session": session, "checkpoint": checkpoint},
        )
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    @pytest.mark.parametrize(
        "bad_id", ["", "-leading", "has space", "a" * 65, 7]
    )
    def test_restore_invalid_ids_rejected(self, manager, bad_id):
        session = hello(manager)
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        handle_request(manager, {"op": "bye", "session": session})
        response = handle_request(
            manager,
            {"op": "restore", "session": bad_id, "checkpoint": checkpoint},
        )
        assert response["error"] == "bad_request"


class TestStatsAndBye:
    def test_session_stats(self, manager):
        session = hello(manager)
        response = handle_request(manager, {"op": "stats", "session": session})
        assert response["stats"]["samples"] == 0

    def test_server_stats(self, manager):
        hello(manager)
        response = handle_request(manager, {"op": "stats"})
        assert response["stats"]["sessions_active"] == 1

    def test_bye_closes(self, manager):
        session = hello(manager)
        response = handle_request(manager, {"op": "bye", "session": session})
        assert response["ok"] is True
        assert manager.active_sessions == 0

    def test_bye_accepts_a_close_reason(self, manager):
        session = hello(manager)
        response = handle_request(
            manager, {"op": "bye", "session": session, "reason": "migrated"}
        )
        assert response["ok"] is True
        assert manager.active_sessions == 0

    @pytest.mark.parametrize("bad", ["", "x" * 65, 7, None])
    def test_bye_rejects_malformed_reasons(self, manager, bad):
        session = hello(manager)
        response = handle_request(
            manager, {"op": "bye", "session": session, "reason": bad}
        )
        assert response["error"] == "bad_request"
        assert manager.active_sessions == 1  # session untouched


class TestDispatch:
    def test_unknown_op(self, manager):
        response = handle_request(manager, {"op": "reboot"})
        assert response["error"] == "bad_request"

    def test_missing_op(self, manager):
        response = handle_request(manager, {})
        assert response["error"] == "bad_request"

    def test_every_request_ticks_the_logical_clock(self, manager):
        before = manager.now()
        handle_request(manager, {"op": "stats"})
        handle_request(manager, {"op": "nope"})
        assert manager.now() == before + 2

    def test_errors_counted(self, manager):
        handle_request(manager, {"op": "nope"})
        assert manager.metrics.counter("serve.errors").value == 1


class TestHandleLine:
    def test_round_trip(self, manager):
        line = handle_line(manager, json.dumps({"op": "hello"}))
        ok, payload = parse_response(line)
        assert ok and payload["session"] == "s1"

    def test_invalid_json_is_bad_request(self, manager):
        ok, payload = parse_response(handle_line(manager, "{oops"))
        assert not ok and payload["error"] == "bad_request"

    def test_non_object_is_bad_request(self, manager):
        ok, payload = parse_response(handle_line(manager, "[1,2,3]"))
        assert not ok and payload["error"] == "bad_request"

    def test_responses_are_single_lines(self, manager):
        line = handle_line(manager, json.dumps({"op": "stats"}))
        assert "\n" not in line


class TestSampleBatch:
    def _batch(self, manager, session, start, samples):
        return handle_request(
            manager,
            {
                "op": "sample_batch",
                "session": session,
                "start_interval": start,
                "samples": samples,
            },
        )

    def test_matches_n_single_samples(self, manager):
        series = [0.001, 0.02, 0.05, 0.02, 0.001, 0.06]
        single = hello(manager)
        singles = [
            handle_request(
                manager,
                {
                    "op": "sample",
                    "session": single,
                    "interval": i,
                    "mem_per_uop": value,
                },
            )
            for i, value in enumerate(series)
        ]
        batched = hello(manager)
        response = self._batch(manager, batched, 0, series)
        assert response["ok"] is True
        assert response["count"] == len(series)
        # handle_request answers the columnar container; its rows are
        # what the wire line carries.
        assert response["outcomes"].rows() == [
            [
                r["interval"],
                r["phase"],
                r["predicted"],
                r["frequency_mhz"],
                r["degraded"],
                r["hit"],
            ]
            for r in singles
        ]

    def test_accepts_pair_elements(self, manager):
        session = hello(manager)
        response = self._batch(manager, session, 0, [[0.001, 1.5], 0.02])
        assert response["ok"] is True
        assert response["count"] == 2

    def test_empty_batch_is_bad_request(self, manager):
        session = hello(manager)
        response = self._batch(manager, session, 0, [])
        assert response["error"] == "bad_request"

    def test_oversized_batch_is_bad_request(self, manager):
        from repro.serve import MAX_BATCH_SAMPLES

        session = hello(manager)
        response = self._batch(
            manager, session, 0, [0.001] * (MAX_BATCH_SAMPLES + 1)
        )
        assert response["error"] == "bad_request"

    def test_malformed_elements_are_bad_request(self, manager):
        session = hello(manager)
        for bad in [["x"], [True], [[0.1, 0.2, 0.3]], [[]], [None]]:
            response = self._batch(manager, session, 0, bad)
            assert response["error"] == "bad_request", bad

    def test_rejection_is_atomic(self, manager):
        session = hello(manager)
        response = self._batch(manager, session, 0, [0.001, 0.02, -1.0])
        assert response["error"] == "bad_request"
        # The valid prefix was not applied: interval 0 is still next.
        response = self._batch(manager, session, 0, [0.001])
        assert response["ok"] is True

    def test_wrong_start_interval_is_bad_request(self, manager):
        session = hello(manager)
        response = self._batch(manager, session, 3, [0.001])
        assert response["error"] == "bad_request"

    def test_unknown_session(self, manager):
        response = self._batch(manager, "s99", 0, [0.001])
        assert response["error"] == "unknown_session"


#: JSON number texts no finite float holds, by test id: ``json`` reads
#: ``NaN`` and the infinities as themselves and ``1e400`` as ``inf``,
#: and the 401-digit integer overflows ``float()``.
NON_FINITE = {
    "nan": "NaN",
    "inf": "Infinity",
    "-inf": "-Infinity",
    "1e400": "1e400",
    "huge_int": "1" + "0" * 400,
}

#: Request templates placing a value in every number a sample carries.
NON_FINITE_REQUESTS = {
    "sample.mem_per_uop": (
        '{"op":"sample","session":"s1","interval":0,"mem_per_uop":%s}'
    ),
    "sample.upc": (
        '{"op":"sample","session":"s1","interval":0,"mem_per_uop":0.02,'
        '"upc":%s}'
    ),
    "sample_batch.number": (
        '{"op":"sample_batch","session":"s1","start_interval":0,'
        '"samples":[0.02,%s]}'
    ),
    "sample_batch.pair_mem": (
        '{"op":"sample_batch","session":"s1","start_interval":0,'
        '"samples":[0.02,[%s,1.0]]}'
    ),
    "sample_batch.pair_upc": (
        '{"op":"sample_batch","session":"s1","start_interval":0,'
        '"samples":[[0.02,1.0],[0.02,%s]]}'
    ),
}


class TestNonFiniteSamples:
    """A corrupt counter read is a bad request, never a DVFS decision."""

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    @pytest.mark.parametrize("request_kind", sorted(NON_FINITE_REQUESTS))
    def test_rejected_and_session_untouched(
        self, manager, request_kind, value
    ):
        assert hello(manager) == "s1"
        line = NON_FINITE_REQUESTS[request_kind] % NON_FINITE[value]
        response = json.loads(handle_line(manager, line))
        assert response["ok"] is False, response
        assert response["error"] == "bad_request"
        stats = handle_request(manager, {"op": "stats", "session": "s1"})
        assert stats["stats"]["samples"] == 0
        response = handle_request(
            manager,
            {"op": "sample", "session": "s1", "interval": 0, "mem_per_uop": 0.02},
        )
        assert response["ok"] is True


#: Session config fields that hold a float, with a governor that reads it.
FLOAT_CONFIG_FIELDS = {"markov_alpha": "markov", "latency_budget_s": "gpht"}

#: Checkpoint fields that hold a float, as ``section.key``: the session
#: config and the ``learned_tree`` predictor's last two metrics.
FLOAT_CHECKPOINT_FIELDS = (
    "config.markov_alpha",
    "config.latency_budget_s",
    "predictor.mem",
    "predictor.mem_prev",
)


class TestNonFiniteConfig:
    """A non-finite config or checkpoint number opens no session."""

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    @pytest.mark.parametrize("field", sorted(FLOAT_CONFIG_FIELDS))
    def test_hello_rejected(self, manager, field, value):
        line = '{"op":"hello","governor":"%s","%s":%s}' % (
            FLOAT_CONFIG_FIELDS[field],
            field,
            NON_FINITE[value],
        )
        response = json.loads(handle_line(manager, line))
        assert response["ok"] is False, response
        assert response["error"] == "bad_request"
        assert manager.active_sessions == 0

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    @pytest.mark.parametrize("field", FLOAT_CHECKPOINT_FIELDS)
    def test_restore_rejected(self, manager, field, value):
        session = hello(manager, governor="learned_tree")
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        section, key = field.split(".")
        checkpoint[section][key] = "@value@"
        line = json.dumps({"op": "restore", "checkpoint": checkpoint})
        response = json.loads(
            handle_line(manager, line.replace('"@value@"', NON_FINITE[value]))
        )
        assert response["ok"] is False, response
        assert response["error"] == "bad_request"
        assert manager.active_sessions == 1

    @staticmethod
    def _restore_tree_with_threshold(manager, threshold_text):
        """Restore a ``learned_tree`` session whose root split has the
        JSON number ``threshold_text``; returns the parsed response."""
        session = hello(manager, governor="learned_tree")
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        predictor = checkpoint["predictor"]
        predictor["tree"] = {
            "version": 1,
            "task": "classification",
            "n_features": predictor["history_length"] + 2,
            "nodes": [
                [0, "@value@", 1, 2, 1],
                [-1, 0.0, -1, -1, 1],
                [-1, 0.0, -1, -1, 2],
            ],
        }
        line = json.dumps({"op": "restore", "checkpoint": checkpoint})
        return json.loads(
            handle_line(manager, line.replace('"@value@"', threshold_text))
        )

    def test_restore_accepts_a_finite_tree_threshold(self, manager):
        response = self._restore_tree_with_threshold(manager, "2.5")
        assert response["ok"] is True, response
        assert manager.active_sessions == 2

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    def test_restore_rejects_a_non_finite_tree_threshold(self, manager, value):
        response = self._restore_tree_with_threshold(
            manager, NON_FINITE[value]
        )
        assert response["ok"] is False, response
        assert response["error"] == "bad_request"
        assert manager.active_sessions == 1


class TestGphrDepthLimit:
    """``gphr_depth`` is bounded at ``hello`` and ``restore`` alike."""

    @staticmethod
    def snapshot(manager, session):
        return handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]

    @staticmethod
    def assert_names_the_limit(response):
        assert response["ok"] is False, response
        assert response["error"] == "bad_request"
        assert "gphr_depth" in response["message"]
        assert str(MAX_GPHR_DEPTH) in response["message"]

    def test_hello_at_the_limit_opens(self, manager):
        session = hello(manager, gphr_depth=MAX_GPHR_DEPTH)
        checkpoint = self.snapshot(manager, session)
        assert checkpoint["config"]["gphr_depth"] == MAX_GPHR_DEPTH

    def test_hello_over_the_limit_is_bad_request(self, manager):
        response = handle_request(
            manager, {"op": "hello", "gphr_depth": MAX_GPHR_DEPTH + 1}
        )
        self.assert_names_the_limit(response)
        assert manager.active_sessions == 0

    def test_restore_at_the_limit_and_over_it(self, manager):
        session = hello(manager, gphr_depth=MAX_GPHR_DEPTH)
        checkpoint = self.snapshot(manager, session)
        restored = handle_request(
            manager, {"op": "restore", "checkpoint": checkpoint}
        )
        assert restored["ok"] is True, restored
        # One deeper, with the predictor's history register deepened to
        # match, so only the limit stands in the way.
        checkpoint["config"]["gphr_depth"] = MAX_GPHR_DEPTH + 1
        predictor = checkpoint["predictor"]
        predictor["gphr_depth"] = MAX_GPHR_DEPTH + 1
        predictor["gphr"].append(predictor["gphr"][-1])
        response = handle_request(
            manager, {"op": "restore", "checkpoint": checkpoint}
        )
        self.assert_names_the_limit(response)
        assert manager.active_sessions == 2


class TestSessionSizeLimits:
    """``markov_order``, ``history_length``, ``pht_entries`` and
    ``window_size`` are bounded like ``gphr_depth``, at ``hello`` and
    ``restore`` alike."""

    LIMITS = [
        ("markov", "markov_order", MAX_MARKOV_ORDER, "order"),
        (
            "learned_tree",
            "history_length",
            MAX_HISTORY_LENGTH,
            "history_length",
        ),
        ("gpht", "pht_entries", MAX_PHT_ENTRIES, "pht_entries"),
        ("fixed_window", "window_size", MAX_WINDOW_SIZE, "window_size"),
    ]

    @staticmethod
    def assert_names_the_limit(response, field, limit):
        assert response["ok"] is False, response
        assert response["error"] == "bad_request"
        assert response["message"] == (
            f"{field} must be <= {limit}, got {limit + 1}"
        )

    @pytest.mark.parametrize("governor, field, limit, _", LIMITS)
    def test_hello_at_the_limit_opens(self, manager, governor, field, limit, _):
        session = hello(manager, governor=governor, **{field: limit})
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        assert checkpoint["config"][field] == limit

    @pytest.mark.parametrize("governor, field, limit, _", LIMITS)
    def test_hello_over_the_limit_is_bad_request(
        self, manager, governor, field, limit, _
    ):
        response = handle_request(
            manager, {"op": "hello", "governor": governor, field: limit + 1}
        )
        self.assert_names_the_limit(response, field, limit)
        assert manager.active_sessions == 0

    @pytest.mark.parametrize("governor, field, limit, predictor_key", LIMITS)
    def test_restore_over_the_limit_is_bad_request(
        self, manager, governor, field, limit, predictor_key
    ):
        session = hello(manager, governor=governor, **{field: limit})
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        checkpoint["config"][field] = limit + 1
        checkpoint["predictor"][predictor_key] = limit + 1
        response = handle_request(
            manager, {"op": "restore", "checkpoint": checkpoint}
        )
        self.assert_names_the_limit(response, field, limit)
        assert manager.active_sessions == 1

    def test_window_size_too_large_for_a_deque_is_bad_request(self, manager):
        # 2**63 overflows deque(maxlen=...): before the bound it answered
        # "internal" at hello and restore alike.
        huge = 2**63
        message = f"window_size must be <= {MAX_WINDOW_SIZE}, got {huge}"
        response = handle_request(
            manager,
            {"op": "hello", "governor": "fixed_window", "window_size": huge},
        )
        assert response == {
            "ok": False, "error": "bad_request", "message": message
        }
        session = hello(manager, governor="fixed_window")
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        checkpoint["config"]["window_size"] = huge
        checkpoint["predictor"]["window_size"] = huge
        response = handle_request(
            manager, {"op": "restore", "checkpoint": checkpoint}
        )
        assert response == {
            "ok": False, "error": "bad_request", "message": message
        }
        assert manager.active_sessions == 1


class TestPhtEntriesLimit:
    """A full pattern table at the deepest history still snapshots into
    one wire line (the limit itself is checked with the others in
    :class:`TestSessionSizeLimits`)."""

    def test_full_table_at_the_deepest_history_snapshots_in_one_line(
        self, manager
    ):
        session = hello(
            manager, gphr_depth=MAX_GPHR_DEPTH, pht_entries=MAX_PHT_ENTRIES
        )
        checkpoint = handle_request(
            manager, {"op": "snapshot", "session": session}
        )["checkpoint"]
        # Every entry stored with a distinct tag: entry i spells i in
        # base 6 over phases 1-6.
        checkpoint["predictor"]["pht"] = [
            [[1 + (i // 6**k) % 6 for k in range(MAX_GPHR_DEPTH)], 1 + i % 6]
            for i in range(MAX_PHT_ENTRIES)
        ]
        restored = handle_request(
            manager, {"op": "restore", "checkpoint": checkpoint}
        )
        assert restored["ok"] is True, restored
        line = handle_line(
            manager,
            json.dumps({"op": "snapshot", "session": restored["session"]}),
        )
        answer = json.loads(line)
        assert len(answer["checkpoint"]["predictor"]["pht"]) == MAX_PHT_ENTRIES
        assert len(line.encode("utf-8")) + 1 < MAX_LINE_BYTES


class TestProtocolNegotiation:
    def test_v1_still_negotiable(self, manager):
        response = handle_request(manager, {"op": "hello", "protocol": 1})
        assert response["ok"] is True
        assert response["protocol"] == 1

    def test_v1_session_may_sample_batch(self, manager):
        # hello checks the version but pins nothing: version 1 lacks
        # only the batch op, so every session may use it.
        session = hello(manager, protocol=1)
        response = handle_request(
            manager,
            {
                "op": "sample_batch",
                "session": session,
                "start_interval": 0,
                "samples": [0.001],
            },
        )
        assert response["ok"] is True, response
        assert response["count"] == 1

    def test_v1_session_still_samples(self, manager):
        session = hello(manager, protocol=1)
        response = handle_request(
            manager,
            {
                "op": "sample",
                "session": session,
                "interval": 0,
                "mem_per_uop": 0.001,
            },
        )
        assert response["ok"] is True

    def test_non_integer_protocol_rejected(self, manager):
        for version in (1.0, "2", True, None):
            response = handle_request(
                manager, {"op": "hello", "protocol": version}
            )
            assert response["error"] == "unsupported_protocol", version


class TestIdleSweepOnRequestCadence:
    """Regression: idle eviction must fire under steady-state traffic.

    Before the sweep moved into handle_request, evict_idle() only ran
    from _reserve_slot(), so with constant traffic to live sessions and
    no new opens an abandoned session was never evicted.
    """

    def test_abandoned_session_evicted_without_new_open(self):
        manager = SessionManager(max_sessions=4, idle_timeout_s=5)
        busy = hello(manager)
        idle = hello(manager)
        assert manager.active_sessions == 2
        # Drive only the busy session past the idle timeout — no hello,
        # no restore, just steady sample traffic.
        for i in range(10):
            response = handle_request(
                manager,
                {
                    "op": "sample",
                    "session": busy,
                    "interval": i,
                    "mem_per_uop": 0.001,
                },
            )
            assert response["ok"] is True
        assert manager.active_sessions == 1
        response = handle_request(
            manager,
            {"op": "sample", "session": idle, "interval": 0, "mem_per_uop": 0.1},
        )
        assert response["error"] == "unknown_session"
