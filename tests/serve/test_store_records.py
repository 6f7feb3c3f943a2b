"""Torn and undecodable checkpoint-store records at worker boot.

A worker restores its shard from the store before it serves, so one bad
record must cost only that record: a write cut short, a file that is not
UTF-8 and a record nested too deep to decode are skipped, and the good
record beside them is adopted.
"""

import json
import socket

import pytest

from repro.errors import ConfigurationError
from repro.serve import ShardedServer
from repro.serve.checkpoint import CheckpointStore
from repro.serve.manager import SessionManager
from repro.serve.session import PhaseSession
from repro.serve.shard import _adopt_shard_sessions


def _bad_records(record):
    """Damaged records by session id, beside a good ``record``."""
    nested = b"[" * 3000 + b"]" * 3000
    return {
        "cut_first": record[:1],
        "cut_middle": record[: len(record) // 2],
        "cut_last": record[:-1],
        "not_utf8": b"\xff\xfe" + record,
        "nested": b'{"session":"nested","checkpoint":' + nested + b"}",
    }


@pytest.fixture
def store_dir(tmp_path):
    good = PhaseSession()
    good.feed_batch(0, [(0.001, 0.0), (0.02, 0.0), (0.05, 0.0)])
    store = CheckpointStore(tmp_path)
    store.save("good", good.snapshot())
    store.close()
    record = (tmp_path / "good.ckpt.json").read_bytes()
    for session_id, data in _bad_records(record).items():
        (tmp_path / f"{session_id}.ckpt.json").write_bytes(data)
    (tmp_path / "stray.ckpt.json.tmp").write_bytes(record)
    return tmp_path, good.snapshot()


def test_load_all_returns_the_good_record(store_dir):
    root, snapshot = store_dir
    store = CheckpointStore(root)
    try:
        records = store.load_all()
        assert [record.session for record in records] == ["good"]
        assert records[0].checkpoint == snapshot
        for session_id in _bad_records(b"{}"):
            with pytest.raises(ConfigurationError):
                store.load(session_id)
    finally:
        store.close()


def test_worker_boot_adopts_only_the_good_record(store_dir):
    root, snapshot = store_dir
    manager = SessionManager()
    store = CheckpointStore(root)
    try:
        assert _adopt_shard_sessions(manager, store, 0, 1, {}) == 1
    finally:
        store.close()
    assert manager.session_ids() == ("good",)

    server = ShardedServer(workers=1, checkpoint_dir=str(root))
    port = server.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            stream.write('{"op":"snapshot","session":"good"}\n')
            stream.flush()
            answer = json.loads(stream.readline())
        assert answer["ok"] is True, answer
        assert answer["checkpoint"] == snapshot
    finally:
        server.stop()
