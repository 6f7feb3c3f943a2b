"""Versioned session checkpoints: validation and JSON round trip.

A checkpoint is the JSON-able payload produced by
:meth:`repro.serve.session.PhaseSession.snapshot`: the session config,
the predictor's complete mutable state (for the GPHT: GPHR contents and
every PHT entry with its tag, stored prediction and LRU position) and
the scoring/degradation counters.  The format is versioned so an old
server's checkpoint fails loudly on an incompatible reader instead of
silently restoring garbage.

The round trip is *lossless by construction*: every field is a JSON
scalar or a list/object of scalars, and the property tests assert that
``restore(snapshot(s))`` continues bit-for-bit where ``s`` stopped and
that ``snapshot(restore(snapshot(s))) == snapshot(s)``.

:class:`CheckpointStore` makes checkpoints *durable*: one atomically
written JSON file per session id under a shared directory.  It is the
substrate of the sharded server's self-healing — workers persist live
sessions on a request cadence and restore them at (re)boot, so a killed
worker costs clients a bounded replay window instead of their sessions.
"""

from __future__ import annotations

import json
import os
import queue
import threading
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union
from urllib.parse import quote, unquote

from repro.errors import ConfigurationError
from repro.numerics import (
    as_dict,
    as_int,
    as_str,
    decode_object,
    read_text_file,
    shown,
)

#: Current checkpoint format version.  Bump on any incompatible change
#: to the payload layout.
CHECKPOINT_VERSION = 1

#: A checkpoint payload (JSON-able scalars and containers only).
Checkpoint = Dict[str, object]

#: Fields every version-1 checkpoint must carry.
_REQUIRED_FIELDS = ("version", "config", "predictor", "samples")


def validate_checkpoint(payload: Checkpoint) -> None:
    """Structural validation of a checkpoint payload.

    Checks the outline: the version, the required fields and their
    types.  Every other field is narrowed once, where it is consumed
    (:meth:`~repro.serve.session.PhaseSession.from_snapshot`, the
    session config, the predictor's ``restore_state``).

    Raises:
        ConfigurationError: On a non-dict payload, a missing field or an
            unsupported version.
    """
    as_dict(payload, "checkpoint")
    missing = [key for key in _REQUIRED_FIELDS if key not in payload]
    if missing:
        raise ConfigurationError(
            f"checkpoint is missing required fields: {missing}"
        )
    version = payload["version"]
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {shown(version)}; this server "
            f"reads version {CHECKPOINT_VERSION}"
        )
    as_dict(payload["config"], "checkpoint 'config'")
    as_dict(payload["predictor"], "checkpoint 'predictor'")
    as_int(payload["samples"], "checkpoint 'samples'", minimum=0)


def checkpoint_to_json(payload: Checkpoint, indent: int = 0) -> str:
    """Serialize a checkpoint payload to JSON text."""
    if indent:
        return json.dumps(payload, sort_keys=True, indent=indent)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checkpoint_from_json(text: str) -> Checkpoint:
    """Parse and structurally validate checkpoint JSON.

    Raises:
        ConfigurationError: On invalid JSON or an invalid payload.
    """
    payload = decode_object(text, "checkpoint")
    validate_checkpoint(payload)
    return payload


#: Suffix of every checkpoint file a :class:`CheckpointStore` manages.
_STORE_SUFFIX = ".ckpt.json"


class StoredCheckpoint(NamedTuple):
    """One durable session checkpoint: session id and payload."""

    session: str
    checkpoint: Checkpoint


class CheckpointStore:
    """Durable per-session checkpoints: one JSON file per session id.

    The store is the recovery substrate of the sharded server: workers
    persist live sessions here on a request cadence, and a respawned
    worker (or a rebalanced topology) restores them at boot.  Files are
    written atomically — serialize to ``<name>.tmp``, then
    ``os.replace`` — so a crash mid-write can never corrupt the
    previous checkpoint of the same session.

    Writes are offloaded to a single background writer thread, so the
    worker's event loop pays the in-memory snapshot and the record's
    ``json.dumps`` per checkpoint, but never the file write.  (Encoding
    in the writer thread instead was measured on a 2-vCPU VM: the
    ``batch_backfill`` rate did not rise, and peak RSS grew by about
    1.2 MiB.)  The thread preserves per-store operation order (a
    ``save`` queued before a ``delete`` lands first).  Call
    :meth:`flush` when writes must be durable before going on.  Reads
    (:meth:`load`, :meth:`load_all`) are always synchronous — they only
    happen off the hot path, at worker boot and router recovery.

    Session ids are percent-encoded into file names, so any id the wire
    protocol accepts maps to exactly one flat file under ``root`` and
    can never escape the directory.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._queue: "queue.Queue[Optional[Tuple[str, Optional[str]]]]" = (
            queue.Queue()
        )
        self._closed = False
        self._thread: Optional[threading.Thread] = threading.Thread(
            target=self._writer_main,
            name="repro-serve-checkpoint-writer",
            daemon=True,
        )
        self._thread.start()

    @property
    def root(self) -> Path:
        """The directory holding the checkpoint files."""
        return self._root

    def _path_for(self, session_id: str) -> Path:
        if not session_id:
            raise ConfigurationError("session id must be a non-empty string")
        return self._root / (quote(session_id, safe="") + _STORE_SUFFIX)

    # -- writes -------------------------------------------------------------

    def save(self, session_id: str, checkpoint: Checkpoint) -> None:
        """Persist one session's checkpoint (latest wins).

        The payload is validated *before* it is queued, so a malformed
        checkpoint fails loudly at the call site instead of silently in
        the writer thread.
        """
        validate_checkpoint(checkpoint)
        record = json.dumps(
            {"session": session_id, "checkpoint": checkpoint},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._submit(session_id, record)

    def delete(self, session_id: str) -> None:
        """Drop a session's checkpoint (no-op when absent)."""
        self._submit(session_id, None)

    def _submit(self, session_id: str, record: Optional[str]) -> None:
        path = self._path_for(session_id)
        if self._closed:
            self._apply(str(path), record)
        else:
            self._queue.put((str(path), record))

    @staticmethod
    def _apply(path: str, record: Optional[str]) -> None:
        if record is None:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        else:
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(record)
            os.replace(tmp, path)

    def _writer_main(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                try:
                    self._apply(*item)
                except OSError:  # pragma: no cover - disk-level failure
                    # A failed write must never kill the writer thread:
                    # the previous checkpoint of the session stays valid
                    # (atomic replace) and the next cadence retries.
                    pass
            finally:
                self._queue.task_done()

    def flush(self) -> None:
        """Block until every queued write/delete has hit the disk."""
        if self._thread is not None:
            self._queue.join()

    def close(self) -> None:
        """Drain the writer thread; further writes become synchronous."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=10)
            self._thread = None

    # -- reads --------------------------------------------------------------

    def load(self, session_id: str) -> Optional[StoredCheckpoint]:
        """The latest stored checkpoint for ``session_id``.

        Returns ``None`` when the session has no durable checkpoint.

        Raises:
            ConfigurationError: When the stored file exists but is
                corrupt (truncated write of a non-atomic producer, disk
                damage); recovery paths that prefer to skip corrupt
                entries use :meth:`load_all`.
        """
        path = self._path_for(session_id)
        if not path.exists():
            return None
        return self._parse(path)

    def load_all(self) -> List[StoredCheckpoint]:
        """Every stored checkpoint, sorted by session id.

        Corrupt files are skipped (best-effort recovery must not be
        blocked by one damaged entry): torn, not UTF-8, not JSON, or
        nested too deep to decode.
        """
        stored: List[StoredCheckpoint] = []
        for path in sorted(self._root.glob("*" + _STORE_SUFFIX)):
            try:
                stored.append(self._parse(path))
            except ConfigurationError:
                continue
        stored.sort(key=lambda record: record.session)
        return stored

    def sessions(self) -> Tuple[str, ...]:
        """Ids with a durable checkpoint, sorted (decoded from file names)."""
        return tuple(
            sorted(
                unquote(path.name[: -len(_STORE_SUFFIX)])
                for path in self._root.glob("*" + _STORE_SUFFIX)
            )
        )

    @staticmethod
    def _parse(path: Path) -> StoredCheckpoint:
        """Read and parse one record file.

        Only ``session`` and ``checkpoint`` are read; other keys, such as
        the ``protocol`` that records from older builds carry, are
        ignored.  An empty session id is refused where the record is
        restored (:meth:`~repro.serve.manager.SessionManager.restore_as`).
        """
        label = "checkpoint store entry"
        payload = decode_object(read_text_file(path, label), label)
        session = as_str(payload.get("session"), f"{label} 'session'")
        checkpoint = as_dict(
            payload.get("checkpoint"), f"{label} 'checkpoint'"
        )
        validate_checkpoint(checkpoint)
        return StoredCheckpoint(session, checkpoint)
