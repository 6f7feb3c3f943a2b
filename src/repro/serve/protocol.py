"""Versioned line-delimited JSON wire protocol for the serving layer.

One request per line, one response per line, in order.  Every request
is a JSON object with an ``op`` field; every response carries ``ok``
(and, on failure, a stable ``error`` code plus a human ``message``).
The same dispatcher serves both frontends — stdio and TCP differ only
in transport.

Operations (protocol version 2):

=========  ==============================================================
``hello``  Open a session.  Optional ``protocol`` (any version in
           :data:`SUPPORTED_PROTOCOLS`; the response echoes it) and any
           :class:`~repro.serve.session.SessionConfig` fields.  The
           version is only checked, never stored: version 1 lacks
           nothing but ``sample_batch``, so every session may use
           every op.
``sample`` Feed one interval: ``session``, ``interval``, ``mem_per_uop``
           and optional ``upc``.  Answers the classified phase, the
           predicted next phase, the recommended frequency, the degraded
           flag and whether the previous prediction hit.
``sample_batch`` Feed N ordered intervals in one round trip:
           ``session``, ``start_interval`` and ``samples`` — an array
           whose elements are each either a number (``mem_per_uop``) or
           a ``[mem_per_uop, upc]`` pair.  Answers ``outcomes``: one
           ``[interval, phase, predicted, frequency_mhz, degraded,
           hit]`` row per sample, bit-for-bit what N ``sample`` requests
           would have answered.  Validation is atomic: a malformed
           batch is rejected whole and the session is untouched.
``predict`` The standing prediction without feeding a sample.
``snapshot`` The session's lossless checkpoint (see
           :mod:`repro.serve.checkpoint`).
``restore`` Open a session from a checkpoint payload.  By default a
           fresh id is minted; with an explicit ``session`` field the
           checkpoint is restored *under that id* (the recovery and
           migration path — the id must not be live).
``stats``  Per-session (with ``session``) or server statistics.
``bye``    Close a session.  Optional ``reason`` is recorded in the
           ``session_closed`` trace event; the reserved reason
           ``migrated`` keeps the session's durable checkpoint (the
           migration target owns it now).
=========  ==============================================================

Sample values (``mem_per_uop``, ``upc``) must be finite: NaN, the
infinities and integers too large for a float answer ``bad_request``
instead of classifying as the slowest phase.  A TCP stream accepts lines
of at most :data:`MAX_LINE_BYTES`, enough for a full
:data:`MAX_BATCH_SAMPLES` batch; a longer line answers ``bad_request``
and the connection reads on from the next newline.

Error codes: ``bad_request``, ``unknown_session``, ``server_overloaded``,
``unsupported_protocol`` (a ``hello`` naming a version this server does
not speak), ``internal`` — plus ``worker_unavailable`` and
``worker_recovering``, emitted by the shard router
(:mod:`repro.serve.shard`) when the worker owning a session's shard has
died (permanently, or while its auto-restarted replacement is still
coming up; such error responses carry a boolean ``recovering`` detail).

The dispatcher also sweeps idle sessions once per handled request, so
``idle_timeout_s`` eviction fires under steady-state traffic, not only
when ``hello``/``restore`` reserve a slot.
"""

from __future__ import annotations

import json
import math
import re
from itertools import repeat
from typing import Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.numerics import (
    as_dict,
    as_float,
    as_int,
    as_str,
    decode_object,
    finite_float,
    shown,
)
from repro.serve.manager import (
    OverloadedError,
    SessionManager,
    UnknownSessionError,
)
from repro.serve.session import BatchOutcomes, Payload, SessionConfig

#: Current (preferred) wire protocol version.
PROTOCOL_VERSION = 2

#: Versions ``hello`` accepts.  Version 1 is version 2 without
#: ``sample_batch``; both are served by the same dispatcher.
SUPPORTED_PROTOCOLS = (1, 2)

#: Hard per-request ceiling on ``sample_batch`` size (memory bound).
MAX_BATCH_SAMPLES = 4096

#: Longest line, in bytes, a TCP stream reads — requests on the
#: frontend and router, answers on the router's worker links.  128
#: bytes per sample holds a ``[mem_per_uop, upc]`` pair of any two
#: floats with room for whitespace, and a full batch's outcome rows
#: take far less.
MAX_LINE_BYTES = 128 * MAX_BATCH_SAMPLES

#: Server identification string sent in ``hello`` responses.
SERVER_NAME = "repro-serve"

#: Every error code the serve tier may put on the wire.  This is the
#: closed registry clients program against; ``repro analyze``'s
#: protocol-conformance check cross-references each code produced
#: anywhere in the serve package against it (and flags phantom codes
#: that are declared but never produced).
ERROR_CODES = (
    "bad_request",
    "unknown_session",
    "server_overloaded",
    "unsupported_protocol",
    "worker_unavailable",
    "worker_recovering",
    "internal",
)

#: Ids accepted in a restore-with-id request: conservative filesystem-
#: and log-safe charset, bounded length.  Server-minted ids (``s1``,
#: ``s17x3``) are a strict subset.
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class _ProtocolError(ReproError):
    """Internal: a request failure with a stable wire error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _error(code: str, message: str) -> Payload:
    return {"ok": False, "error": code, "message": message}


def _require(payload: Mapping[str, object], key: str) -> object:
    try:
        return payload[key]
    except KeyError:
        raise _ProtocolError(
            "bad_request", f"request is missing required field {key!r}"
        ) from None


def _require_str(payload: Mapping[str, object], key: str) -> str:
    return as_str(_require(payload, key), key)


def _require_int(payload: Mapping[str, object], key: str) -> int:
    return as_int(_require(payload, key), key)


def _require_number(payload: Mapping[str, object], key: str) -> float:
    return as_float(_require(payload, key), key)


def _optional_number(
    payload: Mapping[str, object], key: str, default: float
) -> float:
    return as_float(payload[key], key) if key in payload else default


def handle_request(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    """Dispatch one already-parsed request; never raises.

    Every domain failure is mapped onto a stable error code so clients
    can branch without parsing messages.  A ``sample_batch`` answer
    carries the session's :class:`BatchOutcomes` under ``outcomes``
    (``.rows()`` gives the wire rows); :func:`serialize_response` and
    :func:`handle_line` write it as the rows.
    """
    manager.tick()
    # Sweep on request cadence: with constant traffic to live sessions
    # and no new opens, _reserve_slot() never runs, so this is the only
    # place abandoned sessions can be evicted on time.
    manager.evict_idle()
    clock = manager.clock
    started = clock() if clock is not None else None
    try:
        response = _dispatch(manager, payload)
    except _ProtocolError as error:
        manager.metrics.counter("serve.errors").inc()
        response = _error(error.code, str(error))
    except UnknownSessionError as error:
        manager.metrics.counter("serve.errors").inc()
        response = _error("unknown_session", str(error))
    except OverloadedError as error:
        manager.metrics.counter("serve.errors").inc()
        response = _error("server_overloaded", str(error))
    except ConfigurationError as error:
        manager.metrics.counter("serve.errors").inc()
        response = _error("bad_request", str(error))
    except Exception as error:  # pragma: no cover - defensive last resort
        manager.metrics.counter("serve.errors").inc()
        response = _error(
            "internal", f"{type(error).__name__}: {error}"
        )
    if started is not None and clock is not None:
        manager.metrics.histogram("serve.request_latency_s").observe(
            clock() - started
        )
    if response.get("ok"):
        # Cadence checkpointing rides the dispatcher: any successful op
        # that names a session (sample/sample_batch advance it; the
        # rest are free no-ops) may trigger a durable checkpoint.
        session_id = response.get("session")
        if isinstance(session_id, str):
            manager.maybe_checkpoint(session_id)
    return response


def _dispatch(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    op = _require_str(payload, "op")
    handler = _OPS.get(op)
    if handler is None:
        raise _ProtocolError(
            "bad_request", f"unknown op {shown(op)}; known: {sorted(_OPS)}"
        )
    return handler(manager, payload)


def _op_hello(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    version = payload.get("protocol", PROTOCOL_VERSION)
    if (
        isinstance(version, bool)
        or not isinstance(version, int)
        or version not in SUPPORTED_PROTOCOLS
    ):
        raise _ProtocolError(
            "unsupported_protocol",
            f"protocol {shown(version)} is not supported; this server speaks "
            f"versions {SUPPORTED_PROTOCOLS}",
        )
    # Every other field is session config; from_payload rejects
    # unknown ones.
    config = SessionConfig.from_payload(
        {
            key: value
            for key, value in payload.items()
            if key not in ("op", "protocol")
        }
    )
    session = manager.open(config)
    return {
        "ok": True,
        "op": "hello",
        "protocol": version,
        "server": SERVER_NAME,
        "session": session.session_id,
        "governor": config.governor,
        "policy": config.policy,
    }


def _op_sample(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    session = manager.get(_require_str(payload, "session"))
    interval = _require_int(payload, "interval")
    mem_per_uop = _require_number(payload, "mem_per_uop")
    upc = _optional_number(payload, "upc", 0.0)
    outcome = session.feed(interval, mem_per_uop, upc)
    return {
        "ok": True,
        "op": "sample",
        "session": session.session_id,
        "interval": outcome.interval,
        "phase": outcome.actual_phase,
        "predicted": outcome.predicted_phase,
        "frequency_mhz": outcome.frequency_mhz,
        "degraded": outcome.degraded,
        "hit": outcome.hit,
    }


#: The element types of a ``samples`` array checked as one column.
_FLOAT_COLUMN = frozenset((float,))


def _parse_batch_sample(element: object, index: int) -> Tuple[float, float]:
    """Normalize one ``samples`` array element to ``(mem_per_uop, upc)``."""
    upc: Optional[float] = 0.0
    if isinstance(element, list) and 1 <= len(element) <= 2:
        mem = finite_float(element[0])
        if len(element) == 2:
            upc = finite_float(element[1])
    else:
        mem = finite_float(element)
    if mem is None or upc is None:
        raise _ProtocolError(
            "bad_request",
            f"batch sample {index} must be a finite number or a "
            f"[mem_per_uop, upc] pair of finite numbers, got "
            f"{shown(element)}",
        )
    return mem, upc


def _op_sample_batch(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    session = manager.get(_require_str(payload, "session"))
    start_interval = _require_int(payload, "start_interval")
    raw = _require(payload, "samples")
    if not isinstance(raw, list) or not raw:
        raise _ProtocolError(
            "bad_request", "field 'samples' must be a non-empty array"
        )
    if len(raw) > MAX_BATCH_SAMPLES:
        raise _ProtocolError(
            "bad_request",
            f"batch of {len(raw)} samples exceeds the per-request ceiling "
            f"of {MAX_BATCH_SAMPLES}; split it",
        )
    # A column of plain floats, the form batching clients send, is
    # checked once: any NaN or infinity makes its sum non-finite.  Any
    # other element (an int, a bool, a pair, a string, null), or a
    # finite column whose sum overflows, goes element by element, which
    # accepts exactly the same batches and names the first bad index.
    if set(map(type, raw)) == _FLOAT_COLUMN and math.isfinite(sum(raw)):
        samples = list(zip(raw, repeat(0.0)))
    else:
        samples = [
            _parse_batch_sample(element, index)
            for index, element in enumerate(raw)
        ]
    outcomes = session.feed_batch(start_interval, samples)
    return {
        "ok": True,
        "op": "sample_batch",
        "session": session.session_id,
        "start_interval": start_interval,
        "count": len(outcomes),
        # The columnar container itself, as the last key: _serialize
        # writes its rows straight from the columns.  An in-process
        # caller reads them with ``.rows()``.
        "outcomes": outcomes,
    }


def _op_predict(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    session = manager.get(_require_str(payload, "session"))
    predicted, frequency_mhz = session.predict()
    return {
        "ok": True,
        "op": "predict",
        "session": session.session_id,
        "predicted": predicted,
        "frequency_mhz": frequency_mhz,
    }


def _op_snapshot(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    session = manager.get(_require_str(payload, "session"))
    return {
        "ok": True,
        "op": "snapshot",
        "session": session.session_id,
        "checkpoint": session.snapshot(),
    }


def _op_restore(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    checkpoint = as_dict(_require(payload, "checkpoint"), "checkpoint")
    if "session" in payload:
        session_id = _require_str(payload, "session")
        if _SESSION_ID_RE.match(session_id) is None:
            raise _ProtocolError(
                "bad_request",
                f"invalid session id {shown(session_id)}: expected 1-64 "
                "characters from [A-Za-z0-9_.-], starting alphanumeric",
            )
        session = manager.restore_as(session_id, checkpoint)
    else:
        session = manager.restore(checkpoint)
    return {
        "ok": True,
        "op": "restore",
        "session": session.session_id,
        "samples": session.samples,
    }


def _op_stats(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    if "session" in payload:
        session = manager.get(_require_str(payload, "session"))
        return {"ok": True, "op": "stats", "stats": session.stats()}
    return {"ok": True, "op": "stats", "stats": manager.stats()}


def _op_bye(
    manager: SessionManager, payload: Mapping[str, object]
) -> Payload:
    reason = "bye"
    if "reason" in payload:
        reason = _require_str(payload, "reason")
        if not reason or len(reason) > 64:
            raise _ProtocolError(
                "bad_request",
                "field 'reason' must be a non-empty string of at most "
                "64 characters",
            )
    session = manager.close(_require_str(payload, "session"), reason=reason)
    return {
        "ok": True,
        "op": "bye",
        "session": session.session_id,
        "samples": session.samples,
    }


_OPS = {
    "hello": _op_hello,
    "sample": _op_sample,
    "sample_batch": _op_sample_batch,
    "predict": _op_predict,
    "snapshot": _op_snapshot,
    "restore": _op_restore,
    "stats": _op_stats,
    "bye": _op_bye,
}


def handle_line(manager: SessionManager, line: str) -> str:
    """Parse one request line, dispatch it, serialize the response.

    Transport-agnostic: both the stdio and the TCP frontend feed raw
    lines through here.  A line that is not one JSON object — malformed,
    nested too deep to decode, or another JSON value — never kills the
    connection: it answers a ``bad_request`` error like any other
    failure.
    """
    try:
        payload = decode_object(line, "request")
    except ConfigurationError as error:
        manager.tick()
        manager.metrics.counter("serve.errors").inc()
        return _serialize(_error("bad_request", str(error)))
    return _serialize(handle_request(manager, payload))


def _serialize(response: Payload) -> str:
    """The one place a payload becomes wire text.

    A ``sample_batch`` answer's :class:`BatchOutcomes` (its last key)
    is spliced in as :meth:`BatchOutcomes.rows_json`, so the line is
    byte for byte what ``json.dumps`` would write for ``rows()``.
    """
    outcomes = response.get("outcomes")
    # An exact type test: isinstance against the Sequence ABC costs
    # several times more on every answer that carries no outcomes.
    if type(outcomes) is BatchOutcomes:
        head = {
            key: value for key, value in response.items() if key != "outcomes"
        }
        return (
            json.dumps(head, separators=(",", ":"))[:-1]
            + ',"outcomes":'
            + outcomes.rows_json()
            + "}"
        )
    return json.dumps(response, sort_keys=False, separators=(",", ":"))


def error_response(code: str, message: str) -> Payload:
    """A failure payload with a stable error code (router/frontend use)."""
    return _error(code, message)


def serialize_response(response: Payload) -> str:
    """Serialize a response payload to its single wire line."""
    return _serialize(response)


def parse_response(line: str) -> Tuple[bool, Payload]:
    """Client-side helper: parse a response line into ``(ok, payload)``.

    Raises:
        ConfigurationError: On malformed response JSON.
    """
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(f"invalid response JSON: {exc}") from None
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ConfigurationError(f"malformed response: {line!r}")
    return bool(payload["ok"]), payload
