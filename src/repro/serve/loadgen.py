"""Deterministic load generator for the serving layer.

``repro serve loadgen`` drives a running server (single-process or
sharded) over TCP with a reproducible workload: every session streams a
seeded plateau-shaped Mem/Uop series — the same synthetic shape the
equivalence property tests use — as ``sample_batch`` requests, or as
single-sample ``sample`` requests at batch size 1.

Determinism is the point, not an accident: the sample series depends
only on ``seed`` and the session index, and the generator digests every
outcome row (SHA-256 over interval/phase/prediction/frequency) into a
single hex string.  Two runs against *any* topology — one worker or
eight, batch size 1 or 64 — must produce the same digest, which is how
the scale-out benchmark proves the batched + sharded path is bit-for-bit
equivalent to single-sample serving.

In verify mode every session also finishes with a checkpoint round
trip — ``predict``, ``stats``, ``snapshot``, ``restore``, and a second
``predict`` on the restored twin — so every wire op has an executable
spec and losslessness is asserted end to end, over the wire, under
load.  The extra ops do not touch the outcome digest (only sample
outcomes are digested), so digests stay comparable across verify and
older generators.

**Chaos mode** extends the same determinism to failure injection: a
:class:`ChaosSchedule` kills chosen workers after exact request counts,
and the generator recovers by polling the session back into existence
(auto-restart restores it from its last checkpoint) and replaying the
tail of the series.  Replayed outcomes must be *identical* to the rows
already digested — the checkpoint/replay path is bit-lossless, so the
outcome digest of a chaos run equals the digest of an undisturbed run.
With ``connections=1`` the request counter is driven by a single
thread, so kills land at exact, reproducible points between requests;
with concurrent connections a kill can race an in-flight request and
the server may restore *ahead* of what that client observed (its
response was lost), in which case the skipped rows leave the digest
incomparable — that race is the documented replay-window caveat.

Only throughput numbers (``elapsed_s`` and the derived rates) come from
the injected wall clock; everything the digest covers is clock-free.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.serve.frontends import DEFAULT_CLOCK
from repro.serve.session import Clock

#: Plateau levels for the synthetic Mem/Uop series — one per phase band
#: of the default classifier, so every phase gets exercised.
_PLATEAU_LEVELS: Tuple[float, ...] = (0.001, 0.011, 0.02, 0.03, 0.045, 0.06)

#: Error codes the generator treats as transient when a recovery policy
#: is active: the shard exists but cannot answer *right now*.
_RECOVERABLE_ERRORS: Tuple[str, ...] = (
    "worker_unavailable",
    "worker_recovering",
)

#: How many times recovery polls a session before giving up, and how
#: long it sleeps between polls (worker restart + checkpoint restore is
#: typically well under a second).
DEFAULT_RECOVERY_ATTEMPTS = 400
DEFAULT_RECOVERY_DELAY_S = 0.05

#: Injectable sleep — by reference, mirroring ``DEFAULT_CLOCK``, so
#: tests can drop the waiting entirely.
DEFAULT_SLEEP: Callable[[float], None] = time.sleep


def generate_series(n: int, seed: int = 0) -> List[float]:
    """A deterministic plateau-shaped Mem/Uop series of length ``n``.

    Phase-like plateaus (runs of one level, length 4..32) drawn from a
    seeded :class:`random.Random` — stable across processes and runs.
    """
    if n < 0:
        raise ConfigurationError(f"series length must be >= 0, got {n}")
    rng = Random(seed)
    series: List[float] = []
    while len(series) < n:
        level = _PLATEAU_LEVELS[rng.randrange(len(_PLATEAU_LEVELS))]
        length = rng.randint(4, 32)
        series.extend([level] * min(length, n - len(series)))
    return series


@dataclass(frozen=True)
class ChaosEvent:
    """Kill ``worker`` once the generator has issued ``after_requests``.

    The trigger is the generator's *own* request counter — not wall
    time — so a schedule is exactly reproducible run to run (with a
    single connection, to the request).
    """

    after_requests: int
    worker: int

    def __post_init__(self) -> None:
        if self.after_requests < 1:
            raise ConfigurationError(
                f"after_requests must be >= 1, got {self.after_requests}"
            )
        if self.worker < 0:
            raise ConfigurationError(
                f"worker must be >= 0, got {self.worker}"
            )


def parse_chaos_event(spec: str) -> ChaosEvent:
    """Parse a ``REQUESTS:WORKER`` CLI spec into a :class:`ChaosEvent`."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ConfigurationError(
            f"chaos event must be 'REQUESTS:WORKER', got {spec!r}"
        )
    try:
        after_requests, worker = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"chaos event must be 'REQUESTS:WORKER' with integers, "
            f"got {spec!r}"
        ) from None
    return ChaosEvent(after_requests=after_requests, worker=worker)


class ChaosSchedule:
    """A deterministic worker-kill schedule driven by the request count.

    ``kill`` is the failure injector (typically
    ``ShardedServer.kill_worker``); each event fires exactly once, the
    first time the generator's cumulative request count reaches its
    threshold.  Thread-safe: with several connections any thread may
    cross a threshold, and the kill runs outside the counter lock so a
    slow terminate cannot stall other connections' accounting.
    """

    def __init__(
        self, kill: Callable[[int], None], events: Sequence[ChaosEvent]
    ) -> None:
        self._kill = kill
        self._pending = sorted(events, key=lambda event: event.after_requests)
        self._fired: List[ChaosEvent] = []
        self._requests = 0
        self._lock = threading.Lock()

    @property
    def requests(self) -> int:
        """Requests noted so far."""
        with self._lock:
            return self._requests

    @property
    def fired(self) -> Tuple[ChaosEvent, ...]:
        """Events that have fired, in firing order."""
        with self._lock:
            return tuple(self._fired)

    @property
    def pending(self) -> Tuple[ChaosEvent, ...]:
        """Events still waiting for their request threshold."""
        with self._lock:
            return tuple(self._pending)

    def note_request(self) -> None:
        """Count one request; fire every event whose threshold passed."""
        to_fire: List[ChaosEvent] = []
        with self._lock:
            self._requests += 1
            while (
                self._pending
                and self._pending[0].after_requests <= self._requests
            ):
                to_fire.append(self._pending.pop(0))
        for event in to_fire:
            self._kill(event.worker)
            with self._lock:
                self._fired.append(event)


@dataclass(frozen=True)
class _RecoveryPolicy:
    """How persistently the generator chases a recovering session."""

    attempts: int
    delay_s: float
    sleep: Callable[[float], None]


@dataclass(frozen=True)
class LoadgenResult:
    """Outcome of one load-generator run.

    ``outcome_digest`` is the topology-independent fingerprint: SHA-256
    over every session's outcome rows, in session order.  Equal digests
    across worker counts and batch sizes certify bit-for-bit equivalent
    serving — including chaos runs, whose replayed rows must reproduce
    the originals exactly.  ``recoveries`` counts resync-and-replay
    episodes; ``replayed_samples`` the samples re-sent because a kill
    rolled the session back to its last checkpoint.
    """

    sessions: int
    samples_per_session: int
    batch_size: int
    connections: int
    requests: int
    samples: int
    errors: int
    elapsed_s: float
    outcome_digest: str
    recoveries: int = 0
    replayed_samples: int = 0

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready summary (machine-readable benchmark record)."""
        return {
            "sessions": self.sessions,
            "samples_per_session": self.samples_per_session,
            "batch_size": self.batch_size,
            "connections": self.connections,
            "requests": self.requests,
            "samples": self.samples,
            "errors": self.errors,
            "elapsed_s": self.elapsed_s,
            "samples_per_s": self.samples_per_s,
            "requests_per_s": self.requests_per_s,
            "outcome_digest": self.outcome_digest,
            "recoveries": self.recoveries,
            "replayed_samples": self.replayed_samples,
        }


class _Connection:
    """Blocking line-oriented client socket."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port))
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, request: Dict[str, object]) -> Dict[str, object]:
        payload = json.loads(self.rpc_raw(request))
        if not isinstance(payload, dict):
            raise ConfigurationError(f"malformed response: {payload!r}")
        return payload

    def rpc_raw(self, request: Dict[str, object]) -> str:
        """One round trip, response returned as its raw line.

        The throughput path uses this to skip response parsing: the
        server's own serializer always leads with the ``ok`` key, so
        success is a prefix check on the raw line.
        """
        self._file.write(json.dumps(request, separators=(",", ":")) + "\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConfigurationError("server closed the connection")
        return line

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


def _outcome_rows(response: Dict[str, object]) -> List[str]:
    """Digest rows for one sample/sample_batch response."""
    rows: List[str] = []
    if response.get("op") == "sample_batch":
        outcomes = response.get("outcomes")
        if not isinstance(outcomes, list):
            raise ConfigurationError("sample_batch response missing outcomes")
        for outcome in outcomes:
            interval, phase, predicted, freq, degraded, hit = outcome
            rows.append(
                f"{interval}:{phase}:{predicted}:{freq}:"
                f"{int(bool(degraded))}:{'-' if hit is None else int(bool(hit))}"
            )
    else:
        hit = response.get("hit")
        rows.append(
            f"{response['interval']}:{response['phase']}:"
            f"{response['predicted']}:{response['frequency_mhz']}:"
            f"{int(bool(response.get('degraded')))}:"
            f"{'-' if hit is None else int(bool(hit))}"
        )
    return rows


_Rpc = Callable[[Dict[str, object]], Dict[str, object]]


def _verify_checkpoint(
    rpc: _Rpc,
    session_id: str,
    expected_samples: int,
    recoverable: bool = False,
) -> Tuple[int, bool]:
    """Exercise predict/stats/snapshot/restore against a fed session.

    Verify mode is the protocol's executable spec: every wire op must be
    drivable by the generator, and the checkpoint ops carry a semantic
    check — a session restored over the wire must predict exactly what
    the original predicts (losslessness, observed end to end).  Returns
    ``(errors, rolled_back)``; outcome digests are unaffected because
    only sample outcomes are digested.

    With ``recoverable``, a sample count *below* ``expected_samples``
    is not an error: a kill landed inside this epilogue and the
    restarted worker adopted the session from its last checkpoint.  The
    caller replays the tail and runs the epilogue again.
    """
    errors = 0

    def is_rollback(value: object) -> bool:
        return (
            recoverable
            and isinstance(value, int)
            and not isinstance(value, bool)
            and value < expected_samples
        )

    predict = rpc({"op": "predict", "session": session_id})
    if not predict.get("ok"):
        return errors + 1, False

    stats = rpc({"op": "stats", "session": session_id})
    session_stats = stats.get("stats")
    samples = (
        session_stats.get("samples")
        if isinstance(session_stats, dict)
        else None
    )
    if is_rollback(samples):
        return errors, True
    if not stats.get("ok") or samples != expected_samples:
        errors += 1

    snapshot = rpc({"op": "snapshot", "session": session_id})
    if not snapshot.get("ok"):
        return errors + 1, False
    checkpoint = snapshot.get("checkpoint")
    if isinstance(checkpoint, dict) and is_rollback(checkpoint.get("samples")):
        return errors, True

    restore = rpc({"op": "restore", "checkpoint": snapshot["checkpoint"]})
    if not restore.get("ok"):
        return errors + 1, False
    restored_id = restore["session"]
    if restore.get("samples") != expected_samples:
        errors += 1

    twin = rpc({"op": "predict", "session": restored_id})
    if not twin.get("ok") or (
        twin.get("predicted") != predict.get("predicted")
        or twin.get("frequency_mhz") != predict.get("frequency_mhz")
    ):
        errors += 1

    bye = rpc({"op": "bye", "session": restored_id})
    if not bye.get("ok"):
        errors += 1
    return errors, False


def _drive_session(
    conn: _Connection,
    session_index: int,
    samples_per_session: int,
    batch_size: int,
    governor: str,
    seed: int,
    verify: bool,
    chaos: Optional[ChaosSchedule] = None,
    policy: Optional[_RecoveryPolicy] = None,
) -> Tuple[int, int, int, str, int, int]:
    """Run one session to completion.

    Returns ``(requests, samples, errors, digest, recoveries,
    replayed)``.  With a recovery policy, ``worker_unavailable`` /
    ``worker_recovering`` answers trigger a resync: poll the session's
    ``stats`` until the restarted worker restores it, then replay the
    series from the restored sample count.  Replayed rows must equal
    the rows already recorded for those intervals — a mismatch counts
    as an error, because it would mean the checkpoint/replay path is
    not lossless.
    """
    requests = 0
    errors = 0
    samples = 0
    recoveries = 0
    replayed = 0
    rows: Dict[int, str] = {}
    series = generate_series(samples_per_session, seed + session_index)

    def call(request: Dict[str, object]) -> Dict[str, object]:
        nonlocal requests
        response = conn.rpc(request)
        requests += 1
        if chaos is not None:
            chaos.note_request()
        return response

    def call_with_recovery(request: Dict[str, object]) -> Dict[str, object]:
        response = call(request)
        if policy is None:
            return response
        attempt = 0
        while (
            not response.get("ok")
            and response.get("error") in _RECOVERABLE_ERRORS
            and attempt < policy.attempts
        ):
            policy.sleep(policy.delay_s)
            attempt += 1
            response = call(request)
        return response

    def resync(session_id: str) -> Optional[int]:
        """Poll until the session answers again; its sample count, or None."""
        assert policy is not None
        for _ in range(policy.attempts):
            response = call({"op": "stats", "session": session_id})
            if response.get("ok"):
                stats = response.get("stats")
                if isinstance(stats, dict):
                    value = stats.get("samples")
                    if isinstance(value, int) and not isinstance(value, bool):
                        return value
                return None
            if response.get("error") not in _RECOVERABLE_ERRORS:
                return None
            policy.sleep(policy.delay_s)
        return None

    response = call_with_recovery({"op": "hello", "governor": governor})
    if not response.get("ok"):
        return requests, samples, errors + 1, "", recoveries, replayed
    session_id = str(response["session"])

    index = 0
    aborted = False
    verified = False
    while True:
        while index < len(series):
            chunk = series[index : index + batch_size]
            if batch_size > 1:
                request: Dict[str, object] = {
                    "op": "sample_batch",
                    "session": session_id,
                    "start_interval": index,
                    "samples": chunk,
                }
            else:
                request = {
                    "op": "sample",
                    "session": session_id,
                    "interval": index,
                    "mem_per_uop": chunk[0],
                }
                chunk = chunk[:1]
            if verify:
                response = call(request)
                if not response.get("ok"):
                    if (
                        policy is not None
                        and response.get("error") in _RECOVERABLE_ERRORS
                    ):
                        resumed = resync(session_id)
                        if resumed is None:
                            errors += 1
                            aborted = True
                            break
                        recoveries += 1
                        replayed += max(0, index - resumed)
                        index = resumed
                        continue
                    errors += 1
                    index += len(chunk)
                    continue
                for offset, row in enumerate(_outcome_rows(response)):
                    interval = index + offset
                    previous = rows.get(interval)
                    if previous is not None and previous != row:
                        # Replay produced a different outcome for an
                        # interval already served — losslessness broken.
                        errors += 1
                    rows[interval] = row
                index += len(chunk)
            else:
                # Throughput mode: the serializer leads with ``ok``, so
                # a prefix check replaces a full JSON parse.
                requests += 1
                if not conn.rpc_raw(request).startswith('{"ok":true'):
                    errors += 1
                    index += len(chunk)
                    continue
                samples += len(chunk)
                index += len(chunk)
        if aborted or policy is None:
            break
        # A kill can land after the last sample but before (or during)
        # the verify epilogue; confirm the server really holds the full
        # series and replay the tail if a restart rolled it back.
        resumed = resync(session_id)
        if resumed is None:
            errors += 1
            aborted = True
            break
        if resumed < len(series):
            recoveries += 1
            replayed += len(series) - resumed
            index = resumed
            continue
        if not verify:
            break
        # Run the epilogue inside the loop: a kill landing *during* it
        # rolls the session back to its last checkpoint, which the
        # epilogue reports as ``rolled_back`` — go around again, where
        # the resync above replays the tail before re-verifying.
        epilogue_errors, rolled_back = _verify_checkpoint(
            call_with_recovery, session_id, len(series), recoverable=True
        )
        if rolled_back:
            continue
        errors += epilogue_errors
        verified = True
        break

    if verify:
        samples = len(rows)

    if verify and not aborted and not verified:
        epilogue_errors, _ = _verify_checkpoint(
            call_with_recovery, session_id, len(series)
        )
        errors += epilogue_errors

    bye_request: Dict[str, object] = {"op": "bye", "session": session_id}
    # After an abandoned recovery the worker is gone for good; don't
    # burn the whole retry budget again on the farewell.
    response = call(bye_request) if aborted else call_with_recovery(bye_request)
    if not response.get("ok"):
        errors += 1

    if verify:
        digest = hashlib.sha256()
        for interval in sorted(rows):
            digest.update(rows[interval].encode("utf-8"))
            digest.update(b"\n")
        hexdigest = digest.hexdigest()
    else:
        hexdigest = ""
    return requests, samples, errors, hexdigest, recoveries, replayed


def run_loadgen(
    host: str,
    port: int,
    *,
    sessions: int = 8,
    samples_per_session: int = 512,
    batch_size: int = 16,
    connections: int = 4,
    governor: str = "gpht",
    seed: int = 0,
    verify: bool = True,
    clock: Clock = DEFAULT_CLOCK,
    chaos: Optional[ChaosSchedule] = None,
    recovery_attempts: int = DEFAULT_RECOVERY_ATTEMPTS,
    recovery_delay_s: float = DEFAULT_RECOVERY_DELAY_S,
    sleep: Callable[[float], None] = DEFAULT_SLEEP,
) -> LoadgenResult:
    """Drive ``host:port`` with a deterministic workload; measure throughput.

    ``connections`` client threads each hold one TCP connection;
    sessions are assigned to connections round-robin and driven to
    completion one after another on their thread.  The outcome digest is
    combined in session-index order, so it is independent of thread
    scheduling, connection count, batch size and server topology.

    With ``verify=False`` the generator runs in pure throughput mode:
    responses get a success prefix check instead of a JSON parse and no
    digest is computed (``outcome_digest`` is empty) — use it when
    measuring server capacity so client-side verification cost does not
    pollute the number.

    With a ``chaos`` schedule (requires verify mode), workers are killed
    at exact request counts and sessions are recovered by resync and
    replay; against a server running with auto-restart and
    checkpointing, the run must finish with zero errors and the *same*
    outcome digest as an undisturbed run — use ``connections=1`` for a
    fully deterministic schedule (see the module docstring for the
    concurrent-connection replay-window caveat).

    Raises:
        ConfigurationError: On invalid parameters (e.g. a batch size
            below 1, or chaos without verify).
    """
    if sessions < 1:
        raise ConfigurationError(f"sessions must be >= 1, got {sessions}")
    if samples_per_session < 1:
        raise ConfigurationError(
            f"samples_per_session must be >= 1, got {samples_per_session}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if connections < 1:
        raise ConfigurationError(
            f"connections must be >= 1, got {connections}"
        )
    if chaos is not None and not verify:
        raise ConfigurationError(
            "chaos schedules require verify mode (replayed outcomes must "
            "be checked against the recorded rows)"
        )
    if recovery_attempts < 1:
        raise ConfigurationError(
            f"recovery_attempts must be >= 1, got {recovery_attempts}"
        )
    if recovery_delay_s < 0:
        raise ConfigurationError(
            f"recovery_delay_s must be >= 0, got {recovery_delay_s}"
        )
    connections = min(connections, sessions)
    policy = (
        _RecoveryPolicy(
            attempts=recovery_attempts, delay_s=recovery_delay_s, sleep=sleep
        )
        if chaos is not None
        else None
    )

    per_session_digests: List[Optional[str]] = [None] * sessions
    totals = [0, 0, 0, 0, 0]  # requests, samples, errors, recoveries, replayed
    totals_lock = threading.Lock()

    def worker(connection_index: int, assigned: Sequence[int]) -> None:
        conn = _Connection(host, port)
        try:
            for session_index in assigned:
                requests, samples, errors, digest, recoveries, replayed = (
                    _drive_session(
                        conn,
                        session_index,
                        samples_per_session,
                        batch_size,
                        governor,
                        seed,
                        verify,
                        chaos=chaos,
                        policy=policy,
                    )
                )
                per_session_digests[session_index] = digest
                with totals_lock:
                    totals[0] += requests
                    totals[1] += samples
                    totals[2] += errors
                    totals[3] += recoveries
                    totals[4] += replayed
        finally:
            conn.close()

    threads = []
    started = clock()
    for connection_index in range(connections):
        assigned = [
            s for s in range(sessions) if s % connections == connection_index
        ]
        thread = threading.Thread(
            target=worker,
            args=(connection_index, assigned),
            name=f"repro-loadgen-{connection_index}",
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    elapsed = clock() - started

    if verify:
        combined = hashlib.sha256()
        for digest in per_session_digests:
            combined.update((digest or "absent").encode("ascii"))
            combined.update(b"\n")
        outcome_digest = combined.hexdigest()
    else:
        outcome_digest = ""
    return LoadgenResult(
        sessions=sessions,
        samples_per_session=samples_per_session,
        batch_size=batch_size,
        connections=connections,
        requests=totals[0],
        samples=totals[1],
        errors=totals[2],
        elapsed_s=elapsed,
        outcome_digest=outcome_digest,
        recoveries=totals[3],
        replayed_samples=totals[4],
    )
