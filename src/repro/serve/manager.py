"""Session lifecycle: creation, lookup, idle eviction, overload limits.

The :class:`SessionManager` is the server-side registry every frontend
(stdio, TCP) dispatches into.  It enforces the service's protection
envelope:

* **overload** — at most ``max_sessions`` live sessions; a ``hello``
  beyond that is rejected with :class:`OverloadedError` (after first
  sweeping idle sessions), which the wire protocol maps to
  ``server_overloaded``;
* **idle eviction** — sessions untouched for ``idle_timeout_s`` are
  closed on the next sweep, so abandoned clients cannot pin memory.
  The wire dispatcher sweeps on *every* handled request (not only when
  a slot is reserved by ``hello``/``restore``), so eviction fires even
  when traffic consists solely of samples to other live sessions.

Time is injectable: with no ``clock`` the manager runs on a logical
clock that advances one unit per handled request, keeping every test
(and any clock-free deployment) deterministic.  Frontends inject
``time.monotonic`` for wall-clock idle timeouts and latency histograms.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.numerics import shown
from repro.obs.events import SessionClosed, SessionOpened, SessionRestored
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.checkpoint import CheckpointStore
from repro.serve.session import Clock, Payload, PhaseSession, SessionConfig

#: Default live-session ceiling.
DEFAULT_MAX_SESSIONS = 64

#: ``close()`` reason marking a migration hand-off.  Unlike every other
#: close, a migration must *keep* the session's durable checkpoint: the
#: target worker takes ownership of the store entry and overwrites it
#: when it registers the restored session.
MIGRATED_CLOSE_REASON = "migrated"

#: Server-minted id shape (``s<seq>`` / ``s<seq>x<k>``); used to keep
#: the minting sequence ahead of ids adopted via :meth:`restore_as`.
_MINTED_ID_RE = re.compile(r"^s([0-9]+)(?:x[0-9]+)?$")


class OverloadedError(ReproError):
    """The server is at its live-session ceiling."""


class UnknownSessionError(ReproError):
    """The named session does not exist (never did, or was closed)."""


class _Entry:
    """One live session plus its bookkeeping."""

    __slots__ = ("session", "last_used", "checkpointed_samples")

    def __init__(self, session: PhaseSession, last_used: float) -> None:
        self.session = session
        self.last_used = last_used
        # Sample count at the last durable checkpoint; drives the
        # checkpoint cadence (see SessionManager.maybe_checkpoint).
        self.checkpointed_samples = session.samples


class SessionManager:
    """Registry of live :class:`PhaseSession` objects.

    Args:
        max_sessions: Live-session ceiling (overload protection).
        idle_timeout_s: Evict sessions untouched for this long; ``None``
            disables eviction.  Measured on ``clock`` when provided,
            otherwise on the logical request clock (one unit per
            request).  The sweep the dispatcher runs on every request
            is O(1) until an eviction can be due: it scans the sessions
            only once a lower bound on their last use is past the
            timeout, and then evicts what a full scan would.
        clock: Injectable time source shared with every session it
            creates; ``None`` keeps the manager fully deterministic.
        tracer: Trace collector for session lifecycle events.
        metrics: Metrics registry; a private one is created when omitted.
        id_minter: Maps the manager's monotonically increasing sequence
            number to a session id.  The default mints ``s1``, ``s2``,
            ...; shard workers inject
            :func:`repro.serve.shard.mint_shard_session_id` so every id
            consistent-hashes back to the worker that owns it.
        checkpoint_store: Durable checkpoint store.  When set, every
            session gets an initial checkpoint at registration (so the
            replay window is bounded from the first sample), the
            dispatcher re-checkpoints on the ``checkpoint_every``
            cadence, and closing/evicting a session drops its entry —
            except a :data:`MIGRATED_CLOSE_REASON` close, which hands
            the entry to the migration target.
        checkpoint_every: Re-checkpoint a session once it has advanced
            this many samples past its last durable checkpoint.  ``0``
            disables cadence checkpointing (initial checkpoints are
            still written when a store is configured).
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        idle_timeout_s: Optional[float] = None,
        clock: Optional[Clock] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        id_minter: Optional[Callable[[int], str]] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ConfigurationError(
                f"idle timeout must be > 0, got {idle_timeout_s}"
            )
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self._max_sessions = max_sessions
        self._idle_timeout_s = idle_timeout_s
        self._clock = clock
        self._tracer = tracer
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._id_minter = id_minter
        self._checkpoint_store = checkpoint_store
        self._checkpoint_every = checkpoint_every
        self._sessions: Dict[str, _Entry] = {}
        # At most every live entry's last_used (lowered on registration
        # and in get(), so a clock stepping backwards cannot hide an
        # expiry; recomputed after each full scan).  evict_idle() skips
        # its scan while even this bound is within the timeout.
        self._last_used_floor = math.inf
        self._next_id = 1
        self._requests = 0

    # -- time ---------------------------------------------------------------

    @property
    def clock(self) -> Optional[Clock]:
        """The injected time source (``None`` = logical clock)."""
        return self._clock

    def now(self) -> float:
        """Current time: the injected clock, or the logical request count."""
        if self._clock is not None:
            return self._clock()
        return float(self._requests)

    def tick(self) -> None:
        """Advance the logical clock; called once per handled request."""
        self._requests += 1

    # -- lifecycle ----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The shared metrics registry."""
        return self._metrics

    @property
    def active_sessions(self) -> int:
        """Number of live sessions."""
        return len(self._sessions)

    def session_ids(self) -> Tuple[str, ...]:
        """Ids of every live session, in creation order."""
        return tuple(self._sessions)

    def open(self, config: Optional[SessionConfig] = None) -> PhaseSession:
        """Create a session, enforcing the overload ceiling.

        Raises:
            OverloadedError: When the server is full even after evicting
                idle sessions.
        """
        session = PhaseSession(
            config,
            session_id=self._reserve_slot(),
            clock=self._clock,
            tracer=self._tracer,
            metrics=self._metrics,
        )
        return self._register(session)

    def restore(self, checkpoint: Payload) -> PhaseSession:
        """Open a session from a checkpoint (same overload rules).

        Raises:
            ConfigurationError: On a malformed checkpoint.
            OverloadedError: When the server is full.
        """
        session = PhaseSession.from_snapshot(
            checkpoint,
            session_id=self._reserve_slot(),
            clock=self._clock,
            tracer=self._tracer,
            metrics=self._metrics,
        )
        return self._register(session)

    def restore_as(self, session_id: str, checkpoint: Payload) -> PhaseSession:
        """Restore a checkpoint *under its original id* (recovery path).

        Unlike :meth:`restore`, which mints a fresh id, this re-opens
        the session as the same wire identity — the contract worker
        recovery and session migration depend on: clients keep talking
        to the id they opened.  The minting sequence is bumped past the
        adopted id so a later ``hello`` can never collide with it.

        Raises:
            ConfigurationError: On a malformed checkpoint, an empty id,
                or an id that is already live on this manager.
            OverloadedError: When the server is full.
        """
        if not session_id:
            raise ConfigurationError("session id must be a non-empty string")
        if session_id in self._sessions:
            raise ConfigurationError(
                f"session {session_id!r} is already live on this server; "
                "close it before restoring over it"
            )
        self._ensure_capacity()
        session = PhaseSession.from_snapshot(
            checkpoint,
            session_id=session_id,
            clock=self._clock,
            tracer=self._tracer,
            metrics=self._metrics,
        )
        match = _MINTED_ID_RE.match(session_id)
        if match is not None:
            self._next_id = max(self._next_id, int(match.group(1)) + 1)
        self._register(session)
        self._metrics.counter("serve.sessions_restored").inc()
        if self._tracer.enabled:
            self._tracer.emit(
                SessionRestored(
                    interval=self._requests,
                    session=session_id,
                    samples=session.samples,
                )
            )
        return session

    def _reserve_slot(self) -> str:
        """Sweep idle sessions, enforce the ceiling, mint the next id."""
        self._ensure_capacity()
        if self._id_minter is not None:
            session_id = self._id_minter(self._next_id)
        else:
            session_id = f"s{self._next_id}"
        self._next_id += 1
        return session_id

    def _ensure_capacity(self) -> None:
        """Sweep idle sessions, then enforce the live-session ceiling."""
        self.evict_idle()
        if len(self._sessions) >= self._max_sessions:
            raise OverloadedError(
                f"server is at its session ceiling ({self._max_sessions}); "
                "close a session or retry later"
            )

    def maybe_checkpoint(self, session_id: str) -> bool:
        """Persist ``session_id`` if it advanced a full cadence.

        Called by the wire dispatcher after every successful request
        that names a session; cheap when nothing is due (one dict
        lookup and an integer compare).  Returns whether a checkpoint
        was written.
        """
        store = self._checkpoint_store
        if store is None or self._checkpoint_every <= 0:
            return False
        entry = self._sessions.get(session_id)
        if entry is None:
            return False
        session = entry.session
        if session.samples - entry.checkpointed_samples < (
            self._checkpoint_every
        ):
            return False
        store.save(session_id, session.snapshot())
        entry.checkpointed_samples = session.samples
        self._metrics.counter("serve.checkpoints_written").inc()
        return True

    def _register(self, session: PhaseSession) -> PhaseSession:
        now = self.now()
        self._sessions[session.session_id] = _Entry(session, now)
        if now < self._last_used_floor:
            self._last_used_floor = now
        if self._checkpoint_store is not None:
            # Initial checkpoint, on disk before the open is answered:
            # from then on the session survives a worker death with a
            # replay window of at most checkpoint_every samples (plus
            # any in-flight batch).
            self._checkpoint_store.save(session.session_id, session.snapshot())
            self._checkpoint_store.flush()
            self._metrics.counter("serve.checkpoints_written").inc()
        self._metrics.counter("serve.sessions_opened").inc()
        self._metrics.gauge("serve.sessions_active").set(
            float(len(self._sessions))
        )
        if self._tracer.enabled:
            self._tracer.emit(
                SessionOpened(
                    interval=self._requests,
                    session=session.session_id,
                    governor=session.config.governor,
                    policy=session.config.policy,
                )
            )
        return session

    def get(self, session_id: str) -> PhaseSession:
        """Look up a live session and refresh its idle timer.

        Raises:
            UnknownSessionError: If the id names no live session.
        """
        entry = self._sessions.get(session_id)
        if entry is None:
            raise UnknownSessionError(
                f"unknown session {shown(session_id)} (closed, evicted or "
                "never opened)"
            )
        now = self.now()
        entry.last_used = now
        if now < self._last_used_floor:
            self._last_used_floor = now
        return entry.session

    def close(self, session_id: str, reason: str = "bye") -> PhaseSession:
        """Close a session explicitly.

        Raises:
            UnknownSessionError: If the id names no live session.
        """
        entry = self._sessions.pop(session_id, None)
        if entry is None:
            raise UnknownSessionError(f"unknown session {shown(session_id)}")
        if (
            self._checkpoint_store is not None
            and reason != MIGRATED_CLOSE_REASON
        ):
            self._checkpoint_store.delete(session_id)
        self._note_closed(entry.session, reason)
        return entry.session

    def evict_idle(self) -> List[str]:
        """Close every session idle past the timeout; returns their ids.

        Returns at once while no session can have expired, that is,
        while the lower bound on their last use is within the timeout.
        """
        timeout = self._idle_timeout_s
        if timeout is None:
            return []
        now = self.now()
        if now - self._last_used_floor <= timeout:
            return []
        expired = [
            session_id
            for session_id, entry in self._sessions.items()
            if now - entry.last_used > timeout
        ]
        for session_id in expired:
            entry = self._sessions.pop(session_id)
            if self._checkpoint_store is not None:
                self._checkpoint_store.delete(session_id)
            self._metrics.counter("serve.sessions_evicted").inc()
            self._note_closed(entry.session, "evicted")
        self._last_used_floor = min(
            (entry.last_used for entry in self._sessions.values()),
            default=math.inf,
        )
        return expired

    def _note_closed(self, session: PhaseSession, reason: str) -> None:
        self._metrics.counter("serve.sessions_closed").inc()
        self._metrics.gauge("serve.sessions_active").set(
            float(len(self._sessions))
        )
        if self._tracer.enabled:
            self._tracer.emit(
                SessionClosed(
                    interval=self._requests,
                    session=session.session_id,
                    reason=reason,
                    samples=session.samples,
                )
            )

    # -- observability ------------------------------------------------------

    def stats(self) -> Payload:
        """Server-level statistics (the session-less ``stats`` answer)."""
        return {
            "sessions_active": len(self._sessions),
            "max_sessions": self._max_sessions,
            "idle_timeout_s": self._idle_timeout_s,
            "requests": self._requests,
            "metrics": self._metrics.to_dict(),
        }
