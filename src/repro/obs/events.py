"""Typed trace events for the runtime observability layer.

The paper's instrumentation (Section 6) synchronises three timelines —
performance-counter samples, the kernel module's DVFS decisions and the
external DAQ power trace — via sync bits on the parallel port toggled at
phase boundaries.  The simulated analogue is the **monotonic interval
index** carried by every event: all events emitted while handling PMI
*n* are stamped ``interval == n``, so independently recorded streams can
be joined exactly, the same way the paper joins counter and power traces
on the toggling phase bit.

Design constraints:

* every event is a frozen dataclass whose fields are JSON scalars
  (``str``/``int``/``float``/``bool``) — this keeps the JSONL and CSV
  exports lossless and the round trip exact;
* each event class declares a stable ``event_type`` string and registers
  itself in :data:`EVENT_TYPES`, so serialized traces can be re-hydrated
  into typed events by :func:`event_from_dict`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Mapping, Tuple, Type, TypeVar, Union

from repro.errors import ConfigurationError
from repro.numerics import as_bool, as_float, as_int, as_str, shown

#: JSON-scalar payload value — every event field must be one of these.
Scalar = Union[str, int, float, bool]

#: Registry of event-type string -> event class, populated by
#: :func:`register_event`.
EVENT_TYPES: Dict[str, Type["TraceEvent"]] = {}

_E = TypeVar("_E", bound=Type["TraceEvent"])


def register_event(cls: _E) -> _E:
    """Class decorator: register ``cls`` under its ``event_type``."""
    key = cls.event_type
    if not key:
        raise ConfigurationError(f"{cls.__name__} must declare a non-empty event_type")
    if key in EVENT_TYPES:
        raise ConfigurationError(f"duplicate event_type {key!r}")
    EVENT_TYPES[key] = cls
    return cls


@dataclass(frozen=True)
class TraceEvent:
    """Base class for all trace events.

    ``interval`` is the monotonic interval index (the software analogue
    of the paper's parallel-port sync bits).  Events emitted outside the
    PMI handler — e.g. sweep-cell lifecycle events — use their batch
    position instead, keeping the field monotone within a stream.
    """

    event_type: ClassVar[str] = ""

    interval: int

    def to_dict(self) -> Dict[str, Scalar]:
        """Flat JSON-ready payload; ``event`` key first."""
        payload: Dict[str, Scalar] = {"event": self.event_type}
        for field in dataclasses.fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload


#: The primitive that narrows an event field, by its declared type (the
#: annotation's text: this module's annotations are not evaluated).
_NARROW: Dict[str, Callable[[object, str], Scalar]] = {
    "int": as_int,
    "float": as_float,
    "bool": as_bool,
    "str": as_str,
}


def event_from_dict(payload: Mapping[str, object]) -> TraceEvent:
    """Re-hydrate a :meth:`TraceEvent.to_dict` payload into a typed event.

    The payload must carry exactly the event type's fields, each narrowed
    by its declared type; anything else raises ``ConfigurationError``.
    """
    if "event" not in payload:
        raise ConfigurationError("trace event payload missing 'event' key")
    kind = payload["event"]
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown trace event type {shown(kind)}")
    fields = dataclasses.fields(cls)
    names = {field.name for field in fields}
    unexpected = payload.keys() - names - {"event"}
    missing = names - payload.keys()
    if unexpected or missing:
        raise ConfigurationError(
            f"malformed {kind!r} event: unexpected fields "
            f"{shown(sorted(unexpected))}, missing fields {sorted(missing)}"
        )
    return cls(
        **{
            field.name: _NARROW[str(field.type)](
                payload[field.name], f"{kind} {field.name}"
            )
            for field in fields
        }
    )


@register_event
@dataclass(frozen=True)
class IntervalSampled(TraceEvent):
    """Counters read at a PMI — one per 100M-µop interval.

    ``frequency_mhz`` is the operating frequency *during* the sampled
    interval (before any decision taken at this PMI applies).
    """

    event_type: ClassVar[str] = "interval_sampled"

    time_s: float
    uops: int
    mem_transactions: int
    instructions: int
    tsc_cycles: int
    mem_per_uop: float
    upc: float
    frequency_mhz: float


@register_event
@dataclass(frozen=True)
class PhaseClassified(TraceEvent):
    """Governor classified the sampled Mem/Uop metric into a phase id."""

    event_type: ClassVar[str] = "phase_classified"

    governor: str
    metric: float
    phase: int


@register_event
@dataclass(frozen=True)
class PredictionMade(TraceEvent):
    """GPHT lookup outcome, with PHT install/evict detail.

    ``warmup`` marks lookups made while the GPHR still contains
    ``EMPTY_PHASE`` padding; these count as misses but install nothing
    (see the warm-up fix in ``core/predictors/gpht.py``).  ``occupancy``
    is the PHT occupancy *after* any install performed by this lookup.
    """

    event_type: ClassVar[str] = "prediction_made"

    predictor: str
    predicted_phase: int
    pht_hit: bool
    installed: bool
    evicted: bool
    warmup: bool
    occupancy: int


@register_event
@dataclass(frozen=True)
class DVFSTransition(TraceEvent):
    """Operating-point change requested by the governor at this PMI.

    Only emitted when the requested point differs from the current one
    (same-point requests are free and unlogged, matching
    ``DVFSInterface.request``).
    """

    event_type: ClassVar[str] = "dvfs_transition"

    from_mhz: float
    to_mhz: float
    from_voltage_v: float
    to_voltage_v: float
    transition_s: float
    predicted_phase: int


@register_event
@dataclass(frozen=True)
class PMIHandled(TraceEvent):
    """PMI handler completed (Figure 8 flow): total cost accounting."""

    event_type: ClassVar[str] = "pmi_handled"

    time_s: float
    handler_seconds: float
    transition_s: float


@register_event
@dataclass(frozen=True)
class CellStarted(TraceEvent):
    """Sweep cell dispatched for execution (``interval`` = batch index)."""

    event_type: ClassVar[str] = "cell_started"

    label: str
    kind: str
    benchmark: str


@register_event
@dataclass(frozen=True)
class CellFinished(TraceEvent):
    """Sweep cell completed or served from cache (``interval`` = batch index)."""

    event_type: ClassVar[str] = "cell_finished"

    label: str
    kind: str
    benchmark: str
    cached: bool
    seconds: float


@register_event
@dataclass(frozen=True)
class SessionOpened(TraceEvent):
    """A ``repro.serve`` phase-prediction session was opened.

    ``interval`` is the server's request sequence number (monotone per
    server, the serving analogue of the PMI interval index).
    """

    event_type: ClassVar[str] = "session_opened"

    session: str
    governor: str
    policy: str


@register_event
@dataclass(frozen=True)
class SessionClosed(TraceEvent):
    """A session ended: explicit ``bye`` or idle eviction."""

    event_type: ClassVar[str] = "session_closed"

    session: str
    reason: str
    samples: int


@register_event
@dataclass(frozen=True)
class SessionDegraded(TraceEvent):
    """A session crossed its latency budget (or recovered from it).

    ``active`` is the degradation state *after* this event;
    ``latency_s`` is the measured per-sample latency that triggered the
    change (0.0 on recovery by cool-down).
    """

    event_type: ClassVar[str] = "session_degraded"

    session: str
    active: bool
    latency_s: float


@register_event
@dataclass(frozen=True)
class WorkerDied(TraceEvent):
    """A shard worker process stopped answering (``repro.serve.shard``).

    Emitted once per worker failure by the router when it first detects
    the death — via a broken forwarding connection or the process no
    longer running.  ``interval`` is the router's request sequence
    number; requests routed to the dead shard answer
    ``worker_unavailable`` while other shards keep serving.
    """

    event_type: ClassVar[str] = "worker_died"

    worker: int
    reason: str


@register_event
@dataclass(frozen=True)
class WorkerRestarted(TraceEvent):
    """A dead shard worker was respawned by the router (auto-restart).

    Emitted after the replacement process reported its port and
    restored its shard's sessions from the checkpoint store.
    ``sessions_restored`` counts the sessions the new process adopted;
    clients replay at most one checkpoint cadence of samples per
    restored session.
    """

    event_type: ClassVar[str] = "worker_restarted"

    worker: int
    sessions_restored: int


@register_event
@dataclass(frozen=True)
class SessionMigrated(TraceEvent):
    """A live session moved workers via drain–snapshot–restore.

    Emitted by the router once the session is live on ``to_worker`` and
    closed on ``from_worker``; ``samples`` is the sample count carried
    across, so the move is provably lossless in the trace.
    """

    event_type: ClassVar[str] = "session_migrated"

    session: str
    from_worker: int
    to_worker: int
    samples: int


@register_event
@dataclass(frozen=True)
class SessionRestored(TraceEvent):
    """A session was re-opened under its original id from a checkpoint.

    Emitted by the session manager for recovery adoptions (worker boot
    restoring its shard from the checkpoint store) and migration
    restores — alongside the ordinary ``session_opened`` event.
    """

    event_type: ClassVar[str] = "session_restored"

    session: str
    samples: int


def event_types() -> Tuple[str, ...]:
    """All registered event-type strings, sorted."""
    return tuple(sorted(EVENT_TYPES))
