"""Online streaming phase-prediction service (``repro serve``).

The serving layer turns the repo's offline phase-prediction stack into a
long-running service: each client holds a :class:`PhaseSession` (live
predictor + governor + phase table), feeds it counter samples — one at a
time or in ordered batches — over a versioned line-delimited JSON
protocol (stdio or TCP), and can checkpoint/restore the session
losslessly at any point.  ``repro serve tcp --workers N`` scales out to
N worker processes behind a consistent-hash router
(:mod:`repro.serve.shard`).

Guarantees:

* **online == offline** — a session fed a ``Mem/Uop`` series emits
  bit-for-bit the prediction sequence of
  :func:`repro.analysis.accuracy.evaluate_predictor`;
* **batched == unbatched** — any partition of a sample stream into
  ``sample_batch`` requests yields exactly the outcomes of the same
  stream fed one ``sample`` at a time;
* **lossless checkpoints** — ``restore(snapshot(s))`` continues exactly
  where ``s`` stopped, including full GPHT state (GPHR, PHT tags, LRU
  order);
* **overload protection** — session ceiling, idle eviction, bounded
  per-connection queues and latency-budget degradation to last-value
  prediction;
* **shard isolation** — a worker death degrades only its own shard
  (``worker_unavailable``), and with auto-restart the router respawns
  the worker and restores its sessions from durable checkpoints
  (``worker_recovering`` while it does), bounding the loss to one
  checkpoint cadence of replayable samples;
* **lossless migration** — the router-level ``migrate`` op moves a live
  session between workers via drain–snapshot–restore, preserving its id
  and every bit of predictor state.

See ``docs/serving.md`` for the wire protocol and workflows.
"""

from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointStore,
    StoredCheckpoint,
    checkpoint_from_json,
    checkpoint_to_json,
    validate_checkpoint,
)
from repro.serve.frontends import (
    DEFAULT_QUEUE_DEPTH,
    relay_lines,
    serve_stdio,
    serve_tcp,
    serve_tcp_async,
)
from repro.serve.loadgen import (
    ChaosEvent,
    ChaosSchedule,
    LoadgenResult,
    generate_series,
    run_loadgen,
)
from repro.serve.manager import (
    DEFAULT_MAX_SESSIONS,
    MIGRATED_CLOSE_REASON,
    OverloadedError,
    SessionManager,
    UnknownSessionError,
)
from repro.serve.protocol import (
    MAX_BATCH_SAMPLES,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    handle_line,
    handle_request,
    parse_response,
)
from repro.serve.replay import (
    ReplayReport,
    ReplaySample,
    extract_samples,
    load_trace,
    replay_trace,
)
from repro.serve.session import (
    MAX_GPHR_DEPTH,
    MAX_HISTORY_LENGTH,
    MAX_MARKOV_ORDER,
    MAX_PHT_ENTRIES,
    MAX_WINDOW_SIZE,
    SESSION_GOVERNORS,
    BatchOutcomes,
    PhaseSession,
    SampleOutcome,
    SessionConfig,
)
from repro.serve.shard import (
    DEFAULT_CHECKPOINT_EVERY,
    ShardedServer,
    aggregate_stats,
    merge_metrics,
    mint_shard_session_id,
    run_sharded,
    shard_for,
    worker_ceilings,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "BatchOutcomes",
    "ChaosEvent",
    "ChaosSchedule",
    "Checkpoint",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_QUEUE_DEPTH",
    "LoadgenResult",
    "MAX_BATCH_SAMPLES",
    "MAX_GPHR_DEPTH",
    "MAX_HISTORY_LENGTH",
    "MAX_MARKOV_ORDER",
    "MAX_PHT_ENTRIES",
    "MAX_WINDOW_SIZE",
    "MIGRATED_CLOSE_REASON",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "PhaseSession",
    "ReplayReport",
    "ReplaySample",
    "SESSION_GOVERNORS",
    "SUPPORTED_PROTOCOLS",
    "SampleOutcome",
    "SessionConfig",
    "SessionManager",
    "ShardedServer",
    "StoredCheckpoint",
    "UnknownSessionError",
    "aggregate_stats",
    "checkpoint_from_json",
    "checkpoint_to_json",
    "extract_samples",
    "generate_series",
    "handle_line",
    "handle_request",
    "load_trace",
    "merge_metrics",
    "mint_shard_session_id",
    "parse_response",
    "relay_lines",
    "replay_trace",
    "run_loadgen",
    "run_sharded",
    "serve_stdio",
    "serve_tcp",
    "serve_tcp_async",
    "shard_for",
    "validate_checkpoint",
    "worker_ceilings",
]
