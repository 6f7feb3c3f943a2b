"""Sharded multi-worker TCP serving: consistent-hash router + workers.

``repro serve tcp --workers N`` scales the single-process asyncio server
out to N worker *processes*.  Each worker runs the ordinary
:func:`repro.serve.frontends.serve_tcp_async` loop with its own
:class:`~repro.serve.manager.SessionManager`; a lightweight asyncio
router accepts client connections, parses just enough of each request
line to find the session id, and forwards the line to the worker that
owns that session's shard.

**Routing rule (the topology contract):** a session id is owned by
worker ``shard_for(session_id, N)`` — a stable CRC-32 hash modulo the
worker count, identical in every process and across runs.  Workers mint
session ids that hash back to themselves
(:func:`mint_shard_session_id`), so every request that names a session
lands on the worker holding its predictor.  Requests that name no
session (``hello``, ``restore``) are placed round-robin over the *live*
workers; the worker's self-hashing id then pins all follow-up traffic.
The router additionally keeps a small override table for sessions moved
off their hash home by ``migrate``.

**Capacity:** per-worker session ceilings are carved out of the global
``max_sessions`` (:func:`worker_ceilings`), summing exactly to it.

**Failure semantics and self-healing:** with ``checkpoint_every > 0``
every worker persists its live sessions to a shared
:class:`~repro.serve.checkpoint.CheckpointStore` on a sample cadence.
When a worker dies:

* without ``auto_restart``, requests routed to its shard answer the
  stable error code ``worker_unavailable`` (one ``worker_died`` trace
  event per failure); sessions on other shards are unaffected;
* with ``auto_restart``, the router respawns the process in the
  background — requests meanwhile answer ``worker_recovering`` — and
  the replacement restores the shard's sessions from their latest
  checkpoints at boot (``worker_restarted`` event).  Clients then
  replay at most one checkpoint cadence of samples per session instead
  of losing the session.

**Migration:** the router-level ``migrate`` op moves a live session to
another worker losslessly via drain–snapshot–restore: new traffic for
the session is gated, in-flight requests drain, the source worker
snapshots, the target restores under the same id, and
the source closes the original with the reserved ``migrated`` reason so
the durable checkpoint changes owner instead of being deleted.

The session-less ``stats`` op fans out to every live worker and answers
the aggregated view (:func:`aggregate_stats`), including how many
workers are mid-restart.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import re
import shutil
import sys
import tempfile
import threading
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import ConfigurationError, ReproError
from repro.obs.events import SessionMigrated, WorkerDied, WorkerRestarted
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.checkpoint import CheckpointStore
from repro.serve.frontends import (
    DEFAULT_CLOCK,
    DEFAULT_QUEUE_DEPTH,
    relay_lines,
    serve_tcp_async,
)
from repro.serve.manager import (
    DEFAULT_MAX_SESSIONS,
    MIGRATED_CLOSE_REASON,
    SessionManager,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    error_response,
    parse_response,
    serialize_response,
)
from repro.serve.session import Payload

#: How long ``start()`` waits for every worker to report its port and
#: for the router to bind, before giving up.
DEFAULT_START_TIMEOUT_S = 30.0

#: Checkpoint cadence (samples between durable checkpoints) used when
#: ``auto_restart`` is requested without an explicit ``checkpoint_every``
#: — auto-restart without checkpoints would recover empty workers.
DEFAULT_CHECKPOINT_EVERY = 32

_MetricValue = Union[str, float]
_MetricsSnapshot = Mapping[str, Mapping[str, object]]
_Link = Tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: Fast-path extraction of a top-level ``"session"`` value.  Only
#: applied when the line contains exactly one ``"session"`` key and the
#: value matches a server-minted id (``s<seq>`` or ``s<seq>x<k>``), so a
#: crafted string value elsewhere in the request cannot misroute it.
_SESSION_RE = re.compile(r'"session"\s*:\s*"(s[0-9]+(?:x[0-9]+)?)"')

#: Ops the router must handle itself (cluster ``stats`` fan-out,
#: ``migrate``); lines that may carry one of these never take the
#: forward fast path.  A false positive (the text appearing inside a
#: string value) only costs a full parse, never a misroute.
_ROUTER_OP_RE = re.compile(r'"op"\s*:\s*"(?:stats|migrate)"')


def shard_for(session_id: str, workers: int) -> int:
    """The worker index owning ``session_id``: stable hash mod workers.

    CRC-32 is used instead of the builtin ``hash`` so the mapping is
    identical in every process (``PYTHONHASHSEED``-independent) and
    across runs — the router and all workers must agree forever.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return zlib.crc32(session_id.encode("utf-8")) % workers


def mint_shard_session_id(seq: int, shard: int, workers: int) -> str:
    """Mint the ``seq``-th session id that consistent-hashes to ``shard``.

    Tries ``s{seq}`` first (so single-worker deployments keep the
    familiar ``s1``, ``s2``, ... ids) and then deterministic suffixed
    candidates until one hashes home.  Expected tries ≈ ``workers``, so
    this is trivially cheap at session-open time.
    """
    if not 0 <= shard < workers:
        raise ConfigurationError(
            f"shard must be in [0, {workers}), got {shard}"
        )
    candidate = f"s{seq}"
    suffix = 0
    while shard_for(candidate, workers) != shard:
        suffix += 1
        candidate = f"s{seq}x{suffix}"
    return candidate


def worker_ceilings(max_sessions: int, workers: int) -> List[int]:
    """Per-worker session ceilings summing exactly to ``max_sessions``."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if max_sessions < workers:
        raise ConfigurationError(
            f"max_sessions ({max_sessions}) must be >= workers ({workers}) "
            "so every shard can hold at least one session"
        )
    base, extra = divmod(max_sessions, workers)
    return [base + (1 if index < extra else 0) for index in range(workers)]


def merge_metrics(
    snapshots: Sequence[_MetricsSnapshot],
) -> Dict[str, Dict[str, _MetricValue]]:
    """Merge per-worker ``MetricsRegistry.to_dict()`` snapshots.

    Counters and gauges sum (the serve gauges — e.g. active sessions —
    are population sizes, so summation is the aggregate view);
    histograms pool count/total/min/max and recompute the mean.
    """
    merged: Dict[str, Dict[str, _MetricValue]] = {}
    for snapshot in snapshots:
        for name, payload in snapshot.items():
            kind = payload.get("kind")
            if not isinstance(kind, str):
                raise ConfigurationError(
                    f"metric {name!r} snapshot is missing its kind"
                )
            existing = merged.get(name)
            if existing is not None and existing["kind"] != kind:
                raise ConfigurationError(
                    f"metric {name!r} has conflicting kinds across workers: "
                    f"{existing['kind']!r} vs {kind!r}"
                )
            if kind in ("counter", "gauge"):
                value = _metric_number(name, payload, "value")
                if existing is None:
                    merged[name] = {"kind": kind, "value": value}
                else:
                    existing["value"] = _as_number(existing["value"]) + value
            elif kind == "histogram":
                count = _metric_number(name, payload, "count")
                total = _metric_number(name, payload, "total")
                low = _metric_number(name, payload, "min")
                high = _metric_number(name, payload, "max")
                if existing is None:
                    merged[name] = {
                        "kind": "histogram",
                        "count": count,
                        "total": total,
                        "min": low,
                        "max": high,
                        "mean": (total / count) if count else 0.0,
                    }
                else:
                    old_count = _as_number(existing["count"])
                    new_count = old_count + count
                    new_total = _as_number(existing["total"]) + total
                    existing["count"] = new_count
                    existing["total"] = new_total
                    if count:
                        # An empty snapshot reports min/max as 0.0
                        # (to_dict); only real observations participate.
                        if old_count:
                            existing["min"] = min(
                                _as_number(existing["min"]), low
                            )
                            existing["max"] = max(
                                _as_number(existing["max"]), high
                            )
                        else:
                            existing["min"] = low
                            existing["max"] = high
                    existing["mean"] = (
                        new_total / new_count if new_count else 0.0
                    )
            else:
                raise ConfigurationError(
                    f"metric {name!r} has unknown kind {kind!r}"
                )
    return dict(sorted(merged.items()))


def _as_number(value: _MetricValue) -> float:
    assert isinstance(value, float)  # merged values are always numeric
    return value


def _metric_number(name: str, payload: Mapping[str, object], key: str) -> float:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"metric {name!r} field {key!r} must be a number, got {value!r}"
        )
    return float(value)


def aggregate_stats(
    per_worker: Sequence[Optional[Mapping[str, object]]],
    recovering: Sequence[int] = (),
) -> Payload:
    """Fan-in per-worker ``stats`` payloads into the cluster view.

    ``None`` entries mark workers that did not answer (dead, or still
    restarting); their slot still appears in ``per_worker`` so clients
    can see the topology.  ``recovering`` names the worker indices the
    router is currently respawning — mid-restart the cluster view stays
    well-formed: the recovering slot is ``None``, ``workers_alive``
    excludes it and ``workers_recovering`` counts it.  Summable fields
    sum; metrics merge via :func:`merge_metrics`.
    """
    sessions_active = 0
    max_sessions = 0
    requests = 0
    idle_timeout_s: Optional[float] = None
    snapshots: List[_MetricsSnapshot] = []
    for stats in per_worker:
        if stats is None:
            continue
        sessions_active += int(_stats_number(stats, "sessions_active"))
        max_sessions += int(_stats_number(stats, "max_sessions"))
        requests += int(_stats_number(stats, "requests"))
        if idle_timeout_s is None:
            timeout = stats.get("idle_timeout_s")
            if isinstance(timeout, (int, float)) and not isinstance(
                timeout, bool
            ):
                idle_timeout_s = float(timeout)
        metrics = stats.get("metrics")
        if isinstance(metrics, dict):
            snapshots.append(metrics)
    recovering_set = {
        index for index in recovering if 0 <= index < len(per_worker)
    }
    return {
        "workers": len(per_worker),
        "workers_alive": sum(1 for stats in per_worker if stats is not None),
        "workers_recovering": len(recovering_set),
        "sessions_active": sessions_active,
        "max_sessions": max_sessions,
        "requests": requests,
        "idle_timeout_s": idle_timeout_s,
        "per_worker": [
            dict(stats) if stats is not None else None for stats in per_worker
        ],
        "metrics": merge_metrics(snapshots),
    }


def _stats_number(stats: Mapping[str, object], key: str) -> float:
    value = stats.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0.0
    return float(value)


def _adopt_shard_sessions(
    manager: SessionManager,
    store: CheckpointStore,
    index: int,
    workers: int,
    overrides: Mapping[str, int],
) -> int:
    """Restore this shard's sessions from the checkpoint store at boot.

    A stored session belongs to this worker when the router's override
    table (sessions moved by ``migrate``) or, failing that, the
    consistent hash says so.  Restoring by hash is also what rebalances
    sessions automatically when ``--workers`` changes between runs over
    the same checkpoint directory.  Adoption is best-effort per
    session: a checkpoint this build cannot read, or one past the
    ceiling, is skipped rather than blocking worker boot.
    """
    restored = 0
    for record in store.load_all():
        owner = overrides.get(record.session)
        if owner is None:
            owner = shard_for(record.session, workers)
        if owner != index:
            continue
        try:
            manager.restore_as(record.session, record.checkpoint)
        except ReproError:
            continue
        restored += 1
    return restored


def _worker_main(
    index: int,
    workers: int,
    host: str,
    port_conn: "multiprocessing.connection.Connection",
    max_sessions: int,
    idle_timeout_s: Optional[float],
    queue_depth: int,
    checkpoint_dir: Optional[str],
    checkpoint_every: int,
    overrides: Dict[str, int],
) -> None:
    """Worker-process entry: one ordinary TCP server on its own port.

    Restores its shard's sessions from the checkpoint store (when
    configured), binds an ephemeral port, reports ``(port,
    sessions_restored)`` to the parent through the pipe, then serves
    until terminated.  The id minter guarantees every session this
    worker opens hashes back to ``index``, which is the whole sharding
    invariant.
    """
    store = (
        CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    )
    manager = SessionManager(
        max_sessions=max_sessions,
        idle_timeout_s=idle_timeout_s,
        clock=DEFAULT_CLOCK,
        id_minter=lambda seq: mint_shard_session_id(seq, index, workers),
        checkpoint_store=store,
        checkpoint_every=checkpoint_every,
    )
    restored = 0
    if store is not None:
        restored = _adopt_shard_sessions(
            manager, store, index, workers, overrides
        )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        ready: "asyncio.Future[int]" = loop.create_future()
        server_task = asyncio.ensure_future(
            serve_tcp_async(
                manager,
                host=host,
                port=0,
                queue_depth=queue_depth,
                ready=ready,
            )
        )
        port = await ready
        port_conn.send((port, restored))
        port_conn.close()
        await server_task

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass


class ShardedServer:
    """N worker processes behind a consistent-hash line router.

    The router runs an asyncio loop on a background thread, so
    :meth:`start`/:meth:`stop` compose with synchronous callers (the
    CLI, tests, the load generator).  Worker processes are spawned via
    :mod:`multiprocessing`; each reports its ephemeral port back through
    a pipe before the router accepts its first client.

    Args:
        workers: Number of worker processes (shards).
        host: Bind address for the router and the workers.
        port: Router port (``0`` picks a free one; :meth:`start` returns
            the bound port).
        max_sessions: *Global* session ceiling, carved into per-worker
            ceilings that sum to it.
        idle_timeout_s: Per-worker idle eviction timeout.
        queue_depth: Per-connection request-queue depth (workers and
            router alike).
        tracer: Trace collector for worker lifecycle and migration
            events.
        metrics: Router-side metrics registry (requests routed, worker
            failures, restarts, migrations); a private one is created
            when omitted.
        checkpoint_every: Durable-checkpoint cadence in samples per
            session; ``0`` disables checkpointing (unless
            ``auto_restart`` forces :data:`DEFAULT_CHECKPOINT_EVERY`).
        checkpoint_dir: Directory for the shared checkpoint store.
            ``None`` with checkpointing enabled uses a private temporary
            directory removed on :meth:`stop`; pass an explicit path to
            keep checkpoints across runs (sessions then rebalance onto
            the new topology at the next :meth:`start`).
        auto_restart: Respawn dead workers in the background and restore
            their shard's sessions from the checkpoint store.
    """

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        idle_timeout_s: Optional[float] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[str] = None,
        auto_restart: bool = False,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if auto_restart and checkpoint_every == 0:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self._ceilings = worker_ceilings(max_sessions, workers)
        self._workers = workers
        self._host = host
        self._port = port
        self._idle_timeout_s = idle_timeout_s
        self._queue_depth = queue_depth
        self._tracer = tracer
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._checkpoint_every = checkpoint_every
        self._checkpoint_dir = checkpoint_dir
        self._auto_restart = auto_restart
        self._checkpoint_path: Optional[str] = None
        self._owns_checkpoint_dir = False
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._worker_ports: List[int] = []
        self._dead: Set[int] = set()
        self._recovering: Set[int] = set()
        self._overrides: Dict[str, int] = {}
        self._round_robin = 0
        self._requests = 0
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stopping = False
        self._start_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._router_port: Optional[int] = None
        self._client_tasks: Set["asyncio.Task[None]"] = set()
        self._restart_tasks: Set["asyncio.Task[None]"] = set()
        self._migrating: Dict[str, asyncio.Event] = {}
        self._inflight: Dict[str, int] = {}
        self._drain_events: Dict[str, asyncio.Event] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of shards."""
        return self._workers

    @property
    def metrics(self) -> MetricsRegistry:
        """Router-side metrics (requests routed, worker failures)."""
        return self._metrics

    def _worker_args(
        self, index: int, overrides: Dict[str, int]
    ) -> Tuple[object, ...]:
        return (
            index,
            self._workers,
            self._host,
            None,  # placeholder: the pipe end is appended by the caller
            self._ceilings[index],
            self._idle_timeout_s,
            self._queue_depth,
            self._checkpoint_path,
            self._checkpoint_every,
            overrides,
        )

    def _spawn_worker(
        self,
        index: int,
        overrides: Dict[str, int],
        timeout: float,
    ) -> Tuple[multiprocessing.process.BaseProcess, int, int]:
        """Spawn one worker and wait for ``(port, restored)`` (blocking)."""
        context = multiprocessing.get_context()
        parent_conn, child_conn = context.Pipe(duplex=False)
        args = list(self._worker_args(index, overrides))
        args[3] = child_conn
        process = context.Process(
            target=_worker_main, args=tuple(args), daemon=True
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(timeout):
                if process.is_alive():
                    process.terminate()
                process.join(timeout=10)
                raise ReproError(
                    f"worker {index} did not report its port within "
                    f"{timeout:.0f}s"
                )
            port, restored = parent_conn.recv()
        finally:
            parent_conn.close()
        return process, int(port), int(restored)

    def start(self, timeout: float = DEFAULT_START_TIMEOUT_S) -> int:
        """Spawn the workers, start the router; returns the router port.

        Raises:
            ReproError: When a worker fails to report its port or the
                router fails to bind within ``timeout`` (e.g. the
                requested port is already in use) — the underlying bind
                error is chained.
        """
        if self._thread is not None:
            raise ReproError("sharded server already started")
        self._stopping = False
        if self._checkpoint_dir is not None:
            self._checkpoint_path = self._checkpoint_dir
        elif self._checkpoint_every > 0:
            self._checkpoint_path = tempfile.mkdtemp(
                prefix="repro-serve-checkpoints-"
            )
            self._owns_checkpoint_dir = True
        context = multiprocessing.get_context()
        pipes = []
        for index in range(self._workers):
            parent_conn, child_conn = context.Pipe(duplex=False)
            args = list(self._worker_args(index, {}))
            args[3] = child_conn
            process = context.Process(
                target=_worker_main, args=tuple(args), daemon=True
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            pipes.append(parent_conn)
        for index, parent_conn in enumerate(pipes):
            if not parent_conn.poll(timeout):
                self.stop()
                raise ReproError(
                    f"worker {index} did not report its port within "
                    f"{timeout:.0f}s"
                )
            port, _restored = parent_conn.recv()
            self._worker_ports.append(int(port))
            parent_conn.close()
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-router", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            self.stop()
            raise ReproError(
                f"router did not start within {timeout:.0f}s"
            )
        if self._router_port is None:
            # The router loop died before binding (port in use, bad
            # host, ...) or bound no socket.  stop() joins the workers
            # and can be interrupted, so name the cause on stderr first.
            error = self._start_error
            cause = error if error is not None else "no listening socket"
            message = f"router failed to start: {cause}"
            print(message, file=sys.stderr, flush=True)
            self.stop()
            raise ReproError(message) from error
        return self._router_port

    def stop(self) -> None:
        """Stop the router, terminate workers, and reset all state.

        Idempotent, and safe on a server that never started (or failed
        mid-:meth:`start`); afterwards :meth:`start` works again.
        """
        self._stopping = True
        loop = self._loop
        shutdown = self._shutdown
        if loop is not None and shutdown is not None:
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=10)
        if self._owns_checkpoint_dir and self._checkpoint_path is not None:
            shutil.rmtree(self._checkpoint_path, ignore_errors=True)
        self._checkpoint_path = None
        self._owns_checkpoint_dir = False
        self._thread = None
        self._procs = []
        self._worker_ports = []
        self._dead = set()
        self._recovering = set()
        self._overrides = {}
        self._round_robin = 0
        self._started = threading.Event()
        self._start_error = None
        self._loop = None
        self._shutdown = None
        self._router_port = None
        self._client_tasks = set()
        self._restart_tasks = set()
        self._migrating = {}
        self._inflight = {}
        self._drain_events = {}

    def kill_worker(self, index: int) -> None:
        """Terminate one worker (failure-injection hook for tests)."""
        if not 0 <= index < len(self._procs):
            raise ConfigurationError(
                f"no worker {index}; have {len(self._procs)}"
            )
        process = self._procs[index]
        if process.is_alive():
            process.terminate()
        process.join(timeout=10)

    # -- router -------------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._router_main())
        except Exception as error:
            # Keep the failure for start() to re-raise as a clean
            # ReproError; set() unblocks the waiting starter either way.
            self._start_error = error
            self._started.set()

    async def _router_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(
            self._on_client,
            host=self._host,
            port=self._port,
            limit=MAX_LINE_BYTES,
        )
        sockets = server.sockets or []
        if sockets:
            self._router_port = int(sockets[0].getsockname()[1])
        self._started.set()
        async with server:
            await self._shutdown.wait()
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(
                *self._client_tasks, return_exceptions=True
            )
        if self._restart_tasks:
            # Restart tasks hold a live executor job (process spawn);
            # let them finish so their cleanup runs — _restart_worker
            # tears the fresh process down again when stopping.
            await asyncio.wait(
                set(self._restart_tasks), timeout=DEFAULT_START_TIMEOUT_S
            )

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        # One lazily opened upstream connection per worker *per client*,
        # so each client's responses stay strictly in request order.
        links: Dict[int, _Link] = {}

        async def answer(line: str) -> str:
            return await self._route(line, links)

        try:
            await relay_lines(reader, writer, answer, self._queue_depth)
        except asyncio.CancelledError:
            pass
        finally:
            for _, upstream_writer in links.values():
                upstream_writer.close()
            for _, upstream_writer in links.values():
                try:
                    await upstream_writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            if task is not None:
                self._client_tasks.discard(task)

    async def _route(self, line: str, links: Dict[int, _Link]) -> str:
        """Pick the shard for one request line and forward it."""
        self._requests += 1
        self._metrics.counter("serve.router_requests").inc()
        # Fast path for the hot ops: a ``sample_batch`` line is mostly a
        # float array the router has no business parsing — when exactly
        # one ``"session"`` key appears, the value looks like a
        # server-minted id and the op cannot be router-handled, routing
        # needs only that.  Anything ambiguous (no session, several
        # occurrences, weird ids, ``stats``/``migrate``) takes the
        # full-parse path below.
        if line.count('"session"') == 1 and _ROUTER_OP_RE.search(line) is None:
            match = _SESSION_RE.search(line)
            if match is not None:
                return await self._forward_session(match.group(1), line, links)
        try:
            payload = json.loads(line)
        except ValueError as exc:
            return serialize_response(
                error_response("bad_request", f"invalid JSON: {exc}")
            )
        if not isinstance(payload, dict):
            return serialize_response(
                error_response("bad_request", "request must be a JSON object")
            )
        op = payload.get("op")
        if op == "stats" and "session" not in payload:
            return await self._aggregate_stats(links)
        if op == "migrate":
            return await self._migrate(payload, links)
        session = payload.get("session")
        if isinstance(session, str):
            return await self._forward_session(session, line, links)
        # hello/restore (and anything session-less): balanced placement
        # over live workers; the worker's self-hashing id pins the
        # session afterwards.
        target = self._place()
        if target is None:
            return self._no_workers()
        return await self._forward(target, line, links)

    def _place(self, exclude: Optional[int] = None) -> Optional[int]:
        """Round-robin placement over live workers; ``None`` if none.

        Skips dead and mid-restart shards (the pre-fix router cycled
        through dead workers and bounced new sessions off them while
        live workers had free capacity).  A worker discovered dead here
        is noted — which schedules its restart under ``auto_restart``.
        """
        for _ in range(self._workers):
            candidate = self._round_robin
            self._round_robin = (self._round_robin + 1) % self._workers
            if candidate == exclude:
                continue
            if candidate in self._recovering:
                continue
            if not self._procs[candidate].is_alive():
                self._note_worker_down(candidate, "process is not running")
                continue
            if candidate in self._dead:
                continue
            return candidate
        return None

    def _no_workers(self) -> str:
        if self._recovering:
            response = error_response(
                "worker_recovering",
                "no live worker can take the session yet; workers are "
                "restarting — retry shortly",
            )
            response["recovering"] = True
        else:
            response = error_response(
                "worker_unavailable",
                "no live workers available to place the session",
            )
            response["recovering"] = False
        return serialize_response(response)

    async def _forward_session(
        self, session_id: str, line: str, links: Dict[int, _Link]
    ) -> str:
        """Route one session-addressed line, honoring migration state.

        New traffic for a session mid-migration parks on the gate until
        the move finishes (then routes to the new owner); the in-flight
        counter lets ``migrate`` drain outstanding requests before it
        snapshots.
        """
        gate = self._migrating.get(session_id)
        if gate is not None:
            await gate.wait()
        self._inflight[session_id] = self._inflight.get(session_id, 0) + 1
        try:
            worker = self._overrides.get(session_id)
            if worker is None:
                worker = shard_for(session_id, self._workers)
            return await self._forward(worker, line, links)
        finally:
            remaining = self._inflight[session_id] - 1
            if remaining:
                self._inflight[session_id] = remaining
            else:
                del self._inflight[session_id]
                drained = self._drain_events.pop(session_id, None)
                if drained is not None:
                    drained.set()

    async def _forward(
        self, worker: int, line: str, links: Dict[int, _Link]
    ) -> str:
        if worker in self._recovering:
            return self._unavailable(worker)
        if not self._procs[worker].is_alive():
            self._note_worker_down(worker, "process is not running")
            return self._unavailable(worker)
        last_error = "connection failed"
        for attempt in range(2):
            try:
                link = links.get(worker)
                if link is None:
                    # A full batch's answer is over asyncio's default
                    # 64 KiB line limit.
                    link = await asyncio.open_connection(
                        self._host,
                        self._worker_ports[worker],
                        limit=MAX_LINE_BYTES,
                    )
                    links[worker] = link
                upstream_reader, upstream_writer = link
                upstream_writer.write((line + "\n").encode("utf-8"))
                await upstream_writer.drain()
                try:
                    raw = await upstream_reader.readline()
                except ValueError:
                    # readline's form of LimitOverrunError: the answer is
                    # longer than the link carries.  The link is left
                    # mid-line, so drop it; the next request opens a
                    # fresh one.
                    links.pop(worker, None)
                    upstream_writer.close()
                    return self._answer_too_long(worker)
                if not raw:
                    raise ConnectionError("worker closed the connection")
                return raw.decode("utf-8", errors="replace").rstrip("\n")
            except (ConnectionError, OSError) as exc:
                last_error = str(exc)
                stale = links.pop(worker, None)
                if stale is not None:
                    stale[1].close()
                # A dead cached link to a since-restarted worker is not
                # a worker death: retry once on a fresh connection
                # (which resolves the worker's *current* port) before
                # concluding anything about the process.
                if attempt == 0 and self._procs[worker].is_alive():
                    continue
                break
        self._note_worker_down(worker, last_error)
        return self._unavailable(worker)

    @staticmethod
    def _answer_too_long(worker: int) -> str:
        return serialize_response(
            error_response(
                "internal",
                f"worker {worker} answered with a line over the "
                f"{MAX_LINE_BYTES}-byte limit the router relays; the "
                "request reached the worker but its answer is lost",
            )
        )

    def _unavailable(self, worker: int) -> str:
        recovering = worker in self._recovering
        if recovering:
            response = error_response(
                "worker_recovering",
                f"worker {worker} is restarting; its sessions will answer "
                "again shortly — retry",
            )
        else:
            response = error_response(
                "worker_unavailable",
                f"worker {worker} serving this shard is unavailable; "
                "sessions on other shards are unaffected",
            )
        response["worker"] = worker
        response["recovering"] = recovering
        return serialize_response(response)

    def _note_worker_down(self, worker: int, reason: str) -> None:
        self._metrics.counter("serve.worker_unavailable").inc()
        if worker not in self._dead:
            self._dead.add(worker)
            self._metrics.counter("serve.workers_died").inc()
            if self._tracer.enabled:
                self._tracer.emit(
                    WorkerDied(
                        interval=self._requests, worker=worker, reason=reason
                    )
                )
        if (
            self._auto_restart
            and not self._stopping
            and worker not in self._recovering
            and self._loop is not None
        ):
            self._recovering.add(worker)
            task = self._loop.create_task(self._restart_worker(worker))
            self._restart_tasks.add(task)
            task.add_done_callback(self._restart_tasks.discard)

    async def _restart_worker(self, worker: int) -> None:
        """Respawn a dead worker off-loop and swap it into the topology.

        The replacement process restores the shard's sessions from the
        checkpoint store during boot (before it reports its port), so
        by the time the shard leaves the ``recovering`` state its
        sessions answer again.
        """
        overrides = dict(self._overrides)
        loop = asyncio.get_running_loop()
        old = self._procs[worker]

        def respawn() -> Tuple[multiprocessing.process.BaseProcess, int, int]:
            if old.is_alive():  # defensive: marked down but not exited
                old.terminate()
            old.join(timeout=10)
            return self._spawn_worker(worker, overrides, DEFAULT_START_TIMEOUT_S)

        try:
            process, port, restored = await loop.run_in_executor(None, respawn)
        except Exception:
            # Leave the shard dead-but-retriable: the next request that
            # routes here schedules another attempt.
            self._recovering.discard(worker)
            self._metrics.counter("serve.worker_restart_failures").inc()
            return
        if self._stopping:
            process.terminate()
            process.join(timeout=10)
            self._recovering.discard(worker)
            return
        self._procs[worker] = process
        self._worker_ports[worker] = port
        self._dead.discard(worker)
        self._recovering.discard(worker)
        self._metrics.counter("serve.worker_restarts").inc()
        if self._tracer.enabled:
            self._tracer.emit(
                WorkerRestarted(
                    interval=self._requests,
                    worker=worker,
                    sessions_restored=restored,
                )
            )

    # -- migration ----------------------------------------------------------

    async def _drain_session(self, session_id: str) -> None:
        """Wait until no request for ``session_id`` is in flight."""
        while self._inflight.get(session_id, 0):
            event = self._drain_events.get(session_id)
            if event is None:
                event = asyncio.Event()
                self._drain_events[session_id] = event
            await event.wait()

    @staticmethod
    def _parse_answer(answer: str) -> Tuple[bool, Payload]:
        try:
            return parse_response(answer)
        except ConfigurationError:
            return False, {}

    async def _migrate(
        self, payload: Mapping[str, object], links: Dict[int, _Link]
    ) -> str:
        """Drain–snapshot–restore one session onto another worker.

        The move is lossless and identity-preserving: traffic for the
        session is gated, in-flight requests drain, the source worker
        answers ``snapshot``, the target restores under the same id, and only then does the
        source close its copy — with the reserved ``migrated`` reason,
        so the durable checkpoint transfers to the target instead of
        being deleted.  On any failure before the restore succeeds the
        session keeps serving from the source untouched.
        """
        session = payload.get("session")
        if not isinstance(session, str) or not session:
            return serialize_response(
                error_response(
                    "bad_request", "migrate requires a string 'session' field"
                )
            )
        unexpected = set(payload) - {"op", "session", "worker"}
        if unexpected:
            return serialize_response(
                error_response(
                    "bad_request",
                    f"unknown migrate fields: {sorted(unexpected)}",
                )
            )
        explicit: Optional[int] = None
        if "worker" in payload:
            worker_field = payload["worker"]
            if (
                isinstance(worker_field, bool)
                or not isinstance(worker_field, int)
                or not 0 <= worker_field < self._workers
            ):
                return serialize_response(
                    error_response(
                        "bad_request",
                        "field 'worker' must be an integer in "
                        f"[0, {self._workers})",
                    )
                )
            explicit = worker_field
        # Serialize with any in-progress migration of the same session,
        # then gate new traffic and drain what is already in flight.
        while session in self._migrating:
            await self._migrating[session].wait()
        gate = asyncio.Event()
        self._migrating[session] = gate
        try:
            await self._drain_session(session)
            source = self._overrides.get(session)
            if source is None:
                source = shard_for(session, self._workers)
            target = (
                explicit if explicit is not None else self._place(exclude=source)
            )
            if target is None:
                return self._no_workers()
            if target == source:
                return serialize_response(
                    {
                        "ok": True,
                        "op": "migrate",
                        "session": session,
                        "from_worker": source,
                        "to_worker": source,
                        "migrated": False,
                    }
                )
            snapshot_line = serialize_response(
                {"op": "snapshot", "session": session}
            )
            answer = await self._forward(source, snapshot_line, links)
            ok, snapshot = self._parse_answer(answer)
            if not ok:
                return answer  # propagate the worker's error verbatim
            checkpoint = snapshot.get("checkpoint")
            if not isinstance(checkpoint, dict):
                return serialize_response(
                    error_response(
                        "internal",
                        f"worker {source} answered snapshot without a "
                        "checkpoint",
                    )
                )
            restore_line = serialize_response(
                {"op": "restore", "session": session, "checkpoint": checkpoint}
            )
            answer = await self._forward(target, restore_line, links)
            ok, restored = self._parse_answer(answer)
            if not ok:
                return answer  # source copy is untouched and still live
            bye_line = serialize_response(
                {
                    "op": "bye",
                    "session": session,
                    "reason": MIGRATED_CLOSE_REASON,
                }
            )
            answer = await self._forward(source, bye_line, links)
            ok, _closed = self._parse_answer(answer)
            if not ok:
                # The source died between snapshot and close; the target
                # already owns the session and routing flips below, so
                # the stale copy (if the worker comes back) is
                # unreachable and will idle out.
                self._metrics.counter("serve.migration_close_failures").inc()
            if target == shard_for(session, self._workers):
                self._overrides.pop(session, None)
            else:
                self._overrides[session] = target
            samples = restored.get("samples")
            samples_count = (
                samples
                if isinstance(samples, int) and not isinstance(samples, bool)
                else 0
            )
            self._metrics.counter("serve.sessions_migrated").inc()
            if self._tracer.enabled:
                self._tracer.emit(
                    SessionMigrated(
                        interval=self._requests,
                        session=session,
                        from_worker=source,
                        to_worker=target,
                        samples=samples_count,
                    )
                )
            return serialize_response(
                {
                    "ok": True,
                    "op": "migrate",
                    "session": session,
                    "from_worker": source,
                    "to_worker": target,
                    "samples": samples_count,
                    "migrated": True,
                }
            )
        finally:
            self._migrating.pop(session, None)
            gate.set()

    async def _aggregate_stats(self, links: Dict[int, _Link]) -> str:
        per_worker: List[Optional[Mapping[str, object]]] = []
        stats_line = serialize_response({"op": "stats"})
        for worker in range(self._workers):
            answer = await self._forward(worker, stats_line, links)
            ok, payload = self._parse_answer(answer)
            stats = payload.get("stats") if ok else None
            per_worker.append(stats if isinstance(stats, dict) else None)
        return serialize_response(
            {
                "ok": True,
                "op": "stats",
                "stats": aggregate_stats(
                    per_worker, recovering=sorted(self._recovering)
                ),
            }
        )


def run_sharded(
    workers: int,
    host: str = "127.0.0.1",
    port: int = 8472,
    max_sessions: int = DEFAULT_MAX_SESSIONS,
    idle_timeout_s: Optional[float] = None,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    auto_restart: bool = False,
) -> None:
    """Blocking entry point for ``repro serve tcp --workers N``.

    Starts the sharded server and parks until interrupted.
    """
    server = ShardedServer(
        workers=workers,
        host=host,
        port=port,
        max_sessions=max_sessions,
        idle_timeout_s=idle_timeout_s,
        queue_depth=queue_depth,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        auto_restart=auto_restart,
    )
    server.start()
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
