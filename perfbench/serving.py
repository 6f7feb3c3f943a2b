"""The serving workloads, driven from outside over TCP.

``pmi_fleet`` runs single-process ``repro serve tcp`` with 64 live
``gpht`` sessions, 32 per connection.  Each round sends one ``sample``
per session of a connection back to back, then reads the 32 answers
(closed loop per round).  The two connections alternate from one thread,
so the server always holds the other connection's round while the client
reads.  This is the deployed PMI use: one core per session, one request
per interval.

``batch_backfill`` runs ``repro serve tcp --workers 2 --auto-restart``
(a checkpoint every 32 samples) and sends 256-sample ``sample_batch``
requests, one outstanding per connection.  All sessions are opened
first; then each connection takes the 32 sessions of one worker (the
client finds the owner with the routing rule, ``shard_for``) and cycles
over them one batch at a time, so each worker always has one batch in
flight.  Without the split the two outstanding batches drift in and out
of landing on the same worker, and throughput is bimodal.

Session *i* replays SPEC2000 benchmark ``i mod 33`` (``mem_series``
with a seed derived from the run seed and *i*), which mixes stable and
highly variable programs.  Every outcome row is digested and compared
with an in-process ``PhaseSession`` fed the same series; each session's
final ``snapshot`` and ``stats`` must equal the reference's, and in
``batch_backfill`` the session is restored into a twin that must predict
what the original predicts.  The references run after the timed window.

In ``pmi_fleet`` the server is pinned to the first allowed CPU and the
client to the last, so the host-speed probe (``hostspeed``) measures the
CPU the server-bound workload runs on; ``batch_backfill`` spreads four
processes over both CPUs and is probed on both.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import socket
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import hostspeed
import layers
import procs
import spans

SESSIONS = 64
CONNECTIONS = 2
BATCH = 256
#: Series length per session; longer streams replay it from the start.
PMI_SERIES = 2048
BATCH_SERIES = 8192
#: Traffic before the timed window, so lazy set-up is done when it opens.
WARMUP_S = 0.5
#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: Launches of those that measure a share of the window each.
LAUNCHES = 3
#: Load time of one slice of the timed window; the host-speed probe runs
#: between slices (see :func:`end_to_end`).
SLICE_S = 0.25

_COMPACT = (",", ":")


@dataclass(frozen=True)
class Placement:
    """CPUs of the server's process group and the client, and the CPUs
    the host-speed probe measures."""

    server: frozenset
    client: frozenset
    probe: Tuple[int, ...]


def placement(workload: str) -> Placement:
    """Where the workload's processes run."""
    cpus = hostspeed.allowed_cpus()
    if workload == "pmi_fleet":
        return Placement(frozenset(cpus[:1]), frozenset(cpus[-1:]), tuple(cpus[:1]))
    return Placement(frozenset(cpus), frozenset(cpus), tuple(cpus))


def session_seed(seed: int, index: int) -> int:
    """Series seed of session ``index`` under run seed ``seed``."""
    return zlib.crc32(f"{seed}:{index}".encode("ascii"))


@dataclass
class Session:
    """Client-side view of one session."""

    index: int
    values: List[float]
    texts: List[str]
    sid: str = ""
    sent: int = 0
    ops: int = 0
    lines: List[bytes] = field(default_factory=list)
    end: Dict[str, Dict[str, object]] = field(default_factory=dict)


def make_sessions(seed: int, length: int, chunk: int) -> List[Session]:
    """Sessions with their series and pre-formatted sample text.

    ``texts`` holds the JSON text of each ``chunk`` consecutive values
    (one value for ``sample``, a batch for ``sample_batch``).
    """
    from repro.workloads.spec2000 import benchmark, benchmark_names

    names = benchmark_names()
    sessions = []
    for index in range(SESSIONS):
        series = benchmark(names[index % len(names)]).mem_series(
            length, seed=session_seed(seed, index)
        )
        values = [float(value) for value in series.tolist()]
        texts = [
            ",".join(repr(value) for value in values[start : start + chunk])
            for start in range(0, length, chunk)
        ]
        sessions.append(Session(index, values, texts))
    return sessions


class Link:
    """One client connection speaking line-delimited JSON."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def send(self, text: str) -> int:
        """Send ``text``; returns the send time (monotonic ns)."""
        sent = time.monotonic_ns()
        self.sock.sendall(text.encode("ascii"))
        return sent

    def receive(self) -> Tuple[List[bytes], int]:
        """The complete lines of one ``recv``, and its arrival time."""
        chunk = self.sock.recv(1 << 17)
        arrived = time.monotonic_ns()
        if not chunk:
            raise ConnectionError("server closed the connection")
        parts = (self.buffer + chunk).split(b"\n")
        self.buffer = parts.pop()
        return parts, arrived

    def read(self, count: int) -> Tuple[List[bytes], List[int]]:
        """Block until ``count`` lines arrived; lines and arrival times."""
        lines: List[bytes] = []
        times: List[int] = []
        while len(lines) < count:
            parts, arrived = self.receive()
            lines.extend(parts)
            times.extend([arrived] * len(parts))
        return lines, times

    def call(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request (``op`` first), one parsed answer."""
        self.send(json.dumps(payload, separators=_COMPACT) + "\n")
        lines, _ = self.read(1)
        return json.loads(lines[0])


@dataclass
class Phase:
    """What one server launch measured."""

    samples: int = 0
    window_ns: int = 0
    window: Tuple[int, int] = (0, 0)
    latencies_ns: List[int] = field(default_factory=list)
    cpu_busy: Dict[str, float] = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    totals: Optional[spans.Totals] = None
    setup: Tuple[float, float] = (0.0, 0.0)  # raw and scaled seconds
    slices: List["Slice"] = field(default_factory=list)
    steal_share: float = 0.0
    hits: int = 0
    lookups: int = 0
    correct: int = 0
    scored: int = 0

    @property
    def samples_per_s(self) -> float:
        return self.samples / (self.window_ns / 1e9) if self.window_ns else 0.0


class Context:
    """Where and how a run launches servers."""

    def __init__(self, root: str, run_dir: str, python: str, env: Dict[str, str]) -> None:
        self.root = root
        self.run_dir = run_dir
        self.python = python
        self.env = env
        self.launches = 0

    def launch(self, args: Sequence[str], traced: bool, cpus: frozenset) -> Tuple[procs.Server, int, Optional[str]]:
        """Start ``repro`` with ``args`` plus a free ``--port`` on ``cpus``."""
        self.launches += 1
        port = procs.free_port()
        spans_dir = None
        if traced:
            spans_dir = os.path.join(self.run_dir, f"spans{self.launches}")
            os.makedirs(spans_dir)
            argv = [self.python, os.path.join(self.root, "perfbench", "launch.py"), spans_dir, "--"]
        else:
            argv = [self.python, "-m", "repro"]
        argv += list(args) + ["--port", str(port)]
        log = os.path.join(self.run_dir, f"server{self.launches}.log")
        return procs.Server(argv, self.root, self.env, log, cpus), port, spans_dir


def _start(
    ctx: Context, args: Sequence[str], traced: bool, where: Placement
) -> Tuple[procs.Server, List[Link], Optional[str], Tuple[float, float], str]:
    """Launch a server, connect, open one session.

    Also returns the setup time, raw and scaled to the reference speed
    by probes just before the launch and just after the ``hello``.
    """
    before = hostspeed.probe(where.probe)
    server, port, spans_dir = ctx.launch(args, traced, where.server)
    try:
        links = [Link(server.connect(port)) for _ in range(CONNECTIONS)]
        hello = links[0].call({"op": "hello"})
    except BaseException:
        server.stop()
        raise
    setup_s = time.monotonic() - server.launched
    if not hello.get("ok"):
        server.stop()
        raise RuntimeError(f"hello failed: {hello}")
    scaled = setup_s * hostspeed.factor(before, hostspeed.probe(where.probe))
    return server, links, spans_dir, (setup_s, scaled), str(hello["session"])


def measure_setup(ctx: Context, args: Sequence[str], where: Placement) -> Tuple[float, float]:
    """Setup time (raw, scaled) of one extra server launch."""
    server, links, _, setup, _ = _start(ctx, args, False, where)
    for link in links:
        link.sock.close()
    problems = server.stop()
    if problems:
        # Stop at the first unclean stop instead of repeating it.
        raise RuntimeError("; ".join(problems))
    return setup


def _open(links: List[Link], groups: List[List[Session]], first: str) -> None:
    """Open every session; the first one was opened by :func:`_start`."""
    groups[0][0].sid = first
    groups[0][0].ops = 1
    for link, group in zip(links, groups):
        pending = [session for session in group if not session.sid]
        link.send("".join('{"op":"hello"}\n' for _ in pending))
        lines, _ = link.read(len(pending))
        for session, line in zip(pending, lines):
            answer = json.loads(line)
            if not answer.get("ok"):
                raise RuntimeError(f"hello failed: {answer}")
            session.sid = str(answer["session"])
            session.ops = 1


def _pmi_rounds(links: List[Link], groups: List[List[Session]], seconds: float, phase: Optional[Phase]) -> None:
    """Closed-loop rounds of one ``sample`` per session until ``seconds``."""
    length = PMI_SERIES

    def send_round(index: int) -> int:
        parts = []
        for session in groups[index]:
            k = session.sent
            parts.append(
                f'{{"op":"sample","session":"{session.sid}","interval":{k},'
                f'"mem_per_uop":{session.texts[k % length]}}}\n'
            )
            session.sent = k + 1
            session.ops += 1
        return links[index].send("".join(parts))

    started = time.monotonic_ns()
    deadline = started + int(seconds * 1e9)
    sent_at = [send_round(index) for index in range(CONNECTIONS)]
    active = [True] * CONNECTIONS
    latencies: List[int] = []
    answered = 0
    finished = started
    while any(active):
        for index in range(CONNECTIONS):
            if not active[index]:
                continue
            group = groups[index]
            lines, times = links[index].read(len(group))
            round_sent = sent_at[index]
            for session, line in zip(group, lines):
                session.lines.append(line)
            latencies.extend(arrived - round_sent for arrived in times)
            answered += len(group)
            finished = times[-1]
            if finished < deadline:
                sent_at[index] = send_round(index)
            else:
                active[index] = False
    if phase is not None:
        phase.samples = answered
        phase.window = (started, finished)
        phase.window_ns = finished - started
        phase.latencies_ns = latencies


def _batch_requests(links: List[Link], groups: List[List[Session]], seconds: float, phase: Optional[Phase]) -> None:
    """One ``sample_batch`` outstanding per connection until ``seconds``."""
    chunks = BATCH_SERIES // BATCH
    cursor = [0] * CONNECTIONS
    outstanding: List[Tuple[Session, int]] = []

    def send(index: int) -> Tuple[Session, int]:
        group = groups[index]
        session = group[cursor[index]]
        cursor[index] = (cursor[index] + 1) % len(group)
        k = session.sent
        text = session.texts[(k // BATCH) % chunks]
        line = (
            f'{{"op":"sample_batch","session":"{session.sid}","start_interval":{k},'
            f'"samples":[{text}]}}\n'
        )
        session.sent = k + BATCH
        session.ops += 1
        return session, links[index].send(line)

    selector = selectors.DefaultSelector()
    started = time.monotonic_ns()
    deadline = started + int(seconds * 1e9)
    for index, link in enumerate(links):
        selector.register(link.sock, selectors.EVENT_READ, index)
        outstanding.append(send(index))
    latencies: List[int] = []
    answered = 0
    finished = started
    active = CONNECTIONS
    try:
        while active:
            for key, _ in selector.select():
                index = key.data
                parts, arrived = links[index].receive()
                if not parts:
                    continue
                session, sent = outstanding[index]
                session.lines.extend(parts)
                latencies.append(arrived - sent)
                answered += BATCH
                finished = arrived
                if arrived < deadline:
                    outstanding[index] = send(index)
                else:
                    selector.unregister(key.fileobj)
                    active -= 1
    finally:
        selector.close()
    if phase is not None:
        phase.samples = answered
        phase.window = (started, finished)
        phase.window_ns = finished - started
        phase.latencies_ns = latencies


def _end_sessions(link: Link, sessions: Sequence[Session], restore: bool) -> None:
    """``snapshot``, ``stats`` and ``bye`` every session.

    With ``restore``, each session is first asked to ``predict``, and
    after every original is closed -- so each worker has free slots
    wherever the router places a restore -- its snapshot is restored
    into a twin that must predict the same, then closed.
    """
    for session in sessions:
        names = (("predict",) if restore else ()) + ("snapshot", "stats", "bye")
        for name in names:
            session.end[name] = link.call({"op": name, "session": session.sid})
            session.ops += 1
    if not restore:
        return
    for session in sessions:
        checkpoint = session.end["snapshot"].get("checkpoint")
        twin = link.call({"op": "restore", "checkpoint": checkpoint})
        session.end["restore"] = twin
        session.ops += 1
        if twin.get("ok"):
            session.end["twin_predict"] = link.call({"op": "predict", "session": twin["session"]})
            session.end["twin_bye"] = link.call({"op": "bye", "session": twin["session"]})
            session.ops += 2


def outcome_rows(answer: Dict[str, object]) -> List[List[object]]:
    """The outcome rows one answer carries, in wire order."""
    if answer.get("op") == "sample_batch":
        return answer["outcomes"]  # type: ignore[return-value]
    return [[
        answer["interval"],
        answer["phase"],
        answer["predicted"],
        answer["frequency_mhz"],
        answer["degraded"],
        answer["hit"],
    ]]


def _digest_rows(digest: "hashlib._Hash", rows: List[List[object]]) -> None:
    digest.update(json.dumps(rows, separators=_COMPACT).encode("ascii"))


def verify(session: Session, restore: bool) -> Optional[str]:
    """Compare a session's answers with an in-process reference.

    Returns why the session failed, or ``None``.  Both digests cover the
    rows in 256-row chunks from interval 0.
    """
    from repro.serve.session import PhaseSession

    served = hashlib.sha256()
    pending: List[List[object]] = []
    for line in session.lines:
        answer = json.loads(line)
        if not answer.get("ok"):
            return f"error answer {answer}"
        pending.extend(outcome_rows(answer))
        while len(pending) >= BATCH:
            _digest_rows(served, pending[:BATCH])
            del pending[:BATCH]
    if pending:
        _digest_rows(served, pending)

    reference = PhaseSession()
    expected = hashlib.sha256()
    values = session.values
    length = len(values)
    for start in range(0, session.sent, BATCH):
        stop = min(start + BATCH, session.sent)
        outcomes = reference.feed_batch(start, [(values[k % length], 0.0) for k in range(start, stop)])
        _digest_rows(expected, outcomes.rows())
    if served.hexdigest() != expected.hexdigest():
        return "outcome digest differs from the in-process reference"

    for name in ("snapshot", "stats", "bye"):
        if not session.end.get(name, {}).get("ok"):
            return f"{name} failed: {session.end.get(name)}"
    snapshot = json.loads(json.dumps(reference.snapshot()))
    if session.end["snapshot"].get("checkpoint") != snapshot:
        return "snapshot differs from the in-process reference"
    stats = dict(session.end["stats"].get("stats", {}))  # type: ignore[call-overload]
    stats.pop("session", None)
    reference_stats = reference.stats()
    reference_stats.pop("session")
    if stats != reference_stats:
        return "stats differ from the in-process reference"
    if restore:
        predicted, frequency = reference.predict()
        original = session.end.get("predict", {})
        twin = session.end.get("twin_predict", {})
        if not twin.get("ok") or not session.end.get("twin_bye", {}).get("ok"):
            return f"restore/predict/bye of the twin failed: {session.end.get('restore')}"
        if (original.get("predicted"), original.get("frequency_mhz")) != (predicted, frequency):
            return "predict differs from the in-process reference"
        if (twin.get("predicted"), twin.get("frequency_mhz")) != (predicted, frequency):
            return "the restored twin predicts differently from the original"
    return None


def _sliced(
    loop: Callable[..., None],
    links: List[Link],
    groups: List[List[Session]],
    seconds: float,
    probe_cpus: Sequence[int],
    phase: Phase,
) -> None:
    """The timed window as slices of :data:`SLICE_S` between probes.

    Each slice drains its requests before the probe after it runs, so
    the probe shares its CPUs with nothing of the run.
    """
    speeds = [hostspeed.probe(probe_cpus)]
    deadline = time.monotonic_ns() + int(seconds * 1e9)
    while not phase.slices or time.monotonic_ns() < deadline:
        piece = Phase()
        loop(links, groups, SLICE_S, piece)
        speeds.append(hostspeed.probe(probe_cpus))
        scale = hostspeed.factor(speeds[-2], speeds[-1])
        phase.slices.append((piece.samples, piece.window_ns / 1e9, piece.latencies_ns, scale))
        phase.samples += piece.samples
        phase.window = (phase.window[0] or piece.window[0], piece.window[1])
    phase.window_ns = phase.window[1] - phase.window[0]


def run_phase(
    ctx: Context,
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    notes: List[str],
    sliced: bool = False,
) -> Phase:
    """One launch: open sessions, warm up, measure, end, stop, verify.

    With ``sliced`` the timed window is cut into slices with host-speed
    probes between them (:func:`_sliced`); otherwise it is one stretch
    of load, as the traced runs need.
    """
    pmi = workload == "pmi_fleet"
    args = server_args(workload)
    where = placement(workload)
    sessions = make_sessions(seed, PMI_SERIES if pmi else BATCH_SERIES, 1 if pmi else BATCH)
    groups = [sessions[index::CONNECTIONS] for index in range(CONNECTIONS)]
    loop: Callable[..., None] = _pmi_rounds if pmi else _batch_requests
    phase = Phase()
    server, links, spans_dir, phase.setup, first = _start(ctx, args, traced, where)
    try:
        _open(links, groups, first)
        if not pmi:
            from repro.serve.shard import shard_for

            groups = [
                [session for session in sessions if shard_for(session.sid, CONNECTIONS) == worker]
                for worker in range(CONNECTIONS)
            ]
        loop(links, groups, WARMUP_S, None)
        roles = server.processes()
        cpu_before = {role: procs.cpu_seconds(pid) for role, pid in roles.items()}
        client_before = procs.own_cpu_seconds()
        steal_before = procs.steal_seconds()
        if sliced:
            _sliced(loop, links, groups, seconds, where.probe, phase)
        else:
            loop(links, groups, seconds, phase)
        wall_s = phase.window_ns / 1e9
        phase.steal_share = (procs.steal_seconds() - steal_before) / (wall_s * (os.cpu_count() or 1))
        for role, pid in roles.items():
            phase.cpu_busy[role] = (procs.cpu_seconds(pid) - cpu_before[role]) / wall_s
        phase.cpu_busy["client"] = (procs.own_cpu_seconds() - client_before) / wall_s
        _end_sessions(links[0], sessions, restore=not pmi)
        phase.peak_rss_mib = sum(procs.peak_rss_mib(pid) for pid in procs.group_members(server.pid))
    finally:
        for link in links:
            link.sock.close()
        phase.problems.extend(server.stop())
    if spans_dir is not None:
        phase.totals = spans.Totals()
        for name in sorted(os.listdir(spans_dir)):
            if name.endswith(".json"):
                dump = spans.load(os.path.join(spans_dir, name))
                phase.totals.add(dump["spans"], *phase.window)  # type: ignore[arg-type]
    for session in sessions:
        phase.attempted += session.ops
        reason = verify(session, restore=not pmi)
        if reason is not None:
            phase.failed += session.ops
            notes.append(f"session {session.index} ({session.sid}) failed: {reason}")
            continue
        state = session.end["snapshot"]["checkpoint"]["predictor"]  # type: ignore[index]
        phase.hits += int(state["hits"])
        phase.lookups += int(state["hits"]) + int(state["misses"])
        stats = session.end["stats"]["stats"]  # type: ignore[index]
        phase.correct += int(stats["correct"])
        phase.scored += int(stats["scored"])
    return phase


def server_args(workload: str) -> List[str]:
    """The ``repro`` command line of the workload's server."""
    if workload == "pmi_fleet":
        # Longer than any run: every request's idle sweep walks all 64
        # live sessions and evicts none.
        return ["serve", "tcp", "--idle-timeout", "3600"]
    return ["serve", "tcp", "--workers", "2", "--auto-restart"]


def latency_percentiles(latencies_ns: Sequence[int]) -> Tuple[float, float, int]:
    """p50 and p99 in µs, and how many latencies lie at or beyond p99.

    Answers read by one ``recv`` share an arrival time, so the tail has
    ties; they count as at p99.
    """
    latencies_us = [value / 1e3 for value in latencies_ns]
    p99 = statistics.quantiles(latencies_us, n=100, method="exclusive")[98]
    return statistics.median(latencies_us), p99, sum(1 for value in latencies_us if value >= p99)


#: One slice of a timed window: work units done, seconds taken, the
#: latencies (ns) of the requests or cells it finished, and its scale
#: (``hostspeed.factor``).
Slice = Tuple[float, float, Sequence[int], float]


def scaled_figures(slices: Sequence[Slice], unit: str, notes: List[str]) -> Tuple[float, float, float]:
    """Throughput, p50 and p99 (µs) of a window, at the reference speed.

    Throughput is the work of all slices over their scaled time; the
    percentiles pool every latency, each scaled by its slice's scale.
    The raw figures go to ``notes``.
    """
    work = sum(piece[0] for piece in slices)
    rates = sorted(done / seconds for done, seconds, _, _ in slices)
    scales = sorted(scale for _, _, _, scale in slices)
    p50, p99, beyond = latency_percentiles([value * scale for _, _, piece, scale in slices for value in piece])
    raw_p50, raw_p99, _ = latency_percentiles([value for _, _, piece, _ in slices for value in piece])
    notes.append(
        f"{len(slices)} slices: raw {work / sum(piece[1] for piece in slices):.0f} {unit} "
        f"(slices {rates[0]:.0f}-{rates[-1]:.0f}), p50 {raw_p50:.0f} us, p99 {raw_p99:.0f} us; "
        f"scale median {statistics.median(scales):.3f} (range {scales[0]:.3f}-{scales[-1]:.3f}); "
        f"{sum(len(piece) for _, _, piece, _ in slices)} latencies, {beyond} at or beyond p99"
    )
    return work / sum(seconds * scale for _, seconds, _, scale in slices), p50, p99


def end_to_end_metrics(
    setups: Sequence[Tuple[float, float]],
    per_second: float,
    p50_us: float,
    p99_us: float,
    peak_rss_mib: float,
    steal_share: float,
    notes: List[str],
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics every workload reports.

    ``setups`` holds (raw, scaled) setup times; ``setup_s`` is the
    median of the scaled ones.  A serving sample is one interval and a
    sweep interval one sample, so ``per_second`` is both throughputs.
    ``steal_share`` -- the share of the machine's CPU time the
    hypervisor gave other guests during the window -- is printed so a
    run slowed by its neighbours can be told apart from a slow program.
    """
    notes.append(f"host steal during the window: {steal_share:.1%} of CPU time")
    notes.append(f"setup (s), raw: {[round(raw, 4) for raw, _ in setups]}, scaled: {[round(value, 4) for _, value in setups]}")
    return {
        "setup_s": (statistics.median(value for _, value in setups), "s"),
        "samples_per_s": (per_second, "samples/s"),
        "intervals_per_s": (per_second, "intervals/s"),
        "latency_p50_us": (p50_us, "us"),
        "latency_p99_us": (p99_us, "us"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def end_to_end(ctx: Context, workload: str, seed: int, seconds: float, notes: List[str]) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    """Untraced run: setup launches, then :data:`LAUNCHES` measured ones.

    Every timed figure is scaled to the reference host speed
    (``hostspeed``): each measured launch runs its share of the window
    as slices with probes between them, the slices of all launches are
    pooled (:func:`scaled_figures`), and each setup is scaled by the
    probes around it.  A server process can run a few percent faster or
    slower than the next for the whole of its life (memory layout, hash
    seed), so no single launch sets the run's figures.
    """
    where = placement(workload)
    with hostspeed.pinned(where.client):
        setups = [measure_setup(ctx, server_args(workload), where) for _ in range(SETUPS - LAUNCHES)]
        phases = [
            run_phase(ctx, workload, seed, seconds / LAUNCHES, traced=False, notes=notes, sliced=True)
            for _ in range(LAUNCHES)
        ]
    setups.extend(phase.setup for phase in phases)
    slices = [piece for phase in phases for piece in phase.slices]
    per_second, p50, p99 = scaled_figures(slices, "samples/s", notes)
    metrics = end_to_end_metrics(
        setups,
        per_second,
        p50,
        p99,
        statistics.median(phase.peak_rss_mib for phase in phases),
        statistics.fmean(phase.steal_share for phase in phases),
        notes,
    )
    problems = [problem for phase in phases for problem in phase.problems]
    return metrics, sum(phase.attempted for phase in phases), sum(phase.failed for phase in phases), problems


def per_layer(ctx: Context, workload: str, seed: int, seconds: float, notes: List[str]) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    """Traced run: an untraced launch, then a traced one, half each."""
    with hostspeed.pinned(placement(workload).client):
        base = run_phase(ctx, workload, seed, seconds / 2, traced=False, notes=notes)
        traced = run_phase(ctx, workload, seed, seconds / 2, traced=True, notes=notes)
    totals = traced.totals
    assert totals is not None
    wire_us = hop_us = 0.0
    if workload == "pmi_fleet":
        # The server answers requests one after another, so its cycle per
        # request is the window over the requests; what handle_line does
        # not cover is transport: relay_lines, loopback, client codec.
        key = "serve.protocol.handle_line[sample]"
        requests = totals.count(key)
        wire_us = spans.per(traced.window_ns / 1e3 - totals.total_us(key), requests)
    else:
        key = "serve.protocol.handle_line[sample_batch]"
        round_trip_us = statistics.fmean(traced.latencies_ns) / 1e3
        hop_us = round_trip_us - spans.per(totals.total_us(key), totals.count(key))
    metrics = layers.layer_metrics(
        totals,
        wire_us=wire_us,
        hop_us=hop_us,
        cpu_busy=base.cpu_busy,
        pht_hit_ratio=spans.per(traced.hits, traced.lookups),
        accuracy=spans.per(traced.correct, traced.scored),
        overhead_ratio=spans.per(traced.samples_per_s, base.samples_per_s),
    )
    problems = base.problems + traced.problems + totals.problems()
    return metrics, base.attempted + traced.attempted, base.failed + traced.failed, problems
