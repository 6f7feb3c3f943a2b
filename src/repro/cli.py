"""Command-line interface to the reproduction.

Exposes the common experiments without writing Python::

    python -m repro list                      # benchmark registry
    python -m repro run applu_in              # baseline vs managed run
    python -m repro run mcf_inp --governor reactive --intervals 500
    python -m repro accuracy applu_in equake_in --jobs 4
    python -m repro sweep pht --jobs 4 --format json
    python -m repro report --jobs 4 --progress
    python -m repro quadrants
    python -m repro lint src/ --format json   # domain static analysis

Engine-backed commands (``run``, ``accuracy``, ``sweep``, ``report``)
share one set of execution flags: ``--jobs N`` fans cells out over
worker processes and ``--cache-dir``/``--no-cache`` control the
on-disk result cache (enabled by default, so an immediate re-run
replays from disk).  ``--progress`` streams per-cell completion and
the batch's cache statistics to stderr.

Every command prints aligned text; sweep commands accept
``--format json`` for the typed result payload, and ``run --json`` /
``run --csv`` emit full per-interval exports.

Observability (see ``docs/observability.md``): engine-backed commands
accept ``--trace``/``--trace-out FILE`` to record a structured JSONL
event trace, and the ``trace`` command group records, summarises and
converts traces (``repro trace record|summarize|export``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import __version__
from repro.analysis.characterize import characterization_rows, characterize
from repro.analysis.reporting import format_percent, format_table
from repro.core.predictors import paper_predictor_suite
from repro.errors import ConfigurationError, ReproError
from repro.exec.cache import NullCache, ResultCache
from repro.exec.cells import (
    GOVERNOR_NAMES,
    POLICY_NAMES,
    CellValue,
    build_governor,
    build_policy,
)
from repro.exec.engine import CellCache, ExecutionEngine, make_engine
from repro.exec.progress import StderrProgress
from repro.exec.results import Provenance, SweepResult
from repro.exec.spec import ExperimentSpec
from repro.obs.events import TraceEvent
from repro.obs.export import (
    events_from_jsonl,
    events_to_csv,
    events_to_jsonl,
    summary_text,
)
from repro.obs.tracer import RingBufferTracer
from repro.system.export import run_to_csv, run_to_json
from repro.system.machine import Machine
from repro.workloads.quadrants import place_all
from repro.workloads.spec2000 import (
    FIG5_BENCHMARKS,
    SPEC2000_BENCHMARKS,
    benchmark,
    benchmark_names,
)

if TYPE_CHECKING:
    from repro.serve import SessionManager

# ---------------------------------------------------------------------------
# Shared option groups (argparse parents)
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (clear error instead of a traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (>= 1), got {value}"
        )
    return value


def _positive_int_or_zero(text: str) -> int:
    """argparse type: an integer >= 0 (0 means 'disabled')."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _engine_parent() -> argparse.ArgumentParser:
    """Execution-engine flags shared by every engine-backed command."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution engine")
    group.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (default: 1 = serial)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "result cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)"
        ),
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="stream per-cell progress and cache statistics to stderr",
    )
    trace_group = parent.add_argument_group("tracing")
    trace_group.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a structured event trace of the run "
            "(see docs/observability.md)"
        ),
    )
    trace_group.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write the recorded trace as JSONL to FILE (implies --trace; "
            "default: repro-trace.jsonl)"
        ),
    )
    return parent


def _format_parent(
    *, sarif: bool = False, json_help: str = "typed JSON payload"
) -> argparse.ArgumentParser:
    """The one shared ``--format`` flag for result-printing commands.

    Every subcommand that prints a result accepts the same spelling:
    ``--format {text,json}`` (plus ``sarif`` for the static-analysis
    frontends).  Per-command variants (``csv``/``jsonl``, bespoke
    defaults) are gone — default is always ``text``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    choices = ("text", "json", "sarif") if sarif else ("text", "json")
    parent.add_argument(
        "--format",
        choices=choices,
        default="text",
        help=f"output format: text (default) or {json_help}"
        + (" or SARIF 2.1.0" if sarif else ""),
    )
    return parent


def _sweep_parent(default_intervals: int) -> argparse.ArgumentParser:
    """Sweep flags (benchmark selection, trace length, output format)."""
    parent = argparse.ArgumentParser(
        add_help=False, parents=[_engine_parent(), _format_parent()]
    )
    group = parent.add_argument_group("sweep")
    group.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="NAME",
        default=None,
        help="benchmarks to sweep (see 'list')",
    )
    group.add_argument(
        "--intervals",
        type=int,
        default=default_intervals,
        help=f"trace length in intervals (default: {default_intervals})",
    )
    return parent


def _cli_tracer(args: argparse.Namespace) -> Optional[RingBufferTracer]:
    """A live collector when ``--trace``/``--trace-out`` was given."""
    if getattr(args, "trace", False) or getattr(args, "trace_out", None):
        return RingBufferTracer()
    return None


def _write_output_file(path: Path, payload: str) -> None:
    """Write ``payload`` to ``path``, creating missing parent directories.

    Maps I/O failures (unwritable parent, path is a directory, ...) onto
    the CLI error path instead of a bare traceback.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(f"cannot write {path}: {error}") from None


def _write_trace(
    tracer: Optional[RingBufferTracer], args: argparse.Namespace
) -> None:
    """Persist a recorded trace as JSONL and note it on stderr."""
    if tracer is None:
        return
    out = Path(args.trace_out) if args.trace_out else Path("repro-trace.jsonl")
    _write_output_file(out, events_to_jsonl(tracer.events()))
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"trace: {len(tracer)} events{dropped} -> {out}", file=sys.stderr)


def _cli_engine(
    args: argparse.Namespace,
) -> Tuple[ExecutionEngine, Optional[StderrProgress], Optional[RingBufferTracer]]:
    """Build the execution engine an engine-backed command asked for."""
    cache: CellCache
    if args.no_cache:
        cache = NullCache()
    else:
        root = Path(args.cache_dir) if args.cache_dir else None
        cache = ResultCache(root)
    progress = StderrProgress() if args.progress else None
    hooks = (progress,) if progress is not None else ()
    tracer = _cli_tracer(args)
    engine = make_engine(
        jobs=args.jobs, cache=cache, hooks=hooks, tracer=tracer
    )
    return engine, progress, tracer


def _print_provenance(provenance: Optional[Provenance]) -> None:
    """Batch accounting line for ``--progress``."""
    if provenance is None:
        return
    print(
        f"{provenance.total_cells} cells: {provenance.cache_hits} cached "
        f"({provenance.hit_rate:.1%} hit rate), {provenance.executed} "
        f"executed, {provenance.wall_seconds:.2f}s wall "
        f"[{provenance.runner}]",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for name in benchmark_names():
        spec = SPEC2000_BENCHMARKS[name]
        rows.append((name, spec.description))
    print(
        format_table(
            ["benchmark", "description"],
            rows,
            title="SPEC2000 synthetic benchmark registry (Figure 4 order)",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = _cli_tracer(args)
    if args.json or args.csv:
        # Full-fidelity path: the exports need complete interval logs,
        # which summary cells deliberately do not carry.
        spec = benchmark(args.benchmark)
        machine = Machine()
        trace = spec.trace(n_intervals=args.intervals)
        managed = machine.run(
            trace, build_governor(args.governor, args.policy), tracer=tracer
        )
        if args.json:
            print(run_to_json(managed))
        else:
            print(run_to_csv(managed), end="")
        _write_trace(tracer, args)
        return 0

    benchmark(args.benchmark)  # fail fast on unknown names
    cell_spec = ExperimentSpec.create(
        "comparison",
        benchmark=args.benchmark,
        n_intervals=args.intervals,
        governor=args.governor,
        policy=args.policy,
        gphr_depth=8,
        pht_entries=128,
    )
    if tracer is not None:
        # Traced runs evaluate inline: a cache hit would skip the
        # simulation and record nothing, and a worker process cannot
        # ship its collector back.  The value is bit-identical either
        # way (tracing is zero-perturbation, the cell is deterministic).
        from repro.exec.cells import evaluate_cell

        value = evaluate_cell(cell_spec, tracer)
        _write_trace(tracer, args)
    else:
        engine, _, _ = _cli_engine(args)
        report = engine.run([cell_spec])
        value = report.value(cell_spec)
        if args.progress:
            _print_provenance(report.provenance())

    def _f(key: str) -> float:
        metric = value[key]
        assert isinstance(metric, (int, float))
        return float(metric)

    rows = [
        ("governor", str(value["governor"])),
        ("policy", build_policy(args.policy).name),
        ("intervals", str(value["n_intervals"])),
        ("baseline power", f"{_f('baseline_power_w'):.2f} W"),
        ("managed power", f"{_f('managed_power_w'):.2f} W"),
        ("baseline BIPS", f"{_f('baseline_bips'):.3f}"),
        ("managed BIPS", f"{_f('managed_bips'):.3f}"),
        ("prediction accuracy", format_percent(_f("prediction_accuracy"))),
        ("DVFS transitions", str(value["transition_count"])),
        ("power savings", format_percent(_f("power_savings"))),
        ("energy savings", format_percent(_f("energy_savings"))),
        (
            "performance degradation",
            format_percent(_f("performance_degradation")),
        ),
        ("EDP improvement", format_percent(_f("edp_improvement"))),
    ]
    print(
        format_table(
            ["metric", "value"], rows, title=f"run: {args.benchmark}"
        )
    )
    return 0


def _accuracy_result(
    names: Sequence[str], intervals: int, engine: ExecutionEngine
) -> SweepResult:
    """Figure 4 predictor suite as a (benchmark, predictor) sweep."""
    predictors = [p.name for p in paper_predictor_suite()]
    grid: Dict[Tuple[str, str], ExperimentSpec] = {
        (name, predictor): ExperimentSpec.create(
            "predictor_accuracy",
            benchmark=name,
            n_intervals=intervals,
            predictor=predictor,
            phase_edges=None,
        )
        for name in names
        for predictor in predictors
    }
    report = engine.run(list(grid.values()))

    def _metrics(value: CellValue) -> Mapping[str, float]:
        accuracy = value["accuracy"]
        misprediction = value["misprediction_rate"]
        assert isinstance(accuracy, float)
        assert isinstance(misprediction, float)
        return {
            "accuracy": accuracy,
            "misprediction_rate": misprediction,
        }

    from repro.exec.results import SweepCell

    cells = tuple(
        SweepCell.create(key, _metrics(report.value(spec)))
        for key, spec in grid.items()
    )
    return SweepResult(
        name="accuracy",
        axes=("benchmark", "predictor"),
        cells=cells,
        parameters=(("n_intervals", intervals),),
        metric="accuracy",
        provenance=report.provenance(),
    )


def _render_two_axis(result: SweepResult, title: str) -> str:
    """Pivot a (benchmark, X) sweep into a benchmark-per-row table."""
    row_axis, col_axis = result.axes
    columns = result.axis_values(col_axis)
    rows = [
        [str(row)]
        + [round(result.value(row, column) * 100, 1) for column in columns]
        for row in result.axis_values(row_axis)
    ]
    return format_table(
        [row_axis] + [str(column) for column in columns], rows, title=title
    )


def _cmd_accuracy(args: argparse.Namespace) -> int:
    names = (
        args.benchmarks or args.benchmark_args or list(benchmark_names())
    )
    engine, _, tracer = _cli_engine(args)
    result = _accuracy_result(names, args.intervals, engine)
    _write_trace(tracer, args)
    if args.progress:
        _print_provenance(result.provenance)
    if args.format == "json":
        print(result.to_json(indent=2))
        return 0
    print(
        _render_two_axis(
            result,
            f"prediction accuracy (%) over {args.intervals} intervals",
        )
    )
    return 0


def _cmd_sweep_pht(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import sweep_pht_entries

    engine, _, tracer = _cli_engine(args)
    result = sweep_pht_entries(
        args.benchmarks or list(FIG5_BENCHMARKS),
        pht_sizes=args.sizes,
        gphr_depth=args.depth,
        n_intervals=args.intervals,
        engine=engine,
    )
    _write_trace(tracer, args)
    if args.progress:
        _print_provenance(result.provenance)
    if args.format == "json":
        print(result.to_json(indent=2))
        return 0
    print(
        _render_two_axis(
            result,
            f"GPHT(depth={args.depth}) accuracy (%) per PHT capacity",
        )
    )
    return 0


def _cmd_sweep_depth(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import sweep_gphr_depth

    engine, _, tracer = _cli_engine(args)
    result = sweep_gphr_depth(
        args.benchmarks or list(FIG5_BENCHMARKS),
        depths=args.depths,
        pht_entries=args.entries,
        n_intervals=args.intervals,
        engine=engine,
    )
    _write_trace(tracer, args)
    if args.progress:
        _print_provenance(result.provenance)
    if args.format == "json":
        print(result.to_json(indent=2))
        return 0
    print(
        _render_two_axis(
            result,
            f"GPHT accuracy (%) per history depth "
            f"(PHT={args.entries})",
        )
    )
    return 0


def _cmd_sweep_frequency(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import sweep_frequencies

    engine, _, tracer = _cli_engine(args)
    result = sweep_frequencies(
        args.benchmark, n_intervals=args.intervals, engine=engine
    )
    _write_trace(tracer, args)
    if args.progress:
        _print_provenance(result.provenance)
    if args.format == "json":
        print(result.to_json(indent=2))
        return 0
    rows = []
    for frequency in result.axis_values("frequency_mhz"):
        rows.append(
            (
                frequency,
                f"{result.value(frequency, metric='bips'):.3f}",
                f"{result.value(frequency, metric='power_w'):.2f}",
                f"{result.value(frequency, metric='upc'):.3f}",
                f"{result.value(frequency, metric='mem_per_uop'):.4f}",
            )
        )
    print(
        format_table(
            ["frequency (MHz)", "BIPS", "power (W)", "UPC", "Mem/Uop"],
            rows,
            title=f"operating points: {args.benchmark}",
        )
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    for name in args.benchmarks:
        result = characterize(benchmark(name), n_intervals=args.intervals)
        print(
            format_table(
                ["property", "value"],
                characterization_rows(result),
                title=f"characterisation: {name}",
            )
        )
        print()
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.workloads.serialization import trace_to_json

    trace = benchmark(args.benchmark).trace(n_intervals=args.intervals)
    print(trace_to_json(trace))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.paper_report import (
        claims_payload,
        measure_claims,
        render_report,
    )

    engine, _, tracer = _cli_engine(args)
    claims = measure_claims(
        n_accuracy=args.accuracy_intervals,
        n_intervals=args.intervals,
        engine=engine,
    )
    _write_trace(tracer, args)
    if args.progress:
        stats = engine.cache_stats
        print(
            f"cache: {stats.hits} hits / {stats.misses} misses "
            f"({stats.hit_rate:.1%} hit rate), {stats.writes} writes",
            file=sys.stderr,
        )
    if args.format == "json":
        print(json.dumps(claims_payload(claims), indent=2))
    else:
        print(render_report(claims))
    return 0 if all(claim.holds for claim in claims) else 1


def _read_trace_file(path: str) -> Tuple[TraceEvent, ...]:
    """Load a JSONL trace, mapping I/O failures onto the CLI error path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(f"cannot read trace file: {error}") from None
    return events_from_jsonl(text)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.exec.cells import evaluate_cell
    from repro.obs.tracer import DEFAULT_CAPACITY

    benchmark(args.benchmark)  # fail fast on unknown names
    cell_spec = ExperimentSpec.create(
        "comparison",
        benchmark=args.benchmark,
        n_intervals=args.intervals,
        governor=args.governor,
        policy=args.policy,
        gphr_depth=8,
        pht_entries=128,
    )
    # Size the ring so a full run never drops events (a handful of
    # event types per interval, plus headroom).
    tracer = RingBufferTracer(
        capacity=max(DEFAULT_CAPACITY, args.intervals * 8)
    )
    evaluate_cell(cell_spec, tracer)
    payload = events_to_jsonl(tracer.events())
    if args.out:
        _write_output_file(Path(args.out), payload)
        print(
            f"trace: {len(tracer)} events -> {args.out}", file=sys.stderr
        )
    else:
        print(payload, end="")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs.export import summary_payload

    events = _read_trace_file(args.file)
    if args.format == "json":
        print(json.dumps(summary_payload(events), indent=2))
    else:
        print(summary_text(events))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    events = _read_trace_file(args.file)
    # Shared --format spelling: text renders CSV, json renders the
    # normalised JSONL stream.
    if args.format == "json":
        payload = events_to_jsonl(events)
    else:
        payload = events_to_csv(events)
    if args.out:
        _write_output_file(Path(args.out), payload)
        print(
            f"trace: {len(events)} events -> {args.out}", file=sys.stderr
        )
    else:
        print(payload, end="")
    return 0


def _serve_manager(args: argparse.Namespace) -> "SessionManager":
    """Build the session manager a ``serve`` frontend asked for."""
    from repro.serve import SessionManager
    from repro.serve.frontends import DEFAULT_CLOCK

    return SessionManager(
        max_sessions=args.max_sessions,
        idle_timeout_s=args.idle_timeout,
        clock=DEFAULT_CLOCK,
    )


def _cmd_serve_stdio(args: argparse.Namespace) -> int:
    from repro.serve import serve_stdio

    handled = serve_stdio(_serve_manager(args), sys.stdin, sys.stdout)
    print(f"serve: {handled} requests handled", file=sys.stderr)
    return 0


def _cmd_serve_tcp(args: argparse.Namespace) -> int:
    # Checkpointing and auto-restart live in the sharded router, so any
    # resilience flag routes through it even with a single worker.
    if args.workers > 1 or args.auto_restart or args.checkpoint_every > 0:
        from repro.serve import run_sharded

        print(
            f"serve: listening on {args.host}:{args.port} "
            f"({args.workers} workers, max {args.max_sessions} sessions"
            + (", auto-restart" if args.auto_restart else "")
            + ")",
            file=sys.stderr,
        )
        run_sharded(
            args.workers,
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            idle_timeout_s=args.idle_timeout,
            queue_depth=args.queue_depth,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            auto_restart=args.auto_restart,
        )
        return 0
    from repro.serve import serve_tcp

    print(
        f"serve: listening on {args.host}:{args.port} "
        f"(max {args.max_sessions} sessions)",
        file=sys.stderr,
    )
    serve_tcp(
        _serve_manager(args),
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
    )
    return 0


def _cmd_serve_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ChaosSchedule, ShardedServer, run_loadgen
    from repro.serve.loadgen import parse_chaos_event

    events = [parse_chaos_event(spec) for spec in args.chaos_kill or []]
    if events and not args.self_host:
        raise ConfigurationError(
            "--chaos-kill needs --self-host N (kills target the "
            "in-process server's workers)"
        )

    server: "ShardedServer | None" = None
    host, port = args.host, args.port
    if args.self_host:
        # Self-hosted chaos mode: spin up a sharded server in-process so
        # the kill schedule has workers to terminate, with auto-restart
        # and checkpointing on — the recovery path under test.
        server = ShardedServer(
            workers=args.self_host,
            host="127.0.0.1",
            port=0,
            max_sessions=args.max_sessions,
            checkpoint_every=args.checkpoint_every,
            auto_restart=True,
        )
        host = "127.0.0.1"
        port = server.start()
        print(
            f"loadgen: self-hosting {args.self_host} workers on port {port}",
            file=sys.stderr,
        )
    try:
        chaos = (
            ChaosSchedule(server.kill_worker, events)
            if server is not None and events
            else None
        )
        result = run_loadgen(
            host,
            port,
            sessions=args.sessions,
            samples_per_session=args.samples,
            batch_size=args.batch,
            connections=args.connections,
            governor=args.governor,
            seed=args.seed,
            chaos=chaos,
        )
    finally:
        if server is not None:
            server.stop()
    if args.format == "json":
        print(_json.dumps(result.to_payload(), indent=2, sort_keys=True))
    else:
        rows = [
            ("sessions", str(result.sessions)),
            ("samples/session", str(result.samples_per_session)),
            ("batch size", str(result.batch_size)),
            ("connections", str(result.connections)),
            ("requests", str(result.requests)),
            ("samples", str(result.samples)),
            ("errors", str(result.errors)),
            ("recoveries", str(result.recoveries)),
            ("replayed samples", str(result.replayed_samples)),
            ("elapsed", f"{result.elapsed_s:.3f} s"),
            ("samples/s", f"{result.samples_per_s:,.0f}"),
            ("requests/s", f"{result.requests_per_s:,.0f}"),
            ("outcome digest", result.outcome_digest[:16]),
        ]
        print(
            format_table(
                ["property", "value"],
                rows,
                title=f"loadgen: {args.host}:{args.port}",
            )
        )
    return 0 if result.errors == 0 else 1


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import SessionConfig, load_trace, replay_trace

    predictor_state: Optional[Dict[str, object]] = None
    if args.model:
        from repro.learn import ModelArtifact, session_config_params

        artifact = ModelArtifact.load(args.model)
        params = session_config_params(artifact)
        params["policy"] = args.policy
        config = SessionConfig.from_payload(params)
        predictor_state = dict(artifact.state)
    else:
        config = SessionConfig(
            governor=args.governor,
            policy=args.policy,
            gphr_depth=args.gphr_depth,
            pht_entries=args.pht_entries,
            window_size=args.window_size,
            history_length=args.history_length,
            markov_order=args.markov_order,
            markov_alpha=args.markov_alpha,
        )
    report = replay_trace(
        load_trace(Path(args.file)),
        config,
        snapshot_at=args.snapshot_at,
        predictor_state=predictor_state,
    )
    if args.format == "json":
        print(_json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        rows = [
            ("samples", str(report.samples)),
            ("governor", report.governor),
            ("policy", report.policy),
            ("scored predictions", str(len(report.online_predictions))),
            ("accuracy", format_percent(report.accuracy)),
            (
                "snapshot/restore at",
                "-" if report.snapshot_at is None else str(report.snapshot_at),
            ),
            (
                "matches offline evaluator",
                "yes"
                if report.matches_offline
                else f"NO (first mismatch at {report.mismatch_index})",
            ),
            (
                "matches recorded phases",
                "-"
                if report.trace_phases_match is None
                else ("yes" if report.trace_phases_match else "NO"),
            ),
        ]
        print(
            format_table(
                ["property", "value"], rows, title=f"replay: {args.file}"
            )
        )
    ok = report.matches_offline and report.trace_phases_match is not False
    return 0 if ok else 1


def _learn_source_series(args: argparse.Namespace) -> Tuple[List[float], Dict[str, object]]:
    """The ``Mem/Uop`` series a learn command trains/evaluates on.

    Exactly one of ``--trace FILE`` (recorded ``repro.obs`` JSONL) and
    ``--benchmark NAME`` (live workload generator) provides it.
    """
    from repro.obs.events import IntervalSampled

    if args.trace:
        events = _read_trace_file(args.trace)
        series = [
            event.mem_per_uop
            for event in events
            if isinstance(event, IntervalSampled)
        ]
        if not series:
            raise ConfigurationError(
                f"trace {args.trace} contains no interval_sampled events"
            )
        return series, {"trace": args.trace}
    series_array = benchmark(args.benchmark).mem_series(
        args.intervals, seed=args.seed
    )
    return list(series_array), {
        "benchmark": args.benchmark,
        "n_intervals": args.intervals,
        "seed": args.seed,
    }


def _cmd_learn_train(args: argparse.Namespace) -> int:
    from repro.learn import (
        phase_dataset_from_series,
        power_dataset_from_benchmark,
        power_dataset_from_events,
        train_markov,
        train_phase_tree,
        train_power_model,
    )

    if args.model == "power":
        if args.trace:
            # Raises with the precise reason (traces carry no power).
            power_dataset_from_events(_read_trace_file(args.trace))
        dataset = power_dataset_from_benchmark(
            args.benchmark, args.intervals, seed=args.seed
        )
        source: Dict[str, object] = {
            "benchmark": args.benchmark,
            "n_intervals": args.intervals,
            "seed": args.seed,
        }
        _, artifact = train_power_model(
            dataset,
            max_depth=args.max_depth,
            min_samples_leaf=args.min_leaf,
            source=source,
        )
    else:
        series, source = _learn_source_series(args)
        history = args.history if args.model == "tree" else max(args.order, 1)
        phase_dataset = phase_dataset_from_series(
            series, history_length=history
        )
        if args.model == "tree":
            _, artifact = train_phase_tree(
                phase_dataset,
                max_depth=args.max_depth,
                min_samples_leaf=args.min_leaf,
                source=source,
            )
        else:
            _, artifact = train_markov(
                phase_dataset,
                order=args.order,
                alpha=args.alpha,
                source=source,
            )
    out = Path(args.out)
    _write_output_file(out, artifact.to_json())
    examples = artifact.training["examples"]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "out": str(out),
                    "kind": artifact.kind,
                    "name": artifact.name,
                    "examples": examples,
                    "digest": artifact.digest(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        rows = [
            ("artifact", str(out)),
            ("kind", artifact.kind),
            ("model", artifact.name),
            ("examples", str(examples)),
            ("digest", artifact.digest()[:16]),
        ]
        print(
            format_table(
                ["property", "value"], rows, title=f"learn train: {args.model}"
            )
        )
    return 0


def _cmd_learn_eval(args: argparse.Namespace) -> int:
    from repro.core.phases import PhaseTable
    from repro.learn import (
        LearnedPowerModel,
        ModelArtifact,
        build_model,
        power_dataset_from_benchmark,
        power_dataset_from_events,
    )

    artifact = ModelArtifact.load(args.artifact)
    model = build_model(artifact)
    if isinstance(model, LearnedPowerModel):
        if args.trace:
            power_dataset_from_events(_read_trace_file(args.trace))
        dataset = power_dataset_from_benchmark(
            args.benchmark, args.intervals, seed=args.seed
        )
        evaluation = model.evaluate(dataset)
        ok = args.max_mae_w is None or evaluation.mae_w <= args.max_mae_w
        if args.format == "json":
            payload = dict(evaluation.to_payload())
            payload["kind"] = artifact.kind
            payload["passed"] = ok
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            rows = [
                ("model", artifact.name),
                ("samples", str(evaluation.samples)),
                ("MAE", f"{evaluation.mae_w:.4f} W"),
                ("RMSE", f"{evaluation.rmse_w:.4f} W"),
                ("max abs error", f"{evaluation.max_abs_error_w:.4f} W"),
                ("mean power", f"{evaluation.mean_power_w:.4f} W"),
                (
                    "MAE floor",
                    "-"
                    if args.max_mae_w is None
                    else f"{args.max_mae_w:.4f} W ({'ok' if ok else 'FAIL'})",
                ),
            ]
            print(
                format_table(
                    ["property", "value"], rows,
                    title=f"learn eval: {args.artifact}",
                )
            )
        return 0 if ok else 1

    from repro.analysis.accuracy import evaluate_predictor_batch

    series, _ = _learn_source_series(args)
    result = evaluate_predictor_batch(model, series, PhaseTable())
    ok = result.accuracy >= args.min_accuracy
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": artifact.kind,
                    "model": artifact.name,
                    "samples": len(series),
                    "scored": result.total,
                    "correct": result.correct,
                    "accuracy": result.accuracy,
                    "misprediction_rate": result.misprediction_rate,
                    "min_accuracy": args.min_accuracy,
                    "passed": ok,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        rows = [
            ("model", artifact.name),
            ("samples", str(len(series))),
            ("scored", str(result.total)),
            ("accuracy", format_percent(result.accuracy)),
            (
                "accuracy floor",
                f"{format_percent(args.min_accuracy)}"
                f" ({'ok' if ok else 'FAIL'})",
            ),
        ]
        print(
            format_table(
                ["property", "value"], rows,
                title=f"learn eval: {args.artifact}",
            )
        )
    return 0 if ok else 1


def _cmd_learn_compare(args: argparse.Namespace) -> int:
    from repro.learn import DEFAULT_COMPARE_BENCHMARKS, compare_models

    engine, _, tracer = _cli_engine(args)
    payload = compare_models(
        engine,
        benchmarks=tuple(args.benchmarks or DEFAULT_COMPARE_BENCHMARKS),
        n_intervals=args.intervals,
        models=tuple(args.models),
        train_intervals=args.train_intervals,
        train_seed=args.train_seed,
    )
    _write_trace(tracer, args)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    summary = payload["summary"]
    assert isinstance(summary, dict)
    rows = []
    for model, stats in summary.items():
        assert isinstance(stats, dict)
        mean_accuracy = stats["mean_accuracy"]
        mean_misprediction = stats["mean_misprediction_rate"]
        overhead = stats["mean_overhead_units"]
        assert isinstance(mean_accuracy, float)
        assert isinstance(mean_misprediction, float)
        assert isinstance(overhead, float)
        rows.append(
            (
                str(model),
                format_percent(mean_accuracy),
                format_percent(mean_misprediction),
                f"{overhead:.1f}",
                str(stats["benchmarks_won"]),
            )
        )
    benchmarks_used = payload["benchmarks"]
    assert isinstance(benchmarks_used, list)
    print(
        format_table(
            [
                "model",
                "mean accuracy",
                "mean mispredict",
                "overhead",
                "wins",
            ],
            rows,
            title=(
                f"learned vs paper predictors over "
                f"{len(benchmarks_used)} benchmarks, "
                f"{args.intervals} intervals"
            ),
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import run_lint
    from repro.devtools.lint.cli import list_rules_text

    if args.list_rules:
        print(list_rules_text())
        return 0
    return run_lint(args.paths, output_format=args.format)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analyze import run_analyze
    from repro.devtools.analyze.cli import list_analyses_text

    if args.list_rules:
        print(list_analyses_text())
        return 0
    return run_analyze(args.paths, output_format=args.format)


def _cmd_quadrants(args: argparse.Namespace) -> int:
    placements = place_all(SPEC2000_BENCHMARKS, n_intervals=args.intervals)
    rows = [
        (
            p.name,
            round(p.savings_potential, 4),
            round(p.variability_pct, 1),
            p.quadrant.name,
        )
        for p in sorted(
            placements.values(), key=lambda p: (p.quadrant.name, p.name)
        )
    ]
    print(
        format_table(
            ["benchmark", "mean Mem/Uop", "variation %", "quadrant"],
            rows,
            title="Figure 3 quadrant placement",
        )
    )
    return 0


# ---------------------------------------------------------------------------
# bench — benchmark registry + regression gate
# ---------------------------------------------------------------------------


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import BENCHES, all_tags

    if args.format == "json":
        payload = {
            "tags": all_tags(),
            "benches": [
                {
                    "name": spec.name,
                    "module": spec.module,
                    "tags": list(spec.tags),
                    "artifacts": list(spec.artifacts),
                }
                for spec in BENCHES
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        (spec.name, ", ".join(spec.tags), ", ".join(spec.artifacts))
        for spec in BENCHES
    ]
    print(
        format_table(
            ["bench", "tags", "artifacts"],
            rows,
            title=f"benchmark registry ({len(BENCHES)} benches; "
            f"tags: {', '.join(all_tags())})",
        )
    )
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import default_bench_dir, run_benches, select_benches

    tags = list(args.tag or [])
    if args.smoke and "smoke" not in tags:
        tags.append("smoke")
    benches = select_benches(names=args.benches, tags=tags)
    if not benches:
        raise ConfigurationError(
            "the selection matched no registered benches"
        )
    bench_dir = (
        Path(args.bench_dir) if args.bench_dir else default_bench_dir()
    )
    out_dir = Path(args.out)
    engine, _, tracer = _cli_engine(args)
    records = run_benches(engine, benches, bench_dir, out_dir)
    _write_trace(tracer, args)
    failed = [r for r in records if not r.get("passed")]
    if args.format == "json":
        payload = {
            "out": str(out_dir),
            "passed": len(records) - len(failed),
            "failed": len(failed),
            "benches": records,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            (
                str(record["bench"]),
                "ok" if record.get("passed") else "FAIL",
                ", ".join(str(tag) for tag in record.get("tags", [])),
            )
            for record in records
        ]
        print(
            format_table(
                ["bench", "status", "tags"],
                rows,
                title=f"bench run -> {out_dir} "
                f"({len(records) - len(failed)}/{len(records)} passed)",
            )
        )
        for record in failed:
            tail = str(record.get("output_tail", ""))
            if tail:
                print(f"\n--- {record['bench']} output tail ---\n{tail}")
    return 1 if failed else 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench import load_results_dir

    payloads = load_results_dir(Path(args.results))
    if args.format == "json":
        print(json.dumps(payloads, indent=2, sort_keys=True))
        return 0
    rows = []
    for name in sorted(payloads):
        payload = payloads[name]
        host = payload.get("host", {})
        rows.append(
            (
                name,
                payload.get("version"),
                len(payload.get("metrics", {})),
                len(payload.get("measured", {})),
                f"{host.get('platform', 'unknown')[:28]}",
            )
        )
    print(
        format_table(
            ["artifact", "version", "metrics", "measured", "host"],
            rows,
            title=f"bench report: {args.results} "
            f"({len(payloads)} artifacts)",
        )
    )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare_results, load_results_dir

    current = load_results_dir(Path(args.results))
    baseline = load_results_dir(Path(args.baseline))
    enforce = True if args.enforce else None
    report = compare_results(
        current,
        baseline,
        tolerance=args.tolerance / 100.0,
        enforce=enforce,
    )
    if args.format == "json":
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Runtime phase monitoring and prediction with application to "
            "dynamic power management (MICRO 2006 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the benchmark registry"
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser(
        "run",
        parents=[_engine_parent()],
        help="run one benchmark, baseline vs managed",
    )
    run_parser.add_argument("benchmark", help="benchmark name (see 'list')")
    run_parser.add_argument(
        "--governor",
        choices=GOVERNOR_NAMES,
        default="gpht",
        help="managed governor (default: gpht)",
    )
    run_parser.add_argument(
        "--policy",
        choices=sorted(POLICY_NAMES),
        default="table2",
        help="phase-to-DVFS policy (default: the paper's Table 2)",
    )
    run_parser.add_argument(
        "--intervals", type=int, default=300,
        help="trace length in 100M-uop intervals",
    )
    run_parser.add_argument(
        "--json", action="store_true", help="emit the managed run as JSON"
    )
    run_parser.add_argument(
        "--csv", action="store_true",
        help="emit the managed run's interval log as CSV",
    )
    run_parser.set_defaults(func=_cmd_run)

    accuracy_parser = subparsers.add_parser(
        "accuracy",
        parents=[_sweep_parent(default_intervals=1000)],
        help="evaluate the Figure 4 predictor suite",
    )
    accuracy_parser.add_argument(
        "benchmark_args",
        nargs="*",
        metavar="benchmark",
        help="benchmarks to evaluate (default: all 33)",
    )
    accuracy_parser.set_defaults(func=_cmd_accuracy)

    sweep_parser = subparsers.add_parser(
        "sweep", help="parameter sweeps through the execution engine"
    )
    sweep_subparsers = sweep_parser.add_subparsers(
        dest="sweep_kind", required=True
    )

    pht_parser = sweep_subparsers.add_parser(
        "pht",
        parents=[_sweep_parent(default_intervals=1000)],
        help="GPHT accuracy per PHT capacity (Figure 5)",
    )
    pht_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1, 64, 128, 1024],
        metavar="N",
        help="PHT capacities (default: 1 64 128 1024)",
    )
    pht_parser.add_argument(
        "--depth", type=int, default=8, help="GPHR depth (default: 8)"
    )
    pht_parser.set_defaults(func=_cmd_sweep_pht)

    depth_parser = sweep_subparsers.add_parser(
        "depth",
        parents=[_sweep_parent(default_intervals=1000)],
        help="GPHT accuracy per global history depth",
    )
    depth_parser.add_argument(
        "--depths",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8, 16],
        metavar="N",
        help="history depths (default: 1 2 4 8 16)",
    )
    depth_parser.add_argument(
        "--entries", type=int, default=1024,
        help="PHT capacity (default: 1024)",
    )
    depth_parser.set_defaults(func=_cmd_sweep_depth)

    frequency_parser = sweep_subparsers.add_parser(
        "frequency",
        parents=[_engine_parent(), _format_parent()],
        help="run one benchmark pinned at every operating point (Figure 7)",
    )
    frequency_parser.add_argument(
        "benchmark",
        nargs="?",
        default="applu_in",
        help="benchmark name (default: applu_in)",
    )
    frequency_parser.add_argument(
        "--intervals", type=int, default=50,
        help="trace length per point (default: 50)",
    )
    frequency_parser.set_defaults(func=_cmd_sweep_frequency)

    characterize_parser = subparsers.add_parser(
        "characterize", help="full workload characterisation report"
    )
    characterize_parser.add_argument(
        "benchmarks", nargs="+", help="benchmarks to characterise"
    )
    characterize_parser.add_argument("--intervals", type=int, default=1000)
    characterize_parser.set_defaults(func=_cmd_characterize)

    export_parser = subparsers.add_parser(
        "export-trace",
        help="emit a benchmark's workload trace as portable JSON",
    )
    export_parser.add_argument("benchmark", help="benchmark name")
    export_parser.add_argument("--intervals", type=int, default=300)
    export_parser.set_defaults(func=_cmd_export_trace)

    report_parser = subparsers.add_parser(
        "report",
        parents=[_engine_parent(), _format_parent()],
        help="re-measure the paper's headline claims (exit 1 if any fails)",
    )
    report_parser.add_argument(
        "--intervals", type=int, default=300,
        help="trace length for management claims",
    )
    report_parser.add_argument(
        "--accuracy-intervals", type=int, default=1000,
        help="trace length for prediction claims",
    )
    report_parser.set_defaults(func=_cmd_report)

    quadrant_parser = subparsers.add_parser(
        "quadrants", help="place every benchmark on the Figure 3 plane"
    )
    quadrant_parser.add_argument("--intervals", type=int, default=400)
    quadrant_parser.set_defaults(func=_cmd_quadrants)

    trace_parser = subparsers.add_parser(
        "trace",
        help="record, summarise and convert structured event traces",
    )
    trace_subparsers = trace_parser.add_subparsers(
        dest="trace_kind", required=True
    )

    trace_record = trace_subparsers.add_parser(
        "record",
        help="run one benchmark under a governor and record its trace",
    )
    trace_record.add_argument("benchmark", help="benchmark name (see 'list')")
    trace_record.add_argument(
        "--governor",
        choices=GOVERNOR_NAMES,
        default="gpht",
        help="managed governor (default: gpht)",
    )
    trace_record.add_argument(
        "--policy",
        choices=sorted(POLICY_NAMES),
        default="table2",
        help="phase-to-DVFS policy (default: the paper's Table 2)",
    )
    trace_record.add_argument(
        "--intervals",
        type=_positive_int,
        default=300,
        help="trace length in 100M-uop intervals (default: 300)",
    )
    trace_record.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write JSONL to FILE (default: stdout)",
    )
    trace_record.set_defaults(func=_cmd_trace_record)

    trace_summarize = trace_subparsers.add_parser(
        "summarize",
        parents=[_format_parent()],
        help="event counts and derived metrics of a recorded trace",
    )
    trace_summarize.add_argument("file", help="JSONL trace file")
    trace_summarize.set_defaults(func=_cmd_trace_summarize)

    trace_export = trace_subparsers.add_parser(
        "export",
        parents=[_format_parent(json_help="normalised JSONL")],
        help="convert a recorded trace to CSV (text) or normalised JSONL"
        " (json)",
    )
    trace_export.add_argument("file", help="JSONL trace file")
    trace_export.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write to FILE (default: stdout)",
    )
    trace_export.set_defaults(func=_cmd_trace_export)

    serve_parser = subparsers.add_parser(
        "serve",
        help="online streaming phase-prediction service (see docs/serving.md)",
    )
    serve_subparsers = serve_parser.add_subparsers(
        dest="serve_kind", required=True
    )

    serve_limits = argparse.ArgumentParser(add_help=False)
    limits_group = serve_limits.add_argument_group("overload protection")
    limits_group.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=64,
        metavar="N",
        help="live-session ceiling (default: 64)",
    )
    limits_group.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict sessions idle longer than this (default: never)",
    )

    serve_stdio_parser = serve_subparsers.add_parser(
        "stdio",
        parents=[serve_limits],
        help="serve line-delimited JSON over stdin/stdout until EOF",
    )
    serve_stdio_parser.set_defaults(func=_cmd_serve_stdio)

    serve_tcp_parser = serve_subparsers.add_parser(
        "tcp",
        parents=[serve_limits],
        help="serve line-delimited JSON over TCP until interrupted",
    )
    serve_tcp_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_tcp_parser.add_argument(
        "--port", type=int, default=8472, help="bind port (default: 8472)"
    )
    serve_tcp_parser.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=64,
        metavar="N",
        help="per-connection request queue depth (default: 64)",
    )
    serve_tcp_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "worker processes; >1 starts the consistent-hash sharded "
            "router (default: 1, single process)"
        ),
    )
    recovery_group = serve_tcp_parser.add_argument_group("self-healing")
    recovery_group.add_argument(
        "--checkpoint-every",
        type=_positive_int_or_zero,
        default=0,
        metavar="K",
        help=(
            "checkpoint each session every K samples so restarted "
            "workers can restore it (default: 0, disabled; "
            "--auto-restart implies 32)"
        ),
    )
    recovery_group.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable checkpoint directory; sessions rebalance onto the "
            "new topology when --workers changes between runs "
            "(default: a private temporary directory)"
        ),
    )
    recovery_group.add_argument(
        "--auto-restart",
        action="store_true",
        help=(
            "respawn dead workers and restore their sessions from "
            "checkpoints instead of answering worker_unavailable forever"
        ),
    )
    serve_tcp_parser.set_defaults(func=_cmd_serve_tcp)

    serve_loadgen_parser = serve_subparsers.add_parser(
        "loadgen",
        parents=[_format_parent(), serve_limits],
        help=(
            "drive a running server with a deterministic workload and "
            "report throughput + outcome digest (exit 1 on any error)"
        ),
    )
    serve_loadgen_parser.add_argument(
        "--host", default="127.0.0.1", help="server address (default: 127.0.0.1)"
    )
    serve_loadgen_parser.add_argument(
        "--port", type=int, default=8472, help="server port (default: 8472)"
    )
    serve_loadgen_parser.add_argument(
        "--sessions", type=_positive_int, default=8,
        help="sessions to drive (default: 8)",
    )
    serve_loadgen_parser.add_argument(
        "--samples", type=_positive_int, default=512,
        help="samples per session (default: 512)",
    )
    serve_loadgen_parser.add_argument(
        "--batch", type=_positive_int, default=16,
        help="samples per sample_batch request; 1 sends single-sample "
        "sample requests (default: 16)",
    )
    serve_loadgen_parser.add_argument(
        "--connections", type=_positive_int, default=4,
        help="concurrent client connections (default: 4)",
    )
    serve_loadgen_parser.add_argument(
        "--governor",
        choices=("gpht", "reactive", "fixed_window"),
        default="gpht",
        help="session governor (default: gpht)",
    )
    serve_loadgen_parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (default: 0)",
    )
    chaos_group = serve_loadgen_parser.add_argument_group("chaos testing")
    chaos_group.add_argument(
        "--self-host",
        type=_positive_int,
        default=0,
        metavar="N",
        help=(
            "start an in-process sharded server with N workers "
            "(auto-restart + checkpointing on) and drive that instead "
            "of --host/--port"
        ),
    )
    chaos_group.add_argument(
        "--chaos-kill",
        action="append",
        metavar="REQUESTS:WORKER",
        help=(
            "kill WORKER after REQUESTS generator requests (repeatable; "
            "needs --self-host); the run must still verify with zero "
            "errors and the undisturbed outcome digest"
        ),
    )
    chaos_group.add_argument(
        "--checkpoint-every",
        type=_positive_int_or_zero,
        default=0,
        metavar="K",
        help=(
            "checkpoint cadence for the self-hosted server "
            "(default: 0 — auto-restart picks its default of 32)"
        ),
    )
    serve_loadgen_parser.set_defaults(func=_cmd_serve_loadgen)

    serve_replay_parser = serve_subparsers.add_parser(
        "replay",
        parents=[_format_parent()],
        help=(
            "drive a recorded trace through a live session and verify it "
            "reproduces the offline evaluator bit-for-bit (exit 1 if not)"
        ),
    )
    serve_replay_parser.add_argument(
        "file", help="JSONL trace file (from 'repro trace record')"
    )
    serve_replay_parser.add_argument(
        "--governor",
        choices=("gpht", "reactive", "fixed_window", "learned_tree", "markov"),
        default="gpht",
        help="session governor (default: gpht)",
    )
    serve_replay_parser.add_argument(
        "--policy",
        choices=sorted(POLICY_NAMES),
        default="table2",
        help="phase-to-DVFS policy (default: the paper's Table 2)",
    )
    serve_replay_parser.add_argument(
        "--gphr-depth", type=_positive_int, default=8,
        help="GPHT history depth (default: 8)",
    )
    serve_replay_parser.add_argument(
        "--pht-entries", type=_positive_int, default=128,
        help="GPHT pattern-table capacity (default: 128)",
    )
    serve_replay_parser.add_argument(
        "--window-size", type=_positive_int, default=8,
        help="fixed_window length (default: 8)",
    )
    serve_replay_parser.add_argument(
        "--history-length", type=_positive_int, default=4,
        help="learned_tree feature-window length (default: 4)",
    )
    serve_replay_parser.add_argument(
        "--markov-order", type=_positive_int, default=3,
        help="markov context length (default: 3)",
    )
    serve_replay_parser.add_argument(
        "--markov-alpha", type=float, default=0.5,
        help="markov smoothing strength (default: 0.5)",
    )
    serve_replay_parser.add_argument(
        "--model",
        default=None,
        metavar="FILE",
        help=(
            "trained model artifact (from 'repro learn train'); sets the "
            "governor from the artifact and pre-loads its state into both "
            "the session and the offline reference"
        ),
    )
    serve_replay_parser.add_argument(
        "--snapshot-at",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "checkpoint after sample N, round-trip through JSON and "
            "restore into a fresh session before continuing"
        ),
    )
    serve_replay_parser.set_defaults(func=_cmd_serve_replay)

    learn_parser = subparsers.add_parser(
        "learn",
        help=(
            "train, evaluate and compare learned phase predictors and "
            "power models (see docs/learning.md)"
        ),
    )
    learn_subparsers = learn_parser.add_subparsers(
        dest="learn_kind", required=True
    )

    learn_source = argparse.ArgumentParser(add_help=False)
    source_group = learn_source.add_argument_group("training data")
    source_exclusive = source_group.add_mutually_exclusive_group(
        required=True
    )
    source_exclusive.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="recorded repro.obs JSONL trace (from 'repro trace record')",
    )
    source_exclusive.add_argument(
        "--benchmark",
        default=None,
        metavar="NAME",
        help="live workload generator (see 'list')",
    )
    source_group.add_argument(
        "--intervals",
        type=_positive_int,
        default=1000,
        help="trace length for --benchmark (default: 1000)",
    )
    source_group.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed for --benchmark (default: deterministic)",
    )

    learn_train = learn_subparsers.add_parser(
        "train",
        parents=[learn_source, _format_parent()],
        help="train a model and write a versioned, byte-reproducible artifact",
    )
    learn_train.add_argument(
        "--model",
        choices=("tree", "markov", "power"),
        default="tree",
        help="model family (default: tree)",
    )
    learn_train.add_argument(
        "--history", type=_positive_int, default=4,
        help="tree feature-window length (default: 4)",
    )
    learn_train.add_argument(
        "--order", type=_positive_int, default=3,
        help="markov context length (default: 3)",
    )
    learn_train.add_argument(
        "--alpha", type=float, default=0.5,
        help="markov smoothing strength (default: 0.5)",
    )
    learn_train.add_argument(
        "--max-depth", type=_positive_int, default=8,
        help="tree depth bound (default: 8)",
    )
    learn_train.add_argument(
        "--min-leaf", type=_positive_int, default=2,
        help="tree leaf occupancy bound (default: 2)",
    )
    learn_train.add_argument(
        "--out",
        default="repro-model.json",
        metavar="FILE",
        help="artifact output path (default: repro-model.json)",
    )
    learn_train.set_defaults(func=_cmd_learn_train)

    learn_eval = learn_subparsers.add_parser(
        "eval",
        parents=[learn_source, _format_parent()],
        help=(
            "score a trained artifact on a trace or benchmark "
            "(exit 1 below the floor)"
        ),
    )
    learn_eval.add_argument(
        "artifact", help="model artifact file (from 'learn train')"
    )
    learn_eval.add_argument(
        "--min-accuracy",
        type=float,
        default=0.0,
        metavar="F",
        help="phase-model accuracy floor in [0, 1] (default: 0)",
    )
    learn_eval.add_argument(
        "--max-mae-w",
        type=float,
        default=None,
        metavar="W",
        help="power-model MAE ceiling in watts (default: none)",
    )
    learn_eval.set_defaults(func=_cmd_learn_eval)

    learn_compare = learn_subparsers.add_parser(
        "compare",
        parents=[_sweep_parent(default_intervals=512)],
        help=(
            "accuracy-vs-overhead grid of learned predictors vs the "
            "paper's GPHT, through the execution engine"
        ),
    )
    learn_compare.add_argument(
        "--models",
        nargs="+",
        choices=("tree", "markov", "gpht", "last_value"),
        default=["tree", "markov", "gpht", "last_value"],
        metavar="MODEL",
        help="models to compare (default: tree markov gpht last_value)",
    )
    learn_compare.add_argument(
        "--train-intervals",
        type=_positive_int,
        default=None,
        metavar="N",
        help="training trace length (default: same as --intervals)",
    )
    learn_compare.add_argument(
        "--train-seed",
        type=int,
        default=101,
        help="training workload seed (default: 101)",
    )
    learn_compare.set_defaults(func=_cmd_learn_compare)

    bench_parser = subparsers.add_parser(
        "bench",
        help=(
            "benchmark registry: run suites, render results, gate "
            "regressions against committed baselines"
        ),
    )
    bench_subparsers = bench_parser.add_subparsers(
        dest="bench_command", required=True
    )

    bench_list = bench_subparsers.add_parser(
        "list",
        parents=[_format_parent()],
        help="list registered benches, their tags and artifacts",
    )
    bench_list.set_defaults(func=_cmd_bench_list)

    bench_run = bench_subparsers.add_parser(
        "run",
        parents=[_engine_parent(), _format_parent()],
        help="execute a bench subset, writing artifacts to --out",
    )
    bench_run.add_argument(
        "benches",
        nargs="*",
        metavar="NAME",
        help="bench names to run (default: selection by tag, or all)",
    )
    bench_run.add_argument(
        "--tag",
        action="append",
        metavar="TAG",
        help="select every bench carrying TAG (repeatable)",
    )
    bench_run.add_argument(
        "--smoke",
        action="store_true",
        help="shorthand for --tag smoke (the fast CI subset)",
    )
    bench_run.add_argument(
        "--out",
        default="bench-results",
        metavar="DIR",
        help="artifact output directory (default: bench-results)",
    )
    bench_run.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="benchmarks/ tree to execute (default: ./benchmarks)",
    )
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_report = bench_subparsers.add_parser(
        "report",
        parents=[_format_parent()],
        help=(
            "render a results directory (every artifact must be in the "
            "current schema)"
        ),
    )
    bench_report.add_argument(
        "results",
        metavar="DIR",
        help="results directory to render",
    )
    bench_report.set_defaults(func=_cmd_bench_report)

    bench_compare = bench_subparsers.add_parser(
        "compare",
        parents=[_format_parent()],
        help=(
            "diff a results directory against committed baselines; "
            "exits 1 when parameters, metrics or details differ at all, "
            "or on an enforced measured regression"
        ),
    )
    bench_compare.add_argument(
        "results",
        metavar="DIR",
        help="current results directory",
    )
    bench_compare.add_argument(
        "--baseline",
        required=True,
        metavar="DIR",
        help="baseline results directory (e.g. benchmarks/results)",
    )
    bench_compare.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help=(
            "relative regression tolerance in percent, measured only "
            "(default: 10)"
        ),
    )
    bench_compare.add_argument(
        "--enforce",
        action="store_true",
        help=(
            "measured only: gate wall-clock 'measured' values against "
            "their direction (parameters, metrics and details are always "
            "compared exactly; REPRO_BENCH_ENFORCE=1 has the same effect)"
        ),
    )
    bench_compare.set_defaults(func=_cmd_bench_compare)

    lint_parser = subparsers.add_parser(
        "lint",
        parents=[_format_parent(sarif=True)],
        help="run the domain-aware static analysis over source paths",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered lint rule and exit",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    analyze_parser = subparsers.add_parser(
        "analyze",
        parents=[_format_parent(sarif=True)],
        help=(
            "run the whole-program analyses (checkpoint completeness, "
            "async blocking, determinism taint, layering, protocol "
            "conformance) over source paths"
        ),
    )
    analyze_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories forming the project (default: src)",
    )
    analyze_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered analysis and exit",
    )
    analyze_parser.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
