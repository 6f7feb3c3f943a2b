"""Layer spans recorded from outside the program, and their self times.

The traced run never edits ``repro``: :func:`install` replaces public
functions of each layer with timing wrappers before the program starts
(the serving launcher does it before calling the CLI, the sweep child
before building its engine).  Every call records one span -- name,
start, end, self time, parent span and root span -- in memory; the spans
of one request share the index of its root span.  The spans are written
out once, when the process ends (:meth:`SpanRecorder.dump`), and
``run.py`` turns them into per-layer metrics (:class:`Totals`).

Self time is a span's duration minus the durations of its direct
children, so the self times of one call tree sum exactly to its root's
duration.  Wrappers only go around synchronous functions: coroutine spans
would interleave on the event loop and break that nesting.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A finished span: [name, start_ns, end_ns, self_ns, parent, root, units,
#: tag].  ``parent`` is -1 for a root span; ``units`` counts the samples,
#: intervals or cells the call handled; ``tag`` is a short label (the
#: request op, the predictor name) or ``None``.  A span still open when
#: the process dumps is ``None``, so indices stay valid.
Span = Tuple[str, int, int, int, int, int, int, Optional[str]]

#: Share of the traced wall time by which the summed layer self times
#: plus the unattributed remainder may miss that wall time before the
#: traced run is refused.
RECONCILE_TOLERANCE = 0.01

#: Layer of every span name; a span whose name is missing here fails
#: the reconciliation, so no self time can go unreported.
LAYERS: Dict[str, str] = {
    "serve.protocol.handle_line": "serve.protocol.codec",
    "serve.protocol.handle_request": "serve.protocol.dispatch",
    "serve.manager.evict_idle": "serve.manager.evict_idle",
    "serve.manager.get": "serve.manager",
    "serve.manager.maybe_checkpoint": "serve.manager",
    "serve.session.feed": "serve.session",
    "serve.session.feed_batch": "serve.session",
    "serve.session.snapshot": "serve.session",
    "serve.checkpoint.snapshot": "serve.checkpoint",
    "serve.checkpoint.save": "serve.checkpoint",
    "core.governor.decide": "core.governor",
    "core.phases.classify": "core.phases",
    "core.phases.classify_batch": "core.phases",
    "core.predictors.observe": "core.predictors",
    "core.predictors.predict": "core.predictors",
    "core.predictors.predict_batch": "core.predictors",
    "core.dvfs_policy.setting_for": "core.dvfs_policy",
    "core.dvfs_policy.record_lookups": "core.dvfs_policy",
    "workloads.mem_series": "workloads",
    "workloads.trace": "workloads",
    "exec.engine.run": "exec.engine",
    "exec.cells.evaluate_cell": "exec.cells",
    "system.machine.run": "system.machine",
}


class SpanRecorder:
    """The spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[List[int]] = []  # open spans: [index, root, child_ns]

    def reset(self) -> None:
        """Forget every span (a forked worker drops its parent's)."""
        self.spans.clear()
        self._stack.clear()

    def wrap(
        self,
        name: str,
        fn: Callable[..., object],
        units: Optional[Callable[..., int]] = None,
        tag: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable[..., object]:
        """``fn`` with one span recorded around every call."""
        spans = self.spans
        stack = self._stack
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def timed(*args: object, **kwargs: object) -> object:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [index, parent[1] if parent is not None else index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[2] += elapsed
                spans[index] = (
                    name,
                    start,
                    end,
                    elapsed - frame[2],
                    parent[0] if parent is not None else -1,
                    frame[1],
                    units(*args, **kwargs) if units is not None else 1,
                    tag(*args, **kwargs) if tag is not None else None,
                )

        return timed

    def dump(self, path: str, role: str) -> None:
        """Write this process's spans to ``path`` (atomically)."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {"role": role, "pid": os.getpid(), "spans": self.spans},
                handle,
                separators=(",", ":"),
            )
        os.replace(tmp, path)


def _line_op(_manager: object, line: str) -> Optional[str]:
    # The benchmark's clients write ``{"op":"<op>",...`` first, so the op
    # is read without parsing the line a second time.
    if line.startswith('{"op":"'):
        return line[7 : line.find('"', 7)]
    return None


def _predictor_name(self: object, *_: object, **__: object) -> str:
    return str(getattr(self, "name"))


def _batch_of(position: int) -> Callable[..., int]:
    return lambda *args, **kwargs: len(args[position])  # type: ignore[arg-type]


def _intervals(*args: object, **kwargs: object) -> int:
    return int(kwargs["n_intervals"] if "n_intervals" in kwargs else args[1])  # type: ignore[call-overload]


def _lookups(_policy: object, counts: Dict[int, int]) -> int:
    return int(sum(counts.values()))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary in :data:`LAYERS` with a span."""
    import repro.exec.runner
    import repro.serve.frontends
    import repro.serve.protocol
    from repro.core.dvfs_policy import DVFSPolicy
    from repro.core.governor import PhasePredictionGovernor
    from repro.core.phases import PhaseTable
    from repro.core.predictors import (
        FixedWindowPredictor,
        GPHTPredictor,
        LastValuePredictor,
        VariableWindowPredictor,
    )
    from repro.exec.engine import ExecutionEngine
    from repro.serve.checkpoint import CheckpointStore
    from repro.serve.manager import SessionManager
    from repro.serve.session import PhaseSession
    from repro.system.machine import Machine
    from repro.workloads.spec2000 import BenchmarkSpec

    targets: List[Tuple[object, str, str, Optional[Callable[..., int]], Optional[Callable[..., Optional[str]]]]] = [
        # frontends imported handle_line by name; that is the binding the
        # TCP connection handler calls.
        (repro.serve.frontends, "handle_line", "serve.protocol.handle_line", None, _line_op),
        (repro.serve.protocol, "handle_request", "serve.protocol.handle_request", None, None),
        (SessionManager, "evict_idle", "serve.manager.evict_idle", None, None),
        (SessionManager, "get", "serve.manager.get", None, None),
        (SessionManager, "maybe_checkpoint", "serve.manager.maybe_checkpoint", None, None),
        (PhaseSession, "feed", "serve.session.feed", None, None),
        (PhaseSession, "feed_batch", "serve.session.feed_batch", _batch_of(2), None),
        (PhaseSession, "snapshot", "serve.session.snapshot", None, None),
        (CheckpointStore, "save", "serve.checkpoint.save", None, None),
        (PhasePredictionGovernor, "decide", "core.governor.decide", None, None),
        (PhaseTable, "classify", "core.phases.classify", None, None),
        (PhaseTable, "classify_batch", "core.phases.classify_batch", _batch_of(1), None),
        (GPHTPredictor, "observe", "core.predictors.observe", None, _predictor_name),
        (GPHTPredictor, "predict", "core.predictors.predict", None, _predictor_name),
        (DVFSPolicy, "setting_for", "core.dvfs_policy.setting_for", None, None),
        (DVFSPolicy, "record_lookups", "core.dvfs_policy.record_lookups", _lookups, None),
        (BenchmarkSpec, "mem_series", "workloads.mem_series", _intervals, None),
        (BenchmarkSpec, "trace", "workloads.trace", _intervals, None),
        (ExecutionEngine, "run", "exec.engine.run", _batch_of(1), None),
        # runner.py imported evaluate_cell by name; the serial runner
        # calls that binding.
        (repro.exec.runner, "evaluate_cell", "exec.cells.evaluate_cell", None, None),
        (Machine, "run", "system.machine.run", _batch_of(1), None),
    ]
    # VariableWindowPredictor inherits the scalar-loop default; setting
    # the wrapper on each class shadows it there only.
    for cls in (LastValuePredictor, FixedWindowPredictor, VariableWindowPredictor, GPHTPredictor):
        targets.append(
            (cls, "predict_batch", "core.predictors.predict_batch", _batch_of(1), _predictor_name)
        )
    for owner, attribute, name, units, tag in targets:
        setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute), units, tag))


def load(path: str) -> Dict[str, object]:
    """Read one span file, naming cadence checkpoints apart.

    ``maybe_checkpoint`` snapshots the session before it saves it; that
    snapshot belongs to the checkpoint layer, while a client's
    ``snapshot`` op stays with the session layer.
    """
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    spans = dump["spans"]
    for span in spans:
        if span is not None and span[0] == "serve.session.snapshot" and span[4] >= 0:
            parent = spans[span[4]]
            if parent is not None and parent[0] == "serve.manager.maybe_checkpoint":
                span[0] = "serve.checkpoint.snapshot"
    return dump


class Totals:
    """Self time, call count and work per span name within one window.

    Keys are span names and, for tagged spans, ``name[tag]``.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.units: Dict[str, int] = {}
        self.covered_ns = 0
        self.wall_ns = 0
        self.unknown: List[str] = []

    def add(self, spans: Sequence[Optional[Sequence[object]]], start_ns: int, end_ns: int) -> None:
        """Count the spans of one process that start inside the window."""
        roots: List[Tuple[int, int]] = []
        for span in spans:
            if span is None or not start_ns <= span[1] < end_ns:  # type: ignore[operator]
                continue
            name, start, end, own, parent, _root, units, tag = span
            if name not in LAYERS and name not in self.unknown:
                self.unknown.append(str(name))
            keys = (str(name),) if tag is None else (str(name), f"{name}[{tag}]")
            for key in keys:
                self.self_ns[key] = self.self_ns.get(key, 0) + int(own)  # type: ignore[call-overload]
                self.total_ns[key] = self.total_ns.get(key, 0) + int(end) - int(start)  # type: ignore[call-overload]
                self.calls[key] = self.calls.get(key, 0) + 1
                self.units[key] = self.units.get(key, 0) + int(units)  # type: ignore[call-overload]
            if parent == -1:
                roots.append((int(start), min(int(end), end_ns)))  # type: ignore[call-overload]
        reach = start_ns
        for low, high in sorted(roots):
            low = max(low, reach)
            if high > low:
                self.covered_ns += high - low
                reach = high
        self.wall_ns += end_ns - start_ns

    def problems(self) -> List[str]:
        """Why these spans cannot be trusted, if they cannot."""
        found = []
        if self.unknown:
            found.append(f"spans outside every layer: {self.unknown}")
        if self.reconcile_error() > RECONCILE_TOLERANCE:
            found.append(
                f"layer self times plus the unattributed remainder miss the traced "
                f"wall time by {self.reconcile_error():.2%} (tolerance {RECONCILE_TOLERANCE:.0%})"
            )
        return found

    def us(self, *keys: str) -> float:
        """Summed self time of ``keys``, in µs."""
        return sum(self.self_ns.get(key, 0) for key in keys) / 1e3

    def total_us(self, *keys: str) -> float:
        """Summed span durations of ``keys``, in µs."""
        return sum(self.total_ns.get(key, 0) for key in keys) / 1e3

    def count(self, *keys: str) -> int:
        """Summed call counts of ``keys``."""
        return sum(self.calls.get(key, 0) for key in keys)

    def work(self, *keys: str) -> int:
        """Summed work units of ``keys``."""
        return sum(self.units.get(key, 0) for key in keys)

    def unattributed_share(self) -> float:
        """Share of the traced wall time that no root span covers."""
        return 1.0 - self.covered_ns / self.wall_ns if self.wall_ns else 0.0

    def reconcile_error(self) -> float:
        """|layer self times + unattributed − wall| as a share of wall.

        Zero when every span is mapped to a layer and spans nest; spans
        that overlap (double counting) or fall outside every layer show
        up here.
        """
        if not self.wall_ns:
            return 0.0
        attributed = sum(
            own for name, own in self.self_ns.items() if "[" not in name and name in LAYERS
        )
        unattributed = self.wall_ns - self.covered_ns
        return abs(attributed + unattributed - self.wall_ns) / self.wall_ns


def per(value: float, units: int) -> float:
    """``value / units``, or 0.0 when the layer did no work in the run."""
    return value / units if units else 0.0
