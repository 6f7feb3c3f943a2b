"""The ``paper_sweep`` workload: the serial ``repro.exec`` engine, no cache.

A fresh process builds the engine and runs passes over the Fig 4 cells
(the six ``paper_predictor_suite`` predictors on all 33 benchmarks,
300 intervals each) and the Fig 11 cells (``gpht`` and ``reactive``
governors under the ``table2`` policy, 100 intervals each) until the run
length is used up.  Each pass covers the 264 cells in benchmark order,
all with the run's series seed, and starts with the engine's workload
memos emptied, so every pass generates its workloads afresh, as a fresh
``repro`` process would.  An untraced end-to-end run (``--probe``) runs
each pass as :data:`CHUNKS` slices, one ``ExecutionEngine.run`` over a
quarter of the cells each, and probes the host's speed (``hostspeed``)
before the first slice and after each one; the child is pinned to the
first allowed CPU, and throughput and latency are scaled to the
reference speed by ``serving.scaled_figures``.  Other runs make one
``ExecutionEngine.run`` per pass.  A cell's latency is the time the
serial engine spent on it: from the completion of the cell before it
(or the start of its slice) to its own.

Run as a program this file is that child process::

    python3 perfbench/sweep.py --seed N --seconds S --out FILE [--spans FILE] [--setup-only] [--probe]

It prints ``ready`` once the engine is built.  ``run.py`` launches it
through :func:`end_to_end` or :func:`per_layer`, then checks every
accuracy cell of every pass against the scalar ``evaluate_predictor``
on the same series, outside the timed region.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import subprocess
import sys
import time
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed
import layers
import procs
import spans
from serving import Context, Slice, end_to_end_metrics, scaled_figures

#: Series lengths; short enough that a run holds a few dozen passes.
ACCURACY_INTERVALS = 300
COMPARISON_INTERVALS = 100
GOVERNORS = ("gpht", "reactive")
#: Setup-only launches per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: Slices per pass of a probed run: each runs a quarter of the cells.
CHUNKS = 4
#: How long a launched sweep may run past its run length.
GRACE_S = 60.0


def series_seed(seed: int) -> int:
    """Series seed of every pass under run seed ``seed``."""
    return zlib.crc32(f"sweep:{seed}".encode("ascii"))


def _specs(seed: int) -> List["ExperimentSpec"]:
    from repro.core.predictors import paper_predictor_suite
    from repro.exec import ExperimentSpec
    from repro.workloads.spec2000 import benchmark_names

    predictors = [predictor.name for predictor in paper_predictor_suite()]
    specs: List[ExperimentSpec] = []
    for name in benchmark_names():
        for predictor in predictors:
            specs.append(
                ExperimentSpec.create(
                    "predictor_accuracy",
                    benchmark=name,
                    n_intervals=ACCURACY_INTERVALS,
                    seed=seed,
                    predictor=predictor,
                )
            )
        for governor in GOVERNORS:
            specs.append(
                ExperimentSpec.create(
                    "comparison",
                    benchmark=name,
                    n_intervals=COMPARISON_INTERVALS,
                    seed=seed,
                    governor=governor,
                    policy="table2",
                )
            )
    return specs


def child(argv: Sequence[str]) -> int:
    """The sweep process: build the engine, run passes, write results."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    from repro.exec import CellEvent, ExperimentSpec, make_engine
    from repro.exec.cells import clear_workload_memos

    completed: List[Tuple[int, ExperimentSpec, Dict[str, object]]] = []

    def on_cell(event: CellEvent) -> None:
        completed.append((time.monotonic_ns(), event.spec, event.value))

    engine = make_engine(hooks=(on_cell,))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    recorder = None
    if args.spans:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    cpu_before = procs.own_cpu_seconds()
    steal_before = procs.steal_seconds()
    started = time.monotonic_ns()
    deadline = started + int(args.seconds * 1e9)
    slices = []
    seed = series_seed(args.seed)
    specs = _specs(seed)
    # With probes, each pass runs in CHUNKS slices with a probe after each.
    chunks = CHUNKS if args.probe else 1
    size = -(-len(specs) // chunks)
    speeds = [hostspeed.probe() if args.probe else 0.0]
    while not slices or time.monotonic_ns() < deadline:
        clear_workload_memos()
        for first in range(0, len(specs), size):
            completed.clear()
            slice_started = time.monotonic_ns()
            engine.run(specs[first : first + size])
            slice_ns = time.monotonic_ns() - slice_started
            cells = []
            previous = slice_started
            for done, spec, value in completed:
                cells.append({
                    "kind": spec.kind,
                    "benchmark": spec.benchmark,
                    "n_intervals": spec.n_intervals,
                    "param": spec.param("predictor") or spec.param("governor"),
                    "latency_ns": done - previous,
                    "value": value,
                })
                previous = done
            speeds.append(hostspeed.probe() if args.probe else 0.0)
            scale = hostspeed.factor(speeds[-2], speeds[-1])
            slices.append({"seed": seed, "ns": slice_ns, "scale": scale, "cells": cells})
    finished = time.monotonic_ns()
    result = {
        "window": [started, finished],
        "cpu_s": procs.own_cpu_seconds() - cpu_before,
        "steal_s": procs.steal_seconds() - steal_before,
        "peak_rss_mib": procs.peak_rss_mib(os.getpid()),
        "slices": slices,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if recorder is not None:
        recorder.dump(args.spans, "server")
    return 0


def _launch(ctx: Context, seed: int, seconds: float, out: str, extra: Sequence[str]) -> Tuple[subprocess.Popen, float]:
    """Start the sweep process on the first allowed CPU; returns it and
    its launch-to-ready time."""
    argv = [
        ctx.python,
        os.path.join(ctx.root, "perfbench", "sweep.py"),
        "--seed", str(seed), "--seconds", str(seconds), "--out", out,
    ] + list(extra)
    launched = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ctx.root,
        env=ctx.env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    os.sched_setaffinity(proc.pid, set(hostspeed.allowed_cpus()[:1]))
    assert proc.stdout is not None
    line = proc.stdout.readline()
    ready = time.monotonic() - launched
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"sweep process failed before the engine was built: {line!r}")
    return proc, ready


def _finish(proc: subprocess.Popen, seconds: float, problems: List[str]) -> None:
    try:
        proc.wait(timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        problems.append("sweep process did not finish in time")
    proc.stdout.close()  # type: ignore[union-attr]
    if procs.group_members(proc.pid):
        problems.append(f"sweep processes outlived the run: {procs.group_members(proc.pid)}")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        problems.append(f"sweep process exited with {proc.returncode}")


class Sweep:
    """One measured sweep launch and its checked results."""

    def __init__(self, ctx: Context, seed: int, seconds: float, traced: bool, notes: List[str], probe: bool = False) -> None:
        out = os.path.join(ctx.run_dir, f"sweep-{int(traced)}.json")
        spans_path = os.path.join(ctx.run_dir, "sweep-spans.json")
        self.problems: List[str] = []
        client_before = procs.own_cpu_seconds()
        extra = (["--spans", spans_path] if traced else []) + (["--probe"] if probe else [])
        proc, self.setup_s = _launch(ctx, seed, seconds, out, extra)
        _finish(proc, seconds, self.problems)
        client_cpu_s = procs.own_cpu_seconds() - client_before
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        start, end = result["window"]
        self.window_ns = end - start
        self.cpu_busy = {
            "server": result["cpu_s"] / (self.window_ns / 1e9),
            "client": client_cpu_s / (self.window_ns / 1e9),
        }
        self.peak_rss_mib = float(result["peak_rss_mib"])
        self.steal_share = result["steal_s"] / (self.window_ns / 1e9 * (os.cpu_count() or 1))
        self.intervals = 0
        self.slices: List[Slice] = []
        self.attempted = 0
        self.failed = 0
        for piece in result["slices"]:
            cells = piece["cells"]
            self.slices.append((
                sum(int(cell["n_intervals"]) for cell in cells),
                int(piece["ns"]) / 1e9,
                [int(cell["latency_ns"]) for cell in cells],
                float(piece["scale"]),
            ))
            for cell in cells:
                self.attempted += 1
                self.intervals += int(cell["n_intervals"])
                reason = check_cell(cell, piece["seed"])
                if reason is not None:
                    self.failed += 1
                    notes.append(f"cell {cell['kind']}:{cell['benchmark']}:{cell['param']} failed: {reason}")
        self.totals: Optional[spans.Totals] = None
        if traced:
            self.totals = spans.Totals()
            self.totals.add(spans.load(spans_path)["spans"], start, end)  # type: ignore[arg-type]

    @property
    def intervals_per_s(self) -> float:
        return self.intervals / (self.window_ns / 1e9) if self.window_ns else 0.0


def check_cell(cell: Dict[str, object], seed: int) -> Optional[str]:
    """Why a cell's value is wrong, or ``None``.

    Accuracy cells must equal the scalar ``evaluate_predictor`` replay of
    the same series; comparison cells must cover every interval with a
    prediction accuracy in [0, 1].
    """
    value = cell["value"]
    assert isinstance(value, dict)
    if cell["kind"] == "comparison":
        accuracy = value.get("prediction_accuracy")
        if value.get("n_intervals") != cell["n_intervals"] or not isinstance(accuracy, float) or not 0.0 <= accuracy <= 1.0:
            return f"malformed comparison value {value}"
        return None
    expected = scalar_accuracy(str(cell["benchmark"]), str(cell["param"]), int(cell["n_intervals"]), seed)  # type: ignore[call-overload]
    if (value.get("correct"), value.get("total"), value.get("accuracy")) != expected:
        return f"{value} differs from the scalar evaluate_predictor {expected}"
    return None


@functools.lru_cache(maxsize=None)
def scalar_accuracy(name: str, predictor: str, n_intervals: int, seed: int) -> Tuple[int, int, float]:
    """(correct, total, accuracy) of the scalar ``evaluate_predictor`` replay.

    Every pass of a run evaluates the same cells, so each is replayed
    once and every pass is checked against it.
    """
    from repro.analysis.accuracy import evaluate_predictor
    from repro.exec import build_predictor
    from repro.workloads.spec2000 import benchmark

    series = benchmark(name).mem_series(n_intervals, seed=seed)
    expected = evaluate_predictor(build_predictor(predictor), series)
    return expected.correct, expected.total, expected.accuracy


def end_to_end(ctx: Context, seed: int, seconds: float, notes: List[str]) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    """Untraced run: setup-only launches, then one measured launch."""
    problems: List[str] = []
    setups = []
    cpu = hostspeed.allowed_cpus()[:1]
    for index in range(SETUPS):
        out = os.path.join(ctx.run_dir, f"setup-{index}.json")
        before = hostspeed.probe(cpu)
        proc, ready = _launch(ctx, seed, seconds, out, ["--setup-only"])
        _finish(proc, seconds, problems)
        setups.append((ready, ready * hostspeed.factor(before, hostspeed.probe(cpu))))
    sweep = Sweep(ctx, seed, seconds, traced=False, notes=notes, probe=True)
    problems.extend(sweep.problems)
    per_second, p50, p99 = scaled_figures(sweep.slices, "intervals/s", notes)
    metrics = end_to_end_metrics(setups, per_second, p50, p99, sweep.peak_rss_mib, sweep.steal_share, notes)
    return metrics, sweep.attempted, sweep.failed, problems


def per_layer(ctx: Context, seed: int, seconds: float, notes: List[str]) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    """Traced run: an untraced launch, then a traced one, half each."""
    base = Sweep(ctx, seed, seconds / 2, traced=False, notes=notes)
    traced = Sweep(ctx, seed, seconds / 2, traced=True, notes=notes)
    assert traced.totals is not None
    metrics = layers.layer_metrics(
        traced.totals,
        cpu_busy=base.cpu_busy,
        overhead_ratio=spans.per(traced.intervals_per_s, base.intervals_per_s),
    )
    problems = base.problems + traced.problems + traced.totals.problems()
    return metrics, base.attempted + traced.attempted, base.failed + traced.failed, problems


if __name__ == "__main__":
    sys.exit(child(sys.argv[1:]))
