"""Executing registered benches through the sweep engine.

Each selected bench becomes one ``bench_module`` cell: an
:class:`~repro.exec.spec.ExperimentSpec` whose evaluation runs the
module under pytest in a subprocess with ``REPRO_BENCH_OUT`` pointed at
the requested output directory, so the module's ``report`` fixture
lands its text + JSON artifacts there instead of the committed
``benchmarks/results``.  Routing through :class:`ExecutionEngine`
buys ``--jobs`` fan-out, progress hooks and tracing for free.

``repro bench run`` always uses the :class:`~repro.exec.cache.NullCache`:
a cached cell would skip the module run that writes its artifacts.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.bench.registry import BenchSpec
from repro.errors import ConfigurationError
from repro.exec.cells import CellValue, register_cell_kind
from repro.exec.engine import ExecutionEngine
from repro.exec.spec import ExperimentSpec
from repro.obs.tracer import NULL_TRACER, Tracer

#: Tail of subprocess output kept in a failed cell's value.
_OUTPUT_TAIL_CHARS = 4000

#: Tag of the benches whose artifacts hold wall-clock timings.
TIMED_TAG = "throughput"


def default_bench_dir() -> Path:
    """Locate the ``benchmarks/`` tree relative to the working directory."""
    candidate = Path.cwd() / "benchmarks"
    if candidate.is_dir():
        return candidate
    raise ConfigurationError(
        "no benchmarks/ directory under the current working directory; "
        "pass --bench-dir to 'bench run' or a results directory to "
        "'report'"
    )


def bench_spec_to_cell(
    spec: BenchSpec, bench_dir: Path, out_dir: Path
) -> ExperimentSpec:
    """Describe one bench module run as an engine cell."""
    return ExperimentSpec.create(
        "bench_module",
        benchmark=spec.name,
        n_intervals=1,
        module=spec.module,
        bench_dir=str(bench_dir.resolve()),
        out_dir=str(out_dir.resolve()),
    )


@register_cell_kind("bench_module")
def _cell_bench_module(
    spec: ExperimentSpec, tracer: Tracer = NULL_TRACER
) -> CellValue:
    """Run one benchmark module under pytest in a subprocess.

    The child inherits the parent environment (so ``PYTHONPATH`` and
    the enforce flag propagate) with ``REPRO_BENCH_OUT`` overridden to
    the cell's output directory.
    """
    module = str(spec.param("module"))
    bench_dir = Path(str(spec.param("bench_dir")))
    out_dir = Path(str(spec.param("out_dir")))
    module_path = bench_dir / module
    if not module_path.is_file():
        raise ConfigurationError(
            f"benchmark module {module_path} does not exist"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["REPRO_BENCH_OUT"] = str(out_dir)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(module_path),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=str(bench_dir.parent),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=False,
    )
    value: CellValue = {
        "bench": spec.benchmark,
        "module": module,
        "returncode": completed.returncode,
        "passed": completed.returncode == 0,
    }
    if completed.returncode != 0:
        value["output_tail"] = (completed.stdout or "")[-_OUTPUT_TAIL_CHARS:]
    return value


def run_benches(
    engine: ExecutionEngine,
    benches: Sequence[BenchSpec],
    bench_dir: Path,
    out_dir: Path,
) -> List[Dict[str, object]]:
    """Execute the selected benches, returning per-bench run records in
    the order of ``benches``.  The untimed benches run as one batch; then
    each :data:`TIMED_TAG` bench runs alone, beside no other bench."""
    cells: List[Tuple[BenchSpec, ExperimentSpec]] = [
        (spec, bench_spec_to_cell(spec, bench_dir, out_dir))
        for spec in benches
    ]
    pooled = [cell for spec, cell in cells if TIMED_TAG not in spec.tags]
    alone = [[cell] for spec, cell in cells if TIMED_TAG in spec.tags]
    values: Dict[ExperimentSpec, CellValue] = {}
    for batch in [pooled] + alone:
        report = engine.run(batch)
        values.update((cell, report.value(cell)) for cell in batch)
    records: List[Dict[str, object]] = []
    for spec, cell in cells:
        record: Dict[str, object] = dict(values[cell])
        record["tags"] = list(spec.tags)
        record["artifacts"] = list(spec.artifacts)
        records.append(record)
    return records
