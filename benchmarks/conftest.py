"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures, saves it
under the results directory and asserts the shape properties the paper
reports.  Timings come from pytest-benchmark; the heavy experiment body
runs once via ``benchmark.pedantic``.

The ``report`` fixture persists two renderings of every artifact:

* ``results/<name>.txt`` — the human-readable table/figure text;
* ``results/<name>.json`` — a schema-valid, versioned
  :class:`repro.bench.BenchResult` with host provenance.  Deterministic
  scalars go in ``metrics`` and deterministic context (grids, per-cell
  tables) in ``details``, both compared exactly by ``repro bench
  compare``; wall-clock rates go in ``measured`` (gated only under
  ``REPRO_BENCH_ENFORCE=1``).

``REPRO_BENCH_OUT`` redirects the results directory — ``repro bench
run`` points it at a scratch dir so committed baselines are only ever
updated deliberately.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench import BenchResult
from repro.system.machine import Machine


def results_dir() -> pathlib.Path:
    """Where artifacts land: ``$REPRO_BENCH_OUT`` or the committed dir."""
    override = os.environ.get("REPRO_BENCH_OUT")
    if override:
        return pathlib.Path(override)
    return pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def machine():
    """One calibrated platform shared by all benches."""
    return Machine()


@pytest.fixture(scope="session")
def report():
    """Persist a reproduced artifact (text + versioned JSON)."""

    def _report(
        name: str,
        text: str,
        *,
        metrics=None,
        measured=None,
        parameters=None,
        details=None,
    ) -> pathlib.Path:
        out = results_dir()
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        result = BenchResult.create(
            name,
            metrics=metrics,
            measured=measured,
            parameters=parameters,
            details=details,
        )
        path = out / f"{name}.json"
        path.write_text(result.to_json(), encoding="utf-8")
        print(f"\n{text}\n[saved to {path.with_suffix('')}.{{txt,json}}]")
        return path

    return _report


def run_once(benchmark, func):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
