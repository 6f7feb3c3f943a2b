"""Tests for how ``repro bench run`` schedules bench cells."""

import pathlib

from repro.bench.registry import BENCHES
from repro.bench.runner import run_benches


class StubReport:
    def value(self, cell):
        return {"bench": cell.benchmark, "passed": True}


class StubEngine:
    """Records each batch of bench names it is asked to run."""

    def __init__(self):
        self.batches = []

    def run(self, cells):
        self.batches.append([cell.benchmark for cell in cells])
        return StubReport()


def test_timed_benches_run_alone_after_the_pool(tmp_path):
    engine = StubEngine()
    records = run_benches(
        engine, BENCHES, pathlib.Path("benchmarks"), tmp_path
    )
    untimed = [s.name for s in BENCHES if "throughput" not in s.tags]
    timed = [s.name for s in BENCHES if "throughput" in s.tags]
    assert "fig08_handler_overhead" in timed
    assert engine.batches == [untimed] + [[name] for name in timed]
    assert [r["bench"] for r in records] == [s.name for s in BENCHES]
