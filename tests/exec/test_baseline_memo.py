"""The shared baseline of ``comparison`` cells.

A ``comparison`` cell's pinned-fastest baseline runs once per process
for each (machine, benchmark, length, seed) and is reused by every
governor and policy on that trace.  The cell values must be exactly
those of a cell that runs its own baseline.
"""

import json

import pytest

from repro.core.governor import StaticGovernor
from repro.exec import cells
from repro.exec.cells import (
    build_governor,
    clear_workload_memos,
    comparison_summary,
    evaluate_cell,
    workload_memo_stats,
)
from repro.exec.spec import ExperimentSpec
from repro.system.metrics import ComparisonMetrics
from repro.workloads.spec2000 import benchmark

BENCHMARKS = ("applu_in", "swim_in", "equake_in")
GOVERNORS = ("gpht", "reactive")
POLICIES = ("table2", "bounded")
INTERVALS = 40


def comparison_spec(name, governor="gpht", policy="table2", seed=None):
    return ExperimentSpec.create(
        "comparison",
        benchmark=name,
        n_intervals=INTERVALS,
        seed=seed,
        governor=governor,
        policy=policy,
    )


def fresh_baseline_value(spec):
    """The cell computed with a baseline run of its own."""
    governor = spec.param("governor")
    policy = spec.param("policy")
    machine = spec.machine.build()
    trace = benchmark(spec.benchmark).trace(
        n_intervals=spec.n_intervals, seed=spec.seed
    )
    baseline = machine.run(trace, StaticGovernor(machine.speedstep.fastest))
    managed = machine.run(trace, build_governor(governor, policy))
    value = comparison_summary(
        ComparisonMetrics(baseline=baseline, managed=managed), managed
    )
    value["policy"] = policy
    return value


def specs_in(order):
    crossed = [
        (name, governor, policy)
        for name in BENCHMARKS
        for governor in GOVERNORS
        for policy in POLICIES
    ]
    if order == "governor_major":
        crossed.sort(key=lambda cell: (cell[1], cell[2]))
    return [comparison_spec(*cell) for cell in crossed]


@pytest.mark.parametrize("order", ["benchmark_major", "governor_major"])
def test_cells_equal_fresh_baseline_computation(order):
    specs = specs_in(order)
    expected = {spec: fresh_baseline_value(spec) for spec in specs}
    clear_workload_memos()
    for spec in specs:
        value = evaluate_cell(spec)
        assert value == expected[spec]
        assert json.dumps(value) == json.dumps(expected[spec])
    stats = workload_memo_stats()
    assert stats["baselines_run"] == len(BENCHMARKS)
    assert stats["baselines_reused"] == len(specs) - len(BENCHMARKS)


class TestBaselineMemo:
    def test_stats_count_runs_and_reuses(self):
        clear_workload_memos()
        for governor in GOVERNORS:
            for name in BENCHMARKS:
                evaluate_cell(comparison_spec(name, governor))
        stats = workload_memo_stats()
        assert stats["baselines_run"] == len(BENCHMARKS)
        assert stats["baselines_reused"] == len(BENCHMARKS)
        # A different seed is a different trace, so a different baseline.
        evaluate_cell(comparison_spec(BENCHMARKS[0], seed=5))
        assert workload_memo_stats()["baselines_run"] == len(BENCHMARKS) + 1

    def test_clear_empties_the_memo(self):
        clear_workload_memos()
        spec = comparison_spec(BENCHMARKS[0])
        evaluate_cell(spec)
        clear_workload_memos()
        stats = workload_memo_stats()
        assert (stats["baselines_run"], stats["baselines_reused"]) == (0, 0)
        evaluate_cell(spec)
        assert workload_memo_stats()["baselines_run"] == 1

    def test_keeps_totals_only(self):
        clear_workload_memos()
        evaluate_cell(comparison_spec(BENCHMARKS[0]))
        assert [run.intervals for run in cells._baselines.values()] == [()]

    def test_oldest_key_evicted_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(cells, "BASELINE_MEMO_SIZE", 2)
        clear_workload_memos()
        first, second, third = (
            comparison_spec(name) for name in BENCHMARKS
        )
        for spec in (first, second, third):
            evaluate_cell(spec)
        evaluate_cell(third)
        assert workload_memo_stats()["baselines_reused"] == 1
        evaluate_cell(first)
        assert workload_memo_stats()["baselines_run"] == 4
