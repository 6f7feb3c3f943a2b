"""Tests for the baseline-vs-managed experiment harness."""

import pytest

from repro.core.governor import PhasePredictionGovernor, ReactiveGovernor
from repro.core.predictors import GPHTPredictor
from repro.system.experiment import run_comparison, run_suite
from repro.system.machine import Machine
from repro.workloads.spec2000 import benchmark


@pytest.fixture(scope="module")
def machine():
    return Machine()


def test_run_comparison_structure(machine):
    result = run_comparison(
        benchmark("swim_in"),
        lambda: ReactiveGovernor(),
        machine,
        n_intervals=30,
    )
    assert result.benchmark_name == "swim_in"
    assert result.baseline.governor_name.startswith("Static")
    assert result.managed.governor_name == "Reactive"
    assert result.baseline.workload_name == result.managed.workload_name


def test_baseline_runs_at_full_speed(machine):
    result = run_comparison(
        benchmark("swim_in"), lambda: ReactiveGovernor(), machine,
        n_intervals=20,
    )
    assert set(result.baseline.frequency_series()) == {1500}


def test_memory_bound_benchmark_improves_edp(machine):
    result = run_comparison(
        benchmark("mcf_inp"),
        lambda: PhasePredictionGovernor(GPHTPredictor(8, 128)),
        machine,
        n_intervals=60,
    )
    assert result.comparison.edp_improvement > 0.4


def test_run_suite_preserves_order_and_keys(machine):
    names = ["swim_in", "crafty_in"]
    results = run_suite(names, lambda: ReactiveGovernor(), machine,
                        n_intervals=15)
    assert list(results) == names
    for name, comparison in results.items():
        assert comparison.benchmark_name == name


def test_fresh_governor_per_benchmark(machine):
    created = []

    def factory():
        governor = ReactiveGovernor()
        created.append(governor)
        return governor

    run_suite(["swim_in", "crafty_in"], factory, machine, n_intervals=10)
    assert len(created) == 2
    assert created[0] is not created[1]


def test_default_machine_is_built_when_omitted():
    result = run_comparison(
        benchmark("crafty_in"), lambda: ReactiveGovernor(), n_intervals=5
    )
    assert result.baseline.total_seconds > 0
