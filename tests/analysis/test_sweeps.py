"""Tests for the parameter-sweep helpers (typed SweepResult API)."""

import pytest

from repro.analysis.accuracy import evaluate_predictor
from repro.analysis.sweeps import (
    sweep_frequencies,
    sweep_gphr_depth,
    sweep_granularity,
    sweep_pht_entries,
    sweep_predictors,
)
from repro.core.governor import ReactiveGovernor
from repro.core.predictors import GPHTPredictor, paper_predictor_suite
from repro.errors import ConfigurationError
from repro.exec.results import SweepResult
from repro.workloads.spec2000 import benchmark


class TestPredictorSweep:
    BENCHMARKS = ("applu_in", "bzip2_source")
    INTERVALS = 300

    def test_equals_the_scalar_evaluator(self):
        predictors = paper_predictor_suite() + [GPHTPredictor(4, 64)]
        names = [p.name for p in predictors]
        result = sweep_predictors(self.BENCHMARKS, names, self.INTERVALS)
        assert result.name == "accuracy"
        assert result.axes == ("benchmark", "predictor")
        assert [cell.key for cell in result.cells] == [
            (name, predictor) for name in self.BENCHMARKS for predictor in names
        ]
        for name in self.BENCHMARKS:
            series = benchmark(name).mem_series(self.INTERVALS)
            for predictor in predictors:
                expected = evaluate_predictor(predictor, series)
                assert result.cell(name, predictor.name).metrics_dict() == {
                    "accuracy": expected.accuracy,
                    "misprediction_rate": expected.misprediction_rate,
                }


class TestPHTSweep:
    def test_shape(self):
        result = sweep_pht_entries(
            ["applu_in"], pht_sizes=(1, 128), n_intervals=300
        )
        assert result.axes == ("benchmark", "pht_entries")
        assert result.axis_values("benchmark") == ("applu_in",)
        assert result.axis_values("pht_entries") == (1, 128)
        assert result.metric == "accuracy"
        assert result.parameter("gphr_depth") == 8
        assert result.parameter("n_intervals") == 300

    def test_capacity_helps_on_variable_benchmark(self):
        result = sweep_pht_entries(
            ["applu_in"], pht_sizes=(1, 128), n_intervals=500
        )
        assert result.value("applu_in", 128) > result.value("applu_in", 1) + 0.2

    def test_to_dict_restores_legacy_shape(self):
        result = sweep_pht_entries(
            ["applu_in"], pht_sizes=(1, 128), n_intervals=300
        )
        nested = result.to_dict()
        assert set(nested) == {"applu_in"}
        assert set(nested["applu_in"]) == {1, 128}
        assert nested["applu_in"][128] == result.value("applu_in", 128)

    def test_rejects_empty_sizes(self):
        with pytest.raises(ConfigurationError):
            sweep_pht_entries(["applu_in"], pht_sizes=())

    def test_provenance_records_engine_accounting(self):
        result = sweep_pht_entries(
            ["applu_in"], pht_sizes=(1, 128), n_intervals=300
        )
        assert result.provenance is not None
        assert result.provenance.runner == "serial"
        assert result.provenance.total_cells == 2
        assert result.provenance.executed == 2
        assert result.provenance.cache_hits == 0


class TestLegacyDictShim:
    def test_dict_style_access_is_gone(self):
        # PR-2's DeprecationWarning shims have been removed outright;
        # nested-dict consumers must go through to_dict() explicitly.
        result = sweep_pht_entries(
            ["applu_in"], pht_sizes=(1, 128), n_intervals=300
        )
        with pytest.raises(TypeError):
            result["applu_in"]
        with pytest.raises(TypeError):
            len(result)
        with pytest.raises(TypeError):
            "applu_in" in result
        for legacy in ("keys", "items", "values", "get"):
            assert not hasattr(result, legacy)
        assert result.to_dict()["applu_in"][128] == result.value(
            "applu_in", 128
        )

    def test_typed_access_does_not_warn(self, recwarn):
        result = sweep_pht_entries(
            ["applu_in"], pht_sizes=(1,), n_intervals=300
        )
        result.value("applu_in", 1)
        result.to_dict()
        result.axis_values("benchmark")
        deprecations = [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
        assert deprecations == []


class TestDepthSweep:
    def test_depth_helps_on_variable_benchmark(self):
        result = sweep_gphr_depth(
            ["equake_in"], depths=(1, 8), n_intervals=500
        )
        assert result.value("equake_in", 8) > result.value("equake_in", 1) + 0.1
        assert result.parameter("pht_entries") == 1024

    def test_rejects_empty_depths(self):
        with pytest.raises(ConfigurationError):
            sweep_gphr_depth(["applu_in"], depths=())


class TestGranularitySweep:
    def test_shape_and_positive_improvement(self):
        result = sweep_granularity(
            "swim_in",
            granularities=(25_000_000, 100_000_000),
            governor_factory=ReactiveGovernor,
            n_segments=120,
        )
        assert result.axis_values("granularity_uops") == (
            25_000_000,
            100_000_000,
        )
        for granularity in (25_000_000, 100_000_000):
            assert (
                result.value(granularity, metric="edp_improvement") > 0.3
            )
        assert result.provenance is not None
        assert result.provenance.runner == "inline"

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            sweep_granularity("swim_in", (), ReactiveGovernor)


class TestFrequencySweep:
    def test_covers_all_operating_points(self):
        result = sweep_frequencies("swim_in", n_intervals=20)
        assert set(result.axis_values("frequency_mhz")) == {
            1500, 1400, 1200, 1000, 800, 600,
        }

    def test_mem_per_uop_invariant_bips_and_power_monotone(self):
        result = sweep_frequencies("swim_in", n_intervals=20)
        frequencies = sorted(result.axis_values("frequency_mhz"), reverse=True)
        mems = [result.value(f, metric="mem_per_uop") for f in frequencies]
        assert max(mems) - min(mems) < 1e-12
        powers = [result.value(f, metric="power_w") for f in frequencies]
        assert all(b < a for a, b in zip(powers, powers[1:]))
        bips = [result.value(f, metric="bips") for f in frequencies]
        assert all(b <= a for a, b in zip(bips, bips[1:]))

    def test_upc_rises_as_frequency_drops_for_memory_bound(self):
        result = sweep_frequencies("mcf_inp", n_intervals=20)
        frequencies = sorted(result.axis_values("frequency_mhz"), reverse=True)
        upcs = [result.value(f, metric="upc") for f in frequencies]
        assert all(b > a for a, b in zip(upcs, upcs[1:]))

    def test_full_round_trip_through_legacy_shape(self):
        result = sweep_frequencies("swim_in", n_intervals=15)
        rebuilt = SweepResult.from_dict(
            result.to_dict(),
            name=result.name,
            axes=result.axes,
            metric=result.metric,
            parameters=dict(result.parameters),
        )
        assert rebuilt == result
