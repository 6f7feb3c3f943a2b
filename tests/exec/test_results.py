"""Tests for the typed result objects and their legacy-dict shims."""

import pytest

from repro.errors import ConfigurationError
from repro.exec.results import (
    ComparisonCell,
    ComparisonSuiteResult,
    Provenance,
    SweepCell,
    SweepResult,
)


def make_sweep(metric="accuracy"):
    cells = (
        SweepCell.create(("applu_in", 1), {"accuracy": 0.25,
                                           "misprediction_rate": 0.75}),
        SweepCell.create(("applu_in", 128), {"accuracy": 0.75,
                                             "misprediction_rate": 0.25}),
        SweepCell.create(("swim_in", 1), {"accuracy": 0.5,
                                          "misprediction_rate": 0.5}),
        SweepCell.create(("swim_in", 128), {"accuracy": 0.9,
                                            "misprediction_rate": 0.1}),
    )
    return SweepResult(
        name="pht_entries",
        axes=("benchmark", "pht_entries"),
        cells=cells,
        parameters=(("gphr_depth", 8), ("phase_edges", (0.005, 0.02))),
        metric=metric,
        provenance=Provenance(
            runner="serial", total_cells=4, cache_hits=1, executed=3,
            wall_seconds=0.1, cell_seconds=0.09,
        ),
    )


def make_suite():
    cells = (
        ComparisonCell.create("applu_in", {"edp_improvement": 0.3,
                                           "power_savings": 0.4}),
        ComparisonCell.create("swim_in", {"edp_improvement": 0.6,
                                          "power_savings": 0.5}),
    )
    return ComparisonSuiteResult(
        name="gpht-table2",
        governor="gpht",
        policy="table2",
        n_intervals=300,
        cells=cells,
        provenance=Provenance.inline(2, 0.5),
    )


class TestSweepResultTypedAccess:
    def test_axis_values_preserve_order(self):
        result = make_sweep()
        assert result.axis_values("benchmark") == ("applu_in", "swim_in")
        assert result.axis_values("pht_entries") == (1, 128)

    def test_value_uses_primary_metric(self):
        result = make_sweep()
        assert result.value("swim_in", 128) == 0.9
        assert result.value("swim_in", 128,
                            metric="misprediction_rate") == 0.1

    def test_unknown_key_or_metric_raises(self):
        result = make_sweep()
        with pytest.raises(ConfigurationError):
            result.cell("nosuch", 1)
        with pytest.raises(ConfigurationError):
            result.value("swim_in", 128, metric="nosuch")

    def test_value_without_metric_requires_primary(self):
        result = make_sweep(metric=None)
        with pytest.raises(ConfigurationError):
            result.value("swim_in", 128)

    def test_parameter_lookup(self):
        result = make_sweep()
        assert result.parameter("gphr_depth") == 8
        assert result.parameter("missing", 9) == 9

    def test_key_arity_is_validated(self):
        with pytest.raises(ConfigurationError):
            SweepResult(
                name="bad",
                axes=("a", "b"),
                cells=(SweepCell.create((1,), {"x": 1.0}),),
            )

    def test_create_takes_any_key_sequence(self):
        cell = SweepCell.create(["swim_in", 128], {"accuracy": 0.9})
        assert cell.key == ("swim_in", 128)
        result = SweepResult(name="s", axes=("benchmark", "n"), cells=(cell,))
        assert result.cell("swim_in", 128) is cell

    def test_float_metric_rejects_non_numeric(self):
        cell = SweepCell.create(("x",), {"flag": True, "name": "y"})
        with pytest.raises(ConfigurationError):
            cell.float_metric("flag")
        with pytest.raises(ConfigurationError):
            cell.float_metric("name")


class TestSweepResultRoundTrips:
    def test_payload_round_trip_is_lossless(self):
        result = make_sweep()
        assert SweepResult.from_payload(result.to_payload()) == result

    def test_json_round_trip_is_lossless(self):
        result = make_sweep()
        rebuilt = SweepResult.from_json(result.to_json())
        assert rebuilt == result
        # provenance is compare=False; check it survives explicitly
        assert rebuilt.provenance == result.provenance

    def test_legacy_nested_round_trip(self):
        result = make_sweep(metric=None)  # metric dicts at the leaves
        rebuilt = SweepResult.from_dict(
            result.to_dict(),
            name=result.name,
            axes=result.axes,
            metric=None,
            parameters=dict(result.parameters),
        )
        assert rebuilt == result

    def test_to_dict_with_primary_metric_flattens_leaves(self):
        nested = make_sweep().to_dict()
        assert nested["applu_in"][128] == 0.75


class TestDictStyleShimRemoved:
    def test_no_dict_style_surface_remains(self):
        # The PR-2 deprecation shims have graduated to removal: the only
        # nested-dict paths are the explicit to_dict()/from_dict() pair.
        result = make_sweep()
        with pytest.raises(TypeError):
            result["applu_in"]
        with pytest.raises(TypeError):
            len(result)
        with pytest.raises(TypeError):
            iter(result)
        for legacy in ("keys", "items", "values", "get"):
            assert not hasattr(result, legacy)


class TestProvenance:
    def test_round_trip(self):
        provenance = Provenance(
            runner="process-pool-4", total_cells=10, cache_hits=4,
            executed=6, wall_seconds=1.5, cell_seconds=5.0,
        )
        assert Provenance.from_dict(provenance.to_dict()) == provenance
        assert provenance.hit_rate == 0.4

    def test_inline_constructor(self):
        provenance = Provenance.inline(3, 0.25)
        assert provenance.runner == "inline"
        assert provenance.total_cells == 3
        assert provenance.executed == 3


class TestComparisonSuiteResult:
    def test_typed_access(self):
        suite = make_suite()
        assert suite.benchmarks == ("applu_in", "swim_in")
        assert suite.value("swim_in", "edp_improvement") == 0.6
        assert suite.cell("applu_in").edp_improvement == 0.3
        assert suite.mean("edp_improvement") == pytest.approx(0.45)

    def test_payload_and_json_round_trips(self):
        suite = make_suite()
        assert ComparisonSuiteResult.from_payload(suite.to_payload()) == suite
        assert ComparisonSuiteResult.from_json(suite.to_json()) == suite

    def test_legacy_nested_round_trip(self):
        suite = make_suite()
        rebuilt = ComparisonSuiteResult.from_dict(
            suite.to_dict(),
            name=suite.name,
            governor=suite.governor,
            policy=suite.policy,
            n_intervals=suite.n_intervals,
        )
        assert rebuilt == suite

    def test_dict_style_surface_removed(self):
        suite = make_suite()
        with pytest.raises(TypeError):
            suite["swim_in"]
        with pytest.raises(TypeError):
            iter(suite)
        for legacy in ("keys", "items", "values", "get"):
            assert not hasattr(suite, legacy)
        # The supported nested path remains the explicit conversion.
        assert suite.to_dict()["swim_in"]["edp_improvement"] == 0.6
