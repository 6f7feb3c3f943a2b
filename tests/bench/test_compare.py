"""Tests for the regression gate (`repro bench compare` internals)."""

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    compare_results,
    load_results_dir,
)
from repro.bench.schema import BenchFormatError, BenchResult
from repro.errors import ConfigurationError


BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def payload(name, metrics=None, measured=None, parameters=None, details=None):
    return BenchResult.create(
        name,
        metrics=metrics,
        measured=measured,
        parameters=parameters,
        details=details,
    ).to_payload()


class TestRegressionRule:
    def test_identical_results_pass(self):
        base = {"b": payload("b", metrics={"accuracy": 0.9})}
        report = compare_results(base, base)
        assert report.exit_code() == 0
        assert not report.regressions

    def test_fifteen_percent_throughput_drop_fails_enforced(self):
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 85_000.0})}
        report = compare_results(cur, base, enforce=True)
        assert report.exit_code() == 1
        (delta,) = report.regressions
        assert delta.metric == "samples_per_s"
        assert delta.change == pytest.approx(-0.15)

    def test_five_percent_drop_is_within_tolerance(self):
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 95_000.0})}
        report = compare_results(cur, base, enforce=True)
        assert report.exit_code() == 0

    def test_measured_not_gated_without_enforce(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_ENFORCE", raising=False)
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 20_000.0})}
        report = compare_results(cur, base)
        assert report.exit_code() == 0
        assert not report.enforced

    def test_enforce_env_gates_measured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENFORCE", "1")
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 20_000.0})}
        report = compare_results(cur, base)
        assert report.enforced
        assert report.exit_code() == 1

    def test_deterministic_metric_gated_without_enforce(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_ENFORCE", raising=False)
        base = {"a": payload("a", metrics={"accuracy": 0.90})}
        cur = {"a": payload("a", metrics={"accuracy": 0.70})}
        report = compare_results(cur, base)
        assert report.exit_code() == 1

    def test_lower_is_better_honored(self):
        # us_per_sample: an increase is the regression.
        base = {"d": payload("d", measured={"us_per_sample": 4.0})}
        worse = {"d": payload("d", measured={"us_per_sample": 8.0})}
        better = {"d": payload("d", measured={"us_per_sample": 1.0})}
        assert compare_results(worse, base, enforce=True).exit_code() == 1
        assert compare_results(better, base, enforce=True).exit_code() == 0

    def test_improvement_never_regresses(self):
        base = {"a": payload("a", measured={"samples_per_s": 80.0})}
        cur = {"a": payload("a", measured={"samples_per_s": 99.0})}
        assert compare_results(cur, base, enforce=True).exit_code() == 0

    def test_undeclared_direction_is_informational(self):
        base = {"x": payload("x", measured={"n_widgets": 10})}
        cur = {"x": payload("x", measured={"n_widgets": 2})}
        report = compare_results(cur, base, enforce=True)
        assert report.exit_code() == 0
        (delta,) = report.comparisons[0].deltas
        assert delta.direction is None and not delta.gated

    def test_missing_baseline_artifact_fails(self):
        base = {}
        cur = {"new_bench": payload("new_bench", metrics={"accuracy": 0.9})}
        report = compare_results(cur, base)
        assert report.exit_code() == 1
        assert report.comparisons[0].status == "missing_baseline"

    def test_baseline_only_artifacts_are_skipped(self):
        base = {
            "a": payload("a", metrics={"accuracy": 0.9}),
            "b": payload("b", metrics={"accuracy": 0.9}),
        }
        cur = {"a": payload("a", metrics={"accuracy": 0.9})}
        report = compare_results(cur, base)
        assert report.exit_code() == 0
        assert report.baseline_only == ("b",)

    def test_zero_baseline_movement_is_infinite_change(self):
        base = {"a": payload("a", measured={"samples_per_s": 0.0})}
        cur = {"a": payload("a", measured={"samples_per_s": 0.5})}
        report = compare_results(cur, base, enforce=True)
        # Moved in the good direction: not a regression.
        assert report.exit_code() == 0
        (delta,) = report.comparisons[0].deltas
        assert delta.change == math.inf

    def test_tolerance_must_be_a_fraction(self):
        base = {"a": payload("a", metrics={"accuracy": 0.9})}
        with pytest.raises(ConfigurationError):
            compare_results(base, base, tolerance=10.0)

    def test_default_tolerance_is_ten_percent(self):
        assert DEFAULT_TOLERANCE == 0.10

    def test_report_payload_and_text_render(self):
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 80_000.0})}
        report = compare_results(cur, base, enforce=True)
        rendered = report.render_text()
        assert "REGRESSED" in rendered and "FAIL" in rendered
        as_json = report.to_payload()
        assert as_json["ok"] is False
        assert as_json["artifacts"][0]["status"] == "regressed"


class TestExactRule:
    """parameters, metrics and details must equal the baseline exactly."""

    @pytest.mark.parametrize("toward", [math.inf, -math.inf])
    def test_one_ulp_move_of_a_metric_drifts(self, toward):
        base = {"a": payload("a", metrics={"accuracy": 0.9})}
        moved = math.nextafter(0.9, toward)
        cur = {"a": payload("a", metrics={"accuracy": moved})}
        report = compare_results(cur, base)
        assert report.exit_code() == 1
        (comparison,) = report.comparisons
        assert comparison.status == "drifted"
        (drift,) = comparison.drifts
        assert (drift.key, drift.baseline, drift.current) == (
            "metrics.accuracy", "0.9", repr(moved)
        )

    def test_changed_parameter_drifts(self):
        base = {"a": payload("a", parameters={"n_benchmarks": 33})}
        cur = {"a": payload("a", parameters={"n_benchmarks": 16})}
        report = compare_results(cur, base)
        assert report.exit_code() == 1
        (drift,) = report.comparisons[0].drifts
        assert (drift.key, drift.baseline, drift.current) == (
            "parameters.n_benchmarks", "33", "16"
        )

    def test_changed_nested_detail_drifts(self):
        details = {"per_benchmark": {"applu_in": {"GPHT": 0.91}}}
        base = {"a": payload("a", details=details)}
        cur = {
            "a": payload(
                "a", details={"per_benchmark": {"applu_in": {"GPHT": 0.92}}}
            )
        }
        report = compare_results(cur, base)
        assert report.exit_code() == 1
        (drift,) = report.comparisons[0].drifts
        assert drift.key == "details.per_benchmark.applu_in.GPHT"
        assert "DRIFT details.per_benchmark.applu_in.GPHT 0.91 -> 0.92" in (
            report.render_text()
        )

    def test_equal_details_pass(self):
        details = {"grid": [{"workers": 1, "digest": "ab"}], "note": None}
        base = {"a": payload("a", details=details)}
        cur = {"a": payload("a", details=json.loads(json.dumps(details)))}
        report = compare_results(cur, base)
        assert report.exit_code() == 0
        assert report.comparisons[0].drifts == ()

    def test_added_and_removed_keys_drift(self):
        base = {"a": payload("a", metrics={"old": 1})}
        cur = {"a": payload("a", metrics={"new": 1})}
        drifts = compare_results(cur, base).comparisons[0].drifts
        assert [(d.key, d.baseline, d.current) for d in drifts] == [
            ("metrics.new", "absent", "1"),
            ("metrics.old", "1", "absent"),
        ]


class TestLoadResultsDir:
    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_results_dir(tmp_path / "nope")

    def test_rejects_legacy_artifact(self, tmp_path):
        current = BenchResult.create("modern", metrics={"accuracy": 0.9})
        (tmp_path / "modern.json").write_text(current.to_json())
        assert set(load_results_dir(tmp_path)) == {"modern"}
        # The pre-schema batch_feed_throughput layout: no schema, no host.
        legacy = {
            "benchmark": "applu_in",
            "scalar_samples_per_s": 1.0,
            "batch_samples_per_s": 9.0,
        }
        (tmp_path / "batch_feed_throughput.json").write_text(
            json.dumps(legacy)
        )
        with pytest.raises(
            BenchFormatError, match="batch_feed_throughput.json"
        ):
            load_results_dir(tmp_path)

    def test_malformed_artifact_names_the_file(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(BenchFormatError, match="bad.json"):
            load_results_dir(tmp_path)

    def test_name_must_match_the_file_stem(self, tmp_path):
        # Two files claiming one name used to collapse into whichever
        # sorted last, so a drifted copy could hide behind a clean one.
        shutil.copy(BASELINES / "fig03_quadrants.json", tmp_path)
        stale = json.loads((BASELINES / "fig03_quadrants.json").read_text())
        stale["metrics"]["q1_count"] -= 1
        (tmp_path / "aa_stale_copy.json").write_text(json.dumps(stale))
        with pytest.raises(BenchFormatError, match="aa_stale_copy.json"):
            load_results_dir(tmp_path)
