"""Tests for the benchmark registry and direction resolution."""

import json
import pathlib

import pytest

from repro.bench.registry import (
    BENCHES,
    HIGHER,
    LOWER,
    all_tags,
    artifact_index,
    metric_direction,
    select_benches,
)
from repro.errors import ConfigurationError

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
RESULTS = BENCH_DIR / "results"


class TestRegistryIntegrity:
    def test_every_registered_module_exists(self):
        for spec in BENCHES:
            assert (BENCH_DIR / spec.module).is_file(), spec.module

    def test_every_benchmark_module_is_registered(self):
        modules = {
            p.name
            for p in BENCH_DIR.glob("test_*.py")
        }
        registered = {spec.module for spec in BENCHES}
        assert modules == registered

    def test_every_timed_artifact_comes_from_a_throughput_bench(self):
        # ``repro bench run`` runs throughput benches alone; a timing
        # taken beside other benches measures the harness.
        owners = artifact_index()
        for path in RESULTS.glob("*.json"):
            payload = json.loads(path.read_text())
            if payload["measured"]:
                owner = owners[payload["name"]]
                assert "throughput" in owner.tags, payload["name"]

    def test_artifact_names_are_unique(self):
        artifacts = [a for spec in BENCHES for a in spec.artifacts]
        assert len(artifacts) == len(set(artifacts))

    def test_smoke_subset_is_small_and_fast(self):
        smoke = select_benches(tags=["smoke"])
        assert 2 <= len(smoke) <= 6
        names = {spec.name for spec in smoke}
        assert "batch_throughput" in names

    def test_committed_baselines_cover_every_artifact(self):
        # Equal, not just covering: a committed artifact no bench writes
        # would be compared against nothing.
        committed = {p.stem for p in RESULTS.glob("*.json")}
        assert set(artifact_index()) == committed


class TestSelection:
    def test_empty_selection_is_everything(self):
        assert select_benches() == list(BENCHES)

    def test_by_name(self):
        (spec,) = select_benches(names=["fig03_quadrants"])
        assert spec.module == "test_fig03_quadrants.py"

    def test_by_tag_preserves_suite_order(self):
        figures = select_benches(tags=["figures"])
        order = [spec.name for spec in figures]
        assert order == [
            s.name for s in BENCHES if "figures" in s.tags
        ]

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            select_benches(names=["nope"])

    def test_unknown_tag_raises(self):
        with pytest.raises(ConfigurationError, match="unknown tag"):
            select_benches(tags=["nope"])

    def test_all_tags_sorted(self):
        tags = all_tags()
        assert tags == sorted(tags)
        assert "smoke" in tags and "figures" in tags


class TestDirections:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            ("speedup", HIGHER),
            ("speedup_vs_wire_baseline", HIGHER),
            ("batch_samples_per_s", HIGHER),
            ("w2_b16_samples_per_s", HIGHER),
            ("requests_per_s", HIGHER),
            ("us_per_sample", LOWER),
            ("mean_us_per_decision", LOWER),
            ("n_benchmarks", None),
            ("boundary_violations", None),
        ],
    )
    def test_direction_resolution(self, metric, expected):
        assert metric_direction(metric) == expected

    def test_every_committed_measured_value_has_a_direction(self):
        # Otherwise --enforce would report it and never fail on it.
        undirected = [
            f"{path.stem}.{key}"
            for path in sorted(RESULTS.glob("*.json"))
            for key in json.loads(path.read_text())["measured"]
            if metric_direction(key) is None
        ]
        assert undirected == []
