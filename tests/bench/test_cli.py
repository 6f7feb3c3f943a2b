"""End-to-end tests for the ``repro bench`` CLI group."""

import json
import pathlib
import shutil

import pytest

from repro.bench.schema import BenchResult
from repro.cli import build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINES = REPO_ROOT / "benchmarks" / "results"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBenchList:
    def test_lists_every_bench(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "list")
        assert code == 0
        assert "batch_throughput" in out
        assert "fig11_dvfs_results" in out
        assert "smoke" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "list", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = [entry["name"] for entry in payload["benches"]]
        assert "serve_scaleout" in names

    def test_unknown_bench_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "run", "nope", "--out", "x")
        assert code == 2
        assert "unknown bench" in err


class TestBenchReport:
    def test_renders_committed_baselines(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "report", str(BASELINES))
        assert code == 0
        assert "batch_feed_throughput" in out
        assert "learned_accuracy" in out

    def test_json_report_is_schema_shaped(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "report", str(BASELINES), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload
        for artifact in payload.values():
            assert artifact["schema"] == "repro.bench.result"

    def test_missing_dir_is_an_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "report", str(tmp_path / "nope")
        )
        assert code == 2
        assert "results directory" in err


class TestBenchCompare:
    def write(self, directory, name, **kwargs):
        directory.mkdir(parents=True, exist_ok=True)
        result = BenchResult.create(name, **kwargs)
        (directory / f"{name}.json").write_text(result.to_json())

    def test_committed_baselines_compare_clean(self, capsys, tmp_path):
        # Simulate a partial rerun: one artifact copied verbatim.
        current = tmp_path / "current"
        current.mkdir()
        source = BASELINES / "fig03_quadrants.json"
        (current / source.name).write_text(source.read_text())
        code, out, _ = run_cli(
            capsys, "bench", "compare", str(current),
            "--baseline", str(BASELINES),
        )
        assert code == 0
        assert "PASS" in out

    def test_synthetic_regression_exits_nonzero(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        self.write(base, "t", metrics={"accuracy": 0.90})
        self.write(cur, "t", metrics={"accuracy": 0.70})
        code, out, _ = run_cli(
            capsys, "bench", "compare", str(cur), "--baseline", str(base)
        )
        assert code == 1
        assert "DRIFT metrics.accuracy 0.9 -> 0.7" in out

    def test_tolerance_flag_is_percent(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        self.write(base, "t", measured={"samples_per_s": 100.0})
        self.write(cur, "t", measured={"samples_per_s": 75.0})
        code, _, _ = run_cli(
            capsys, "bench", "compare", str(cur),
            "--baseline", str(base), "--enforce", "--tolerance", "30",
        )
        assert code == 0

    def test_enforce_flag_gates_measured(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        self.write(base, "t", measured={"samples_per_s": 100.0})
        self.write(cur, "t", measured={"samples_per_s": 50.0})
        code, _, _ = run_cli(
            capsys, "bench", "compare", str(cur), "--baseline", str(base)
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "bench", "compare", str(cur),
            "--baseline", str(base), "--enforce",
        )
        assert code == 1

    def test_missing_baseline_artifact_fails_loudly(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        self.write(cur, "brand_new", metrics={"accuracy": 0.9})
        code, out, _ = run_cli(
            capsys, "bench", "compare", str(cur), "--baseline", str(base)
        )
        assert code == 1
        assert "missing_baseline" in out

    def test_json_format(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        self.write(base, "t", metrics={"accuracy": 0.9})
        self.write(cur, "t", metrics={"accuracy": 0.9})
        code, out, _ = run_cli(
            capsys, "bench", "compare", str(cur),
            "--baseline", str(base), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True


@pytest.mark.slow
class TestBenchRunNeverCaches:
    def test_rerun_into_a_deleted_out_dir_writes_the_artifact(
        self, capsys, monkeypatch, tmp_path
    ):
        """A cached bench cell would skip the module run that writes its
        artifact, so the second run would leave no ``--out`` at all."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = tmp_path / "out"
        for _ in range(2):
            code, _, _ = run_cli(
                capsys,
                "bench", "run", "table1_phase_definitions",
                "--out", str(out_dir),
                "--bench-dir", str(REPO_ROOT / "benchmarks"),
            )
            assert code == 0
            assert (out_dir / "table1_phase_definitions.json").is_file()
            shutil.rmtree(out_dir)

    def test_cache_flags_are_gone(self, capsys):
        for flag in ("--no-cache", "--cache-dir=x"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", "run", flag])
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.slow
class TestBenchRunDeterminism:
    def test_smoke_runs_twice_byte_identical(self, capsys, tmp_path):
        """Two smoke runs must agree byte-for-byte on the comparable
        payload of every artifact — the property the regression gate
        stands on."""
        outs = []
        for label in ("first", "second"):
            out_dir = tmp_path / label
            code, _, _ = run_cli(
                capsys,
                "bench", "run", "--smoke",
                "--out", str(out_dir),
                "--bench-dir", str(REPO_ROOT / "benchmarks"),
                "--jobs", "2",
            )
            assert code == 0
            outs.append(out_dir)
        first, second = outs
        names = sorted(p.name for p in first.glob("*.json"))
        assert names == sorted(p.name for p in second.glob("*.json"))
        assert names  # the smoke subset emitted artifacts
        for name in names:
            a = BenchResult.from_payload(
                json.loads((first / name).read_text())
            )
            b = BenchResult.from_payload(
                json.loads((second / name).read_text())
            )
            assert a.comparable_json() == b.comparable_json(), name

    def test_smoke_artifacts_match_committed_baselines(
        self, capsys, tmp_path
    ):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "bench", "run", "--smoke",
            "--out", str(out_dir),
            "--bench-dir", str(REPO_ROOT / "benchmarks"),
            "--jobs", "2",
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "bench", "compare", str(out_dir),
            "--baseline", str(BASELINES),
        )
        assert code == 0, out
