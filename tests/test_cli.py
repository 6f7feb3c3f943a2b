"""Tests for the command-line interface."""

import csv
import io
import json
import pathlib

import pytest

from repro.cli import build_parser, main

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "applu_in" in out
        assert "mcf_inp" in out
        assert out.count("\n") >= 33

    def test_descriptions_present(self, capsys):
        _, out, _ = run_cli(capsys, "list")
        assert "running example" in out


class TestRun:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "run", "swim_in", "--intervals", "30")
        assert code == 0
        assert "EDP improvement" in out
        assert "GPHT_8_128" in out

    def test_reactive_governor(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "swim_in", "--governor", "reactive",
            "--intervals", "20",
        )
        assert code == 0
        assert "Reactive" in out

    def test_bounded_policy(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "swim_in", "--policy", "bounded",
            "--intervals", "20",
        )
        assert code == 0
        assert "bounded_5%" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "swim_in", "--intervals", "10", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["workload"] == "swim_in"
        assert len(payload["intervals"]) == 10

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "swim_in", "--intervals", "10", "--csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run", "nosuch")
        assert code == 2
        assert "unknown benchmark" in err


class TestAccuracy:
    def test_selected_benchmarks(self, capsys):
        code, out, _ = run_cli(
            capsys, "accuracy", "applu_in", "--intervals", "200"
        )
        assert code == 0
        assert "GPHT_8_1024" in out
        assert "applu_in" in out


class TestCharacterize:
    def test_characterize_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "characterize", "applu_in", "--intervals", "200"
        )
        assert code == 0
        assert "quadrant" in out
        assert "Q3" in out
        assert "predictability gain" in out


class TestQuadrants:
    def test_places_registry(self, capsys):
        code, out, _ = run_cli(capsys, "quadrants", "--intervals", "100")
        assert code == 0
        for quadrant in ("Q1", "Q2", "Q3", "Q4"):
            assert quadrant in out


class TestReport:
    """``repro report`` certifies the claims from bench artifacts."""

    def copy_results(self, directory, skip=(), edit=None):
        directory.mkdir()
        for path in RESULTS.glob("*.json"):
            if path.stem in skip:
                continue
            payload = json.loads(path.read_text())
            if edit is not None:
                edit(payload)
            (directory / path.name).write_text(json.dumps(payload))
        return directory

    def test_report_runs_and_exits_zero(self, capsys, monkeypatch):
        # With no RESULTS_DIR, it reads ./benchmarks/results.
        monkeypatch.chdir(RESULTS.parents[1])
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert out.startswith("Reproduction certificate: 9/9")
        assert "NOT REPRODUCED" not in out

    def test_json_lists_nine_holding_claims(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", str(RESULTS), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == payload["reproduced"] == 9
        assert all(claim["holds"] for claim in payload["claims"])

    def test_only_a_results_dir_and_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == (
            "usage: repro report [-h] [--format {text,json}] [RESULTS_DIR]"
        )

    def test_missing_artifact_exits_2_naming_it(self, capsys, tmp_path):
        results = self.copy_results(
            tmp_path / "results", skip=("fig05_pht_sweep",)
        )
        code, out, err = run_cli(capsys, "report", str(results))
        assert code == 2
        assert out == ""
        assert "'fig05_pht_sweep'" in err

    def test_missing_details_exits_2_naming_the_artifact(
        self, capsys, tmp_path
    ):
        def drop_fig12_details(payload):
            if payload["name"] == "fig12_gpht_vs_reactive":
                payload["details"] = None

        results = self.copy_results(
            tmp_path / "results", edit=drop_fig12_details
        )
        code, _, err = run_cli(capsys, "report", str(results))
        assert code == 2
        assert "'fig12_gpht_vs_reactive'" in err
        assert "details" in err

    def test_missing_results_dir_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "nope"))
        assert code == 2
        assert "results directory" in err


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_rejects_unknown_policy(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "swim_in", "--policy", "warp"])


class TestExportTrace:
    def test_round_trips(self, capsys):
        from repro.workloads.serialization import trace_from_json

        code, out, _ = run_cli(
            capsys, "export-trace", "swim_in", "--intervals", "4"
        )
        assert code == 0
        trace = trace_from_json(out)
        assert trace.name == "swim_in"
        assert len(trace) == 4


class TestJobsValidation:
    @pytest.mark.parametrize("value", ["0", "-1", "-8"])
    def test_non_positive_jobs_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "pht", "--jobs", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err
        assert value in err

    def test_non_numeric_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "swim_in", "--jobs", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_jobs_one_accepted(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "swim_in", "--intervals", "10", "--no-cache",
            "--jobs", "1",
        )
        assert code == 0


class TestTraceFlags:
    def test_run_trace_writes_jsonl(self, capsys, tmp_path, monkeypatch):
        from repro.obs.events import PredictionMade
        from repro.obs.export import events_from_jsonl

        out = tmp_path / "trace.jsonl"
        code, _, err = run_cli(
            capsys, "run", "applu_in", "--intervals", "25", "--no-cache",
            "--trace-out", str(out),
        )
        assert code == 0
        assert "trace:" in err
        events = events_from_jsonl(out.read_text(encoding="utf-8"))
        assert len(events) > 0
        assert any(isinstance(e, PredictionMade) for e in events)

    def test_run_trace_default_output_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "run", "applu_in", "--intervals", "10", "--no-cache",
            "--trace",
        )
        assert code == 0
        assert (tmp_path / "repro-trace.jsonl").exists()

    def test_traced_run_output_identical_to_untraced(self, capsys, tmp_path):
        code, untraced, _ = run_cli(
            capsys, "run", "swim_in", "--intervals", "20", "--no-cache"
        )
        assert code == 0
        code, traced, _ = run_cli(
            capsys, "run", "swim_in", "--intervals", "20", "--no-cache",
            "--trace-out", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        assert traced == untraced

    def test_sweep_trace_records_cell_events(self, capsys, tmp_path):
        from repro.obs.events import CellFinished, CellStarted
        from repro.obs.export import events_from_jsonl

        out = tmp_path / "sweep.jsonl"
        code, _, _ = run_cli(
            capsys, "sweep", "frequency", "swim_in", "--intervals", "10",
            "--no-cache", "--trace-out", str(out),
        )
        assert code == 0
        events = events_from_jsonl(out.read_text(encoding="utf-8"))
        started = [e for e in events if isinstance(e, CellStarted)]
        finished = [e for e in events if isinstance(e, CellFinished)]
        assert len(started) == len(finished) > 0


class TestTraceCommands:
    def record(self, capsys, tmp_path, *extra):
        out = tmp_path / "rec.jsonl"
        code, _, err = run_cli(
            capsys, "trace", "record", "applu_in", "--intervals", "30",
            "--out", str(out), *extra,
        )
        assert code == 0
        assert "trace:" in err
        return out

    def test_record_reconciles_with_counters(self, capsys, tmp_path):
        from repro.obs.export import events_from_jsonl
        from repro.obs.metrics import trace_metrics

        out = self.record(capsys, tmp_path)
        events = events_from_jsonl(out.read_text(encoding="utf-8"))
        registry = trace_metrics(events)
        assert registry.counter("events.interval_sampled").value == 30
        assert registry.counter("events.pmi_handled").value == 30
        lookups = (
            registry.counter("predictor.pht_hits").value
            + registry.counter("predictor.pht_misses").value
        )
        assert lookups == registry.counter("events.prediction_made").value

    def test_record_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "record", "swim_in", "--intervals", "10"
        )
        assert code == 0
        assert out.splitlines()
        assert json.loads(out.splitlines()[0])["event"] == "interval_sampled"

    def test_record_rejects_bad_intervals(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "record", "swim_in", "--intervals", "0"])
        assert excinfo.value.code == 2

    def test_summarize(self, capsys, tmp_path):
        out = self.record(capsys, tmp_path)
        code, text, _ = run_cli(capsys, "trace", "summarize", str(out))
        assert code == 0
        assert "Trace summary" in text
        assert "predictor.pht_hit_rate" in text

    def test_summarize_json(self, capsys, tmp_path):
        out = self.record(capsys, tmp_path)
        code, text, _ = run_cli(
            capsys, "trace", "summarize", str(out), "--format", "json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["event_counts"]["interval_sampled"] > 0
        assert "predictor.pht_hit_rate" in payload["metrics"]
        assert payload["events"] == sum(payload["event_counts"].values())

    def test_export_csv_is_text_format(self, capsys, tmp_path):
        out = self.record(capsys, tmp_path)
        code, text, _ = run_cli(capsys, "trace", "export", str(out))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        assert rows[0]["event"] == "interval_sampled"
        # --format text is the same CSV rendering, spelled like every
        # other result-printing subcommand.
        code, explicit, _ = run_cli(
            capsys, "trace", "export", str(out), "--format", "text"
        )
        assert code == 0
        assert explicit == text

    def test_export_json_round_trip(self, capsys, tmp_path):
        from repro.obs.export import events_from_jsonl

        out = self.record(capsys, tmp_path)
        code, text, _ = run_cli(
            capsys, "trace", "export", str(out), "--format", "json"
        )
        assert code == 0
        original = events_from_jsonl(out.read_text(encoding="utf-8"))
        assert events_from_jsonl(text) == original

    def test_export_rejects_legacy_format_spellings(self, capsys, tmp_path):
        out = self.record(capsys, tmp_path)
        for legacy in ("csv", "jsonl"):
            with pytest.raises(SystemExit) as excinfo:
                main(["trace", "export", str(out), "--format", legacy])
            assert excinfo.value.code == 2

    def test_missing_file_is_a_cli_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "trace", "summarize", str(tmp_path / "absent.jsonl")
        )
        assert code == 2
        assert "cannot read trace file" in err

    def test_corrupt_file_is_a_cli_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "interval_sampled"\n', encoding="utf-8")
        code, _, err = run_cli(capsys, "trace", "summarize", str(bad))
        assert code == 2
        assert "line 1" in err


class TestServeLoadgenCLI:
    def test_chaos_kill_requires_self_host(self, capsys):
        code, _, err = run_cli(
            capsys, "serve", "loadgen", "--chaos-kill", "10:0"
        )
        assert code == 2
        assert "--self-host" in err

    def test_self_host_chaos_run_recovers(self, capsys):
        # connections=1 makes the kill schedule fully deterministic, so
        # the digest-verified run must survive the mid-stream kill with
        # zero errors and at least one recorded recovery.
        code, out, err = run_cli(
            capsys,
            "serve",
            "loadgen",
            "--self-host",
            "2",
            "--chaos-kill",
            "10:0",
            "--sessions",
            "2",
            "--samples",
            "48",
            "--batch",
            "8",
            "--connections",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        assert "self-hosting 2 workers" in err
        payload = json.loads(out)
        assert payload["errors"] == 0
        assert payload["recoveries"] >= 1
        assert payload["replayed_samples"] >= 0
        assert payload["outcome_digest"]
