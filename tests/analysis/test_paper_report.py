"""Tests for the reproduction certificate, read from bench artifacts."""

import copy
import json
import pathlib

import pytest

from repro.analysis.paper_report import (
    CLAIMS,
    Claim,
    certify,
    render_report,
)
from repro.bench import load_results_dir
from repro.cli import main
from repro.errors import ConfigurationError

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: (claim, input, a value past the claim's bound): each row moves one
#: declared input of the committed artifacts (on every benchmark, for
#: a ``*`` path) so that its claim fails.
PAST_BOUND = (
    ("above-90% accuracy for many benchmarks", "gpht", 0.85),
    ("6X misprediction reduction (applu)", "gpht", 0.9),
    ("128-entry PHT is sufficient", "small", 0.85),
    ("EDP improvement up to ~34% on variable apps", "equake", 0.55),
    ("Q2 benchmarks above 60% EDP improvement", "mcf", 0.45),
    ("proactive beats reactive management", "reactive", 0.28),
    ("no observable overheads", "share", 0.002),
    ("bounded degradation below 5%", "worst", 0.051),
    ("bounded degradation below 5%", "bounded", 0.4),
    ("bounded degradation below 5%", "aggressive", 0.1),
    ("2.4X misprediction reduction (Q3+Q4 average)", "factor", 1.9),
)


@pytest.fixture(scope="module")
def artifacts():
    return load_results_dir(RESULTS)


@pytest.fixture(scope="module")
def claims(artifacts):
    return certify(artifacts)


def move(node, keys, value):
    """Set ``value`` at ``keys`` inside ``node``, under every key for a
    ``*``."""
    head, *rest = keys
    for key in list(node) if head == "*" else [head]:
        if rest:
            move(node[key], rest, value)
        else:
            node[key] = value


def write_results(directory, artifacts):
    """Write the artifacts the claims read into ``directory``."""
    directory.mkdir()
    for name in {path[0] for spec in CLAIMS for path in spec.reads.values()}:
        (directory / f"{name}.json").write_text(json.dumps(artifacts[name]))
    return directory


class TestClaims:
    def test_covers_the_headline_set(self, claims):
        names = {claim.name for claim in claims}
        assert "6X misprediction reduction (applu)" in names
        assert "bounded degradation below 5%" in names
        assert "2.4X misprediction reduction (Q3+Q4 average)" in names
        assert len(claims) == len(names) == 9

    def test_all_claims_reproduce(self, claims):
        failing = [claim.name for claim in claims if not claim.holds]
        assert failing == []

    def test_measured_values_are_populated(self, claims):
        for claim in claims:
            assert claim.measured
            assert claim.paper

    def test_verdict_rendering(self):
        good = Claim(name="x", paper="p", measured="m", holds=True)
        bad = Claim(name="x", paper="p", measured="m", holds=False)
        assert good.verdict == "REPRODUCED"
        assert bad.verdict == "NOT REPRODUCED"


class TestWrongTable:
    def test_every_claim_has_a_failing_case(self):
        assert {row[0] for row in PAST_BOUND} == {s.name for s in CLAIMS}

    @pytest.mark.parametrize(
        "claim,field,value", PAST_BOUND,
        ids=[f"{claim}:{field}" for claim, field, _ in PAST_BOUND],
    )
    def test_input_past_its_bound_flips_that_claim_alone(
        self, artifacts, capsys, tmp_path, claim, field, value
    ):
        spec = next(spec for spec in CLAIMS if spec.name == claim)
        moved = copy.deepcopy(artifacts)
        move(moved, spec.reads[field], value)
        results = write_results(tmp_path / "results", moved)

        code = main(["report", str(results), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        failing = [c["name"] for c in payload["claims"] if not c["holds"]]
        assert failing == [claim]

    def test_missing_key_names_artifact_and_key(self, artifacts):
        moved = copy.deepcopy(artifacts)
        del moved["fig11_dvfs_results"]["metrics"]["equake_edp_improvement"]
        with pytest.raises(ConfigurationError) as excinfo:
            certify(moved)
        message = str(excinfo.value)
        assert "fig11_dvfs_results" in message
        assert "metrics.equake_edp_improvement" in message

    @pytest.mark.parametrize(
        "edit",
        [
            lambda gpht: gpht["swim_in"].pop("handler_overhead_fraction"),
            lambda gpht: gpht.clear(),
        ],
        ids=["row-lacks-key", "no-rows"],
    )
    def test_missing_key_under_a_wildcard_is_named(self, artifacts, edit):
        moved = copy.deepcopy(artifacts)
        edit(moved["fig12_gpht_vs_reactive"]["details"]["gpht"])
        with pytest.raises(ConfigurationError) as excinfo:
            certify(moved)
        message = str(excinfo.value)
        assert "fig12_gpht_vs_reactive" in message
        assert "details.gpht.*" in message


class TestRendering:
    def test_report_layout(self, claims):
        text = render_report(claims)
        assert text.startswith("Reproduction certificate: 9/9")
        assert "REPRODUCED" in text
        assert "claim" in text.splitlines()[2]

    def test_report_counts_failures(self):
        claims = [
            Claim(name="a", paper="p", measured="m", holds=True),
            Claim(name="b", paper="p", measured="m", holds=False),
        ]
        text = render_report(claims)
        assert text.startswith("Reproduction certificate: 1/2")
        assert "NOT REPRODUCED" in text
