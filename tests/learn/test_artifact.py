"""Unit tests for versioned model artifacts and trainers."""

import json

import numpy as np
import pytest

from repro.core.phases import PhaseTable
from repro.errors import ConfigurationError
from repro.learn import (
    DecisionTreePhasePredictor,
    LearnedPowerModel,
    MarkovKPredictor,
    ModelArtifact,
    build_model,
    phase_dataset_from_series,
    power_dataset_from_benchmark,
    session_config_params,
    train_markov,
    train_phase_tree,
    train_power_model,
)
from repro.learn.artifact import _config_float

#: JSON number texts no finite float holds: ``json`` reads ``NaN`` and
#: the infinities as themselves and ``1e400`` as ``inf``, and the
#: 401-digit integer overflows ``float()``.
NON_FINITE = {
    "nan": "NaN",
    "inf": "Infinity",
    "-inf": "-Infinity",
    "1e400": "1e400",
    "huge_int": "1" + "0" * 400,
}

TABLE = PhaseTable()


def _phase_dataset(history_length=4):
    series = [
        TABLE.representative_value(1 + (i * 5) % 6) for i in range(150)
    ]
    return phase_dataset_from_series(series, history_length=history_length)


class TestTrainers:
    def test_phase_tree_training_is_byte_reproducible(self):
        dataset = _phase_dataset()
        _, first = train_phase_tree(dataset, source={"benchmark": "x"})
        _, second = train_phase_tree(dataset, source={"benchmark": "x"})
        assert first.to_json() == second.to_json()
        assert first.digest() == second.digest()

    def test_markov_training_is_byte_reproducible(self):
        dataset = _phase_dataset(history_length=3)
        _, first = train_markov(dataset, order=3, alpha=0.5)
        _, second = train_markov(dataset, order=3, alpha=0.5)
        assert first.to_json() == second.to_json()

    def test_power_training_is_byte_reproducible(self):
        dataset = power_dataset_from_benchmark("applu_in", 48, seed=3)
        _, first = train_power_model(dataset)
        _, second = train_power_model(dataset)
        assert first.to_json() == second.to_json()

    def test_provenance_records_dataset_digest(self):
        dataset = _phase_dataset()
        _, artifact = train_phase_tree(
            dataset, max_depth=5, source={"seed": 7}
        )
        assert artifact.training["dataset_digest"] == dataset.digest()
        assert artifact.training["examples"] == len(dataset)
        assert artifact.training["max_depth"] == 5
        assert artifact.training["source"] == {"seed": 7}

    def test_artifact_never_carries_wall_clock(self):
        _, artifact = train_phase_tree(_phase_dataset())
        text = artifact.to_json()
        for banned in ("time", "date", "host"):
            assert banned not in json.loads(text)["training"]

    def test_source_rejects_non_scalar_values(self):
        with pytest.raises(ConfigurationError):
            train_phase_tree(_phase_dataset(), source={"bad": [1, 2]})


class TestBuildModel:
    def test_phase_tree_round_trip(self):
        model, artifact = train_phase_tree(_phase_dataset())
        rebuilt = build_model(artifact)
        assert isinstance(rebuilt, DecisionTreePhasePredictor)
        assert rebuilt.export_state() == model.export_state()

    def test_markov_round_trip(self):
        model, artifact = train_markov(
            _phase_dataset(history_length=3), order=2, alpha=0.25
        )
        rebuilt = build_model(artifact)
        assert isinstance(rebuilt, MarkovKPredictor)
        assert rebuilt.order == 2
        assert rebuilt.alpha == 0.25
        assert rebuilt.export_state() == model.export_state()

    def test_power_round_trip(self):
        dataset = power_dataset_from_benchmark("applu_in", 48, seed=3)
        model, artifact = train_power_model(dataset, max_depth=6)
        rebuilt = build_model(artifact)
        assert isinstance(rebuilt, LearnedPowerModel)
        probe = np.asarray(dataset.features)
        assert rebuilt.predict(probe).tolist() == model.predict(probe).tolist()

    def test_file_round_trip(self, tmp_path):
        _, artifact = train_phase_tree(_phase_dataset())
        path = artifact.save(tmp_path / "model.json")
        loaded = ModelArtifact.load(path)
        assert loaded == artifact
        assert loaded.to_json() == artifact.to_json()


class TestValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ModelArtifact(
                version=1, kind="mystery", name="m", config={}, state={},
                training={},
            )

    def test_rejects_unknown_version(self):
        with pytest.raises(ConfigurationError):
            ModelArtifact(
                version=2, kind="phase_tree", name="m", config={},
                state={}, training={},
            )

    def test_from_payload_rejects_non_dict_sections(self):
        _, artifact = train_markov(_phase_dataset(history_length=2), order=2)
        payload = artifact.to_payload()
        payload["training"] = "nope"
        with pytest.raises(ConfigurationError):
            ModelArtifact.from_payload(payload)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ModelArtifact.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ModelArtifact.load(tmp_path / "absent.json")

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    def test_config_float_rejects_non_finite_numbers(self, value):
        config = json.loads('{"alpha": %s}' % NON_FINITE[value])
        with pytest.raises(ConfigurationError, match="finite number"):
            _config_float(config, "alpha")

    def test_config_float_accepts_finite_numbers(self):
        assert _config_float({"alpha": 1}, "alpha") == 1.0
        assert _config_float({"alpha": 0.25}, "alpha") == 0.25


class TestSessionConfigParams:
    def test_phase_tree_maps_to_learned_tree_governor(self):
        _, artifact = train_phase_tree(_phase_dataset(history_length=5))
        params = session_config_params(artifact)
        assert params == {"governor": "learned_tree", "history_length": 5}

    def test_markov_maps_to_markov_governor(self):
        _, artifact = train_markov(
            _phase_dataset(history_length=3), order=2, alpha=0.75
        )
        params = session_config_params(artifact)
        assert params == {
            "governor": "markov",
            "markov_order": 2,
            "markov_alpha": 0.75,
        }

    def test_power_artifact_cannot_serve(self):
        dataset = power_dataset_from_benchmark("applu_in", 32, seed=5)
        _, artifact = train_power_model(dataset)
        with pytest.raises(ConfigurationError, match="not a phase predictor"):
            session_config_params(artifact)
