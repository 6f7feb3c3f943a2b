"""Versioned, byte-reproducible model artifacts.

An artifact is the durable form of a trained model: a canonical JSON
document carrying the format version, the model kind, its construction
config, its ``export_state`` payload and training provenance.  Two
training runs with identical inputs write **byte-identical** artifact
files — artifacts never embed wall-clock time, hostnames or any other
non-reproducible field; provenance is dataset digests and seeds only.

``build_model`` reconstructs the live object: construct from ``config``,
then ``restore_state(state)`` — the exact path serve checkpoints take,
so an artifact *is* a valid predictor checkpoint with metadata around
it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Dict, Union

from repro.errors import ConfigurationError
from repro.learn.power import LearnedPowerModel
from repro.learn.predictors import DecisionTreePhasePredictor, MarkovKPredictor
from repro.numerics import (
    as_dict,
    as_float,
    as_int,
    as_str,
    decode_object,
    read_text_file,
    shown,
)

#: Artifact format version.
ARTIFACT_VERSION = 1

#: Known artifact kinds.
ARTIFACT_KINDS = ("phase_tree", "markov_k", "power_tree")

#: Any model an artifact can carry.
LearnedModel = Union[
    DecisionTreePhasePredictor, MarkovKPredictor, LearnedPowerModel
]


@dataclass(frozen=True)
class ModelArtifact:
    """One trained model, serialisable to canonical JSON.

    Attributes:
        version: Artifact format version (:data:`ARTIFACT_VERSION`).
        kind: One of :data:`ARTIFACT_KINDS`.
        name: The model's display name.
        config: Constructor arguments for :func:`build_model`.
        state: The model's ``export_state`` payload.
        training: Reproducible provenance (dataset digest, seeds,
            hyperparameters, example counts) — never wall-clock data.
    """

    version: int
    kind: str
    name: str
    config: Dict[str, object]
    state: Dict[str, object]
    training: Dict[str, object]

    def __post_init__(self) -> None:
        if self.version != ARTIFACT_VERSION:
            raise ConfigurationError(
                f"unsupported artifact version {shown(self.version)} "
                f"(supported: {ARTIFACT_VERSION})"
            )
        if self.kind not in ARTIFACT_KINDS:
            raise ConfigurationError(
                f"artifact kind must be one of {ARTIFACT_KINDS}, got "
                f"{shown(self.kind)}"
            )

    def to_payload(self) -> Dict[str, object]:
        """Plain JSON-able mapping."""
        return {
            "version": self.version,
            "kind": self.kind,
            "name": self.name,
            "config": self.config,
            "state": self.state,
            "training": self.training,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, one trailing
        newline.  The byte-reproducibility contract hangs off this
        exact formatting — never loosen it.
        """
        return (
            json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"
        )

    def digest(self) -> str:
        """sha256 of the canonical JSON bytes."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the canonical JSON to ``path``."""
        target = pathlib.Path(path)
        target.write_text(self.to_json(), encoding="utf-8")
        return target

    @classmethod
    def from_payload(cls, payload: object) -> "ModelArtifact":
        """Rebuild an artifact from a parsed JSON mapping."""
        document = as_dict(payload, "artifact payload")
        return cls(
            version=as_int(document.get("version"), "artifact version"),
            kind=as_str(document.get("kind"), "artifact kind"),
            name=as_str(document.get("name"), "artifact name"),
            config=dict(as_dict(document.get("config"), "artifact 'config'")),
            state=dict(as_dict(document.get("state"), "artifact 'state'")),
            training=dict(
                as_dict(document.get("training"), "artifact 'training'")
            ),
        )

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "ModelArtifact":
        """Read and validate an artifact file."""
        text = read_text_file(path, "artifact")
        return cls.from_payload(decode_object(text, f"artifact {path}"))


def _config_int(config: Dict[str, object], key: str) -> int:
    return as_int(config.get(key), f"artifact config {key!r}")


def _config_float(config: Dict[str, object], key: str) -> float:
    return as_float(config.get(key), f"artifact config {key!r}")


def build_model(artifact: ModelArtifact) -> LearnedModel:
    """Reconstruct the live trained model from an artifact.

    Construction mirrors serve's checkpoint restore exactly: build from
    ``config``, then ``restore_state(state)``.
    """
    if artifact.kind == "phase_tree":
        predictor = DecisionTreePhasePredictor(
            history_length=_config_int(artifact.config, "history_length")
        )
        predictor.restore_state(artifact.state)
        return predictor
    if artifact.kind == "markov_k":
        markov = MarkovKPredictor(
            order=_config_int(artifact.config, "order"),
            alpha=_config_float(artifact.config, "alpha"),
        )
        markov.restore_state(artifact.state)
        return markov
    model = LearnedPowerModel(
        max_depth=_config_int(artifact.config, "max_depth"),
        min_samples_leaf=_config_int(artifact.config, "min_samples_leaf"),
    )
    model.restore_state(artifact.state)
    return model


def session_config_params(artifact: ModelArtifact) -> Dict[str, object]:
    """The ``repro.serve`` session parameters that host this model.

    Returned as a plain mapping (not a ``SessionConfig``) so the learn
    layer stays independent of serve; the CLI feeds it into
    ``SessionConfig`` when wiring ``serve replay --model``.
    """
    if artifact.kind == "phase_tree":
        return {
            "governor": "learned_tree",
            "history_length": _config_int(artifact.config, "history_length"),
        }
    if artifact.kind == "markov_k":
        return {
            "governor": "markov",
            "markov_order": _config_int(artifact.config, "order"),
            "markov_alpha": _config_float(artifact.config, "alpha"),
        }
    raise ConfigurationError(
        f"artifact kind {artifact.kind!r} is not a phase predictor; only "
        "phase_tree and markov_k artifacts can serve sessions"
    )
