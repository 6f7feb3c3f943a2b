"""Counter-driven learned power model (regression-tree backed).

The paper's power model is an analytic fit; the data-driven track
(arXiv 2009.01434, 2401.01826) instead learns power directly from
performance-counter vectors.  :class:`LearnedPowerModel` fits a
deterministic regression tree over ``(upc, Mem/Uop, frequency)``
features and predicts per-interval watts.

The model implements the same ``export_state``/``restore_state``
checkpoint contract as the predictor zoo (and is covered by the same
``checkpoint-completeness`` analyzer), so trained power models are
first-class versioned artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.predictors._checkpoint import check_config, check_kind
from repro.errors import ConfigurationError
from repro.learn.dataset import POWER_FEATURES, PowerDataset
from repro.learn.tree import DecisionTree

#: State payload type (mirrors ``PredictorState``).
PowerModelState = Dict[str, object]


@dataclass(frozen=True)
class PowerModelEvaluation:
    """Fit quality of a learned power model on one dataset.

    Attributes:
        samples: Number of evaluated intervals.
        mae_w: Mean absolute error in watts.
        rmse_w: Root-mean-square error in watts.
        max_abs_error_w: Worst single-interval absolute error in watts.
        mean_power_w: Mean measured power of the dataset (for scale).
    """

    samples: int
    mae_w: float
    rmse_w: float
    max_abs_error_w: float
    mean_power_w: float

    def to_payload(self) -> Dict[str, object]:
        """Flat JSON-able form."""
        return {
            "samples": self.samples,
            "mae_w": self.mae_w,
            "rmse_w": self.rmse_w,
            "max_abs_error_w": self.max_abs_error_w,
            "mean_power_w": self.mean_power_w,
        }


class LearnedPowerModel:
    """Regression tree from counter vectors to measured watts.

    Args:
        max_depth: Tree depth bound used by :meth:`fit`.
        min_samples_leaf: Leaf occupancy bound used by :meth:`fit`.
    """

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 4) -> None:
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        self._max_depth = max_depth
        self._min_samples_leaf = min_samples_leaf
        self._tree: Optional[DecisionTree] = None

    @property
    def name(self) -> str:
        """Display name."""
        return f"LearnedPower_{self._max_depth}"

    @property
    def is_trained(self) -> bool:
        """Whether a model has been installed."""
        return self._tree is not None

    @property
    def tree(self) -> Optional[DecisionTree]:
        """The installed regression tree (None while untrained)."""
        return self._tree

    def fit(self, dataset: PowerDataset) -> DecisionTree:
        """Train and install a regression tree from a power dataset."""
        tree = DecisionTree.fit(
            dataset.features,
            dataset.power_w,
            task="regression",
            max_depth=self._max_depth,
            min_samples_leaf=self._min_samples_leaf,
        )
        self._tree = tree
        return tree

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted watts for an ``(n, 3)`` counter matrix."""
        if self._tree is None:
            raise ConfigurationError(
                "power model is untrained; call fit() or restore_state()"
            )
        result: np.ndarray = self._tree.predict(features)
        return result

    def evaluate(self, dataset: PowerDataset) -> PowerModelEvaluation:
        """Score the model against a dataset's measured power."""
        predicted = self.predict(dataset.features)
        errors = np.abs(predicted - dataset.power_w)
        return PowerModelEvaluation(
            samples=len(dataset),
            mae_w=float(np.mean(errors)),
            rmse_w=float(np.sqrt(np.mean(errors * errors))),
            max_abs_error_w=float(np.max(errors)),
            mean_power_w=float(np.mean(dataset.power_w)),
        )

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PowerModelState:
        """Lossless JSON-able snapshot: hyperparameters + the tree."""
        return {
            "kind": "learned_power",
            "max_depth": self._max_depth,
            "min_samples_leaf": self._min_samples_leaf,
            "columns": list(POWER_FEATURES),
            "tree": self._tree.to_payload() if self._tree is not None else None,
        }

    def restore_state(self, state: PowerModelState) -> None:
        """Install a model from an :meth:`export_state` payload."""
        check_kind(state, "learned_power")
        check_config(
            state,
            (
                ("max_depth", self._max_depth),
                ("min_samples_leaf", self._min_samples_leaf),
                ("columns", list(POWER_FEATURES)),
            ),
        )
        raw_tree = state.get("tree")
        tree = None if raw_tree is None else DecisionTree.from_payload(raw_tree)
        if tree is not None:
            if tree.task != "regression":
                raise ConfigurationError(
                    f"power model tree must be a regressor, got {tree.task!r}"
                )
            if tree.n_features != len(POWER_FEATURES):
                raise ConfigurationError(
                    f"tree expects {tree.n_features} features, power model "
                    f"provides {len(POWER_FEATURES)}"
                )
        self._tree = tree
