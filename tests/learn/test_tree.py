"""Unit tests for the deterministic CART implementation."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learn.tree import DecisionTree


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


def _grid_features():
    """A small problem needing one split per feature (depth 2)."""
    features = np.array(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8,
        dtype=np.float64,
    )
    labels = np.array([1, 1, 2, 3] * 8, dtype=np.int64)
    return features, labels


class TestFit:
    def test_learns_grid_exactly(self):
        features, labels = _grid_features()
        tree = DecisionTree.fit(
            features, labels, task="classification", max_depth=3,
            min_samples_leaf=1,
        )
        assert tree.predict(features).tolist() == labels.tolist()
        assert tree.depth == 2

    def test_regression_fits_step_function(self):
        features = np.linspace(0.0, 1.0, 64).reshape(-1, 1)
        targets = np.where(features[:, 0] < 0.5, 2.0, 7.0)
        tree = DecisionTree.fit(
            features, targets, task="regression", max_depth=4,
            min_samples_leaf=1,
        )
        predicted = tree.predict(features)
        assert np.allclose(predicted, targets)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(3)
        features = rng.random((200, 5))
        labels = (features[:, 0] * 4).astype(np.int64) + 1
        first = DecisionTree.fit(
            features, labels, task="classification", max_depth=6,
            min_samples_leaf=2,
        )
        second = DecisionTree.fit(
            features, labels, task="classification", max_depth=6,
            min_samples_leaf=2,
        )
        assert first.to_payload() == second.to_payload()

    def test_max_depth_bounds_the_tree(self):
        rng = np.random.default_rng(5)
        features = rng.random((300, 3))
        targets = rng.random(300)
        tree = DecisionTree.fit(
            features, targets, task="regression", max_depth=3,
            min_samples_leaf=1,
        )
        assert tree.depth <= 3

    def test_min_samples_leaf_is_respected(self):
        rng = np.random.default_rng(7)
        features = rng.random((100, 2))
        labels = (features[:, 0] > 0.5).astype(np.int64) + 1
        tree = DecisionTree.fit(
            features, labels, task="classification", max_depth=10,
            min_samples_leaf=10,
        )
        # Walk every row to a leaf and count occupancy per leaf node.
        nodes = tree.to_payload()["nodes"]
        leaf_counts = {}
        for row in features:
            node = 0
            while nodes[node][0] >= 0:
                feat, threshold, left, right, _ = nodes[node]
                node = left if row[feat] <= threshold else right
            leaf_counts[node] = leaf_counts.get(node, 0) + 1
        assert leaf_counts
        assert min(leaf_counts.values()) >= 10

    def test_pure_node_becomes_leaf(self):
        features = np.array([[0.0], [1.0], [2.0]], dtype=np.float64)
        labels = np.array([3, 3, 3], dtype=np.int64)
        tree = DecisionTree.fit(
            features, labels, task="classification", max_depth=5,
            min_samples_leaf=1,
        )
        assert tree.node_count == 1
        assert tree.predict_one([1.5]) == 3

    def test_rejects_bad_task(self):
        features, labels = _grid_features()
        with pytest.raises(ConfigurationError):
            DecisionTree.fit(features, labels, task="ranking")

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigurationError):
            DecisionTree.fit(
                np.zeros((0, 2)), np.zeros(0), task="regression"
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            DecisionTree.fit(
                np.zeros((4, 2)), np.zeros(3), task="regression"
            )


class TestPredict:
    def test_vectorized_matches_scalar_walk(self):
        rng = np.random.default_rng(11)
        features = rng.random((150, 4))
        labels = ((features[:, 1] + features[:, 2]) * 3).astype(np.int64)
        tree = DecisionTree.fit(
            features, labels, task="classification", max_depth=8,
            min_samples_leaf=1,
        )
        probe = rng.random((64, 4))
        vectorized = tree.predict(probe)
        scalar = [tree.predict_one(list(row)) for row in probe]
        assert vectorized.tolist() == scalar

    def test_classification_predictions_are_ints(self):
        features, labels = _grid_features()
        tree = DecisionTree.fit(features, labels, task="classification")
        assert tree.predict(features).dtype == np.int64
        assert isinstance(tree.predict_one([0.0, 1.0]), int)


class TestPayload:
    def test_round_trip_is_lossless(self):
        features, labels = _grid_features()
        tree = DecisionTree.fit(features, labels, task="classification")
        rebuilt = DecisionTree.from_payload(tree.to_payload())
        assert rebuilt == tree
        assert rebuilt.to_payload() == tree.to_payload()

    def test_rejects_unknown_version(self):
        features, labels = _grid_features()
        payload = DecisionTree.fit(
            features, labels, task="classification"
        ).to_payload()
        payload["version"] = 99
        with pytest.raises(ConfigurationError):
            DecisionTree.from_payload(payload)

    def test_rejects_dangling_child_index(self):
        payload = {
            "version": 1,
            "task": "classification",
            "n_features": 1,
            "nodes": [[0, 0.5, 1, 5, 0]],  # right child out of range
        }
        with pytest.raises(ConfigurationError):
            DecisionTree.from_payload(payload)

    def test_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            DecisionTree.from_payload([1, 2, 3])

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_rejects_a_non_finite_threshold(self, task, value):
        payload = json.loads(
            '{"version": 1, "task": "%s", "n_features": 1, "nodes": '
            '[[0, %s, 1, 2, 1], [-1, 0.0, -1, -1, 1], [-1, 0.0, -1, -1, 2]]}'
            % (task, NON_FINITE[value])
        )
        with pytest.raises(ConfigurationError, match="finite number"):
            DecisionTree.from_payload(payload)

    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    def test_rejects_a_non_finite_regression_value(self, value):
        payload = json.loads(
            '{"version": 1, "task": "regression", "n_features": 1, "nodes": '
            '[[0, 0.5, 1, 2, 0.5], [-1, 0.0, -1, -1, %s], '
            '[-1, 0.0, -1, -1, 2.0]]}' % NON_FINITE[value]
        )
        with pytest.raises(ConfigurationError, match="finite number"):
            DecisionTree.from_payload(payload)
