"""From-scratch deterministic CART trees (classification + regression).

The data-driven track (ROADMAP item 3, after arXiv 2009.01434 and
2401.01826) needs trees that are **bit-reproducible**: training the same
dataset twice — in any process, at any parallelism — must produce the
same tree, and serialising it must round-trip losslessly so trained
predictors can ride the serve checkpoint/restore machinery.

Determinism is engineered, not assumed:

* split search scans features in ascending index order and candidate
  thresholds in ascending value order; ties on impurity gain keep the
  *first* candidate, so the chosen split is a pure function of the
  dataset bytes;
* all impurity arithmetic runs in fixed evaluation order over float64
  prefix sums — the same numbers every run;
* nodes are emitted in preorder (left subtree first), so equal trees
  serialise to equal payloads;
* leaf values break frequency ties toward the smallest class label
  (classification) and use the plain float64 mean (regression).

No randomness is used anywhere: sub-sampling, feature bagging and other
stochastic variance tricks are deliberately out of scope — a phase
predictor that cannot be replayed bit-for-bit cannot be verified by
``repro serve replay``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.numerics import as_dict, as_float, as_int, as_list, as_str, shown

#: Impurity-gain floor below which a split is considered pure noise.
MIN_GAIN = 1e-12

#: Supported learning tasks.
TREE_TASKS = ("classification", "regression")

#: A leaf's sentinel feature index.
LEAF = -1

#: One serialised tree: JSON-able mapping.
TreePayload = Dict[str, object]


class DecisionTree:
    """An immutable, flat-array CART tree.

    Nodes live in five parallel lists indexed by node id (0 is the
    root, ids are preorder): ``feature`` (split feature, ``LEAF`` for
    leaves), ``threshold`` (go left when ``x[feature] <= threshold``),
    ``left``/``right`` (child ids, ``-1`` for leaves) and ``value``
    (leaf prediction: an int class label for classification, a float
    for regression; internal nodes carry their would-be leaf value so
    truncated traversals remain meaningful).
    """

    def __init__(
        self,
        task: str,
        n_features: int,
        feature: Sequence[int],
        threshold: Sequence[float],
        left: Sequence[int],
        right: Sequence[int],
        value: Sequence[Union[int, float]],
    ) -> None:
        if task not in TREE_TASKS:
            raise ConfigurationError(
                f"task must be one of {TREE_TASKS}, got {shown(task)}"
            )
        if n_features < 1:
            raise ConfigurationError(
                f"n_features must be >= 1, got {n_features}"
            )
        n = len(feature)
        if n == 0:
            raise ConfigurationError("a tree needs at least one node")
        for name, seq in (
            ("threshold", threshold),
            ("left", left),
            ("right", right),
            ("value", value),
        ):
            if len(seq) != n:
                raise ConfigurationError(
                    f"node array {name!r} has {len(seq)} entries, "
                    f"expected {n}"
                )
        self._task = task
        self._n_features = n_features
        self._feature = tuple(feature)
        self._threshold = tuple(threshold)
        self._left = tuple(left)
        self._right = tuple(right)
        self._value = tuple(value)
        self._validate_structure()

    def _validate_structure(self) -> None:
        n = len(self._feature)
        for i in range(n):
            f = self._feature[i]
            if f == LEAF:
                if self._left[i] != -1 or self._right[i] != -1:
                    raise ConfigurationError(
                        f"leaf node {i} must have children -1"
                    )
                continue
            if not 0 <= f < self._n_features:
                raise ConfigurationError(
                    f"node {i} splits on feature {f}, expected "
                    f"[0, {self._n_features})"
                )
            for child in (self._left[i], self._right[i]):
                # Preorder emission guarantees children follow their
                # parent; enforcing it also rules out cycles.
                if not i < child < n:
                    raise ConfigurationError(
                        f"node {i} has out-of-order child {child}"
                    )
            if self._left[i] == self._right[i]:
                raise ConfigurationError(
                    f"node {i} has identical children"
                )
        if self._task == "classification":
            for i, v in enumerate(self._value):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConfigurationError(
                        f"classification node {i} value must be an int, "
                        f"got {shown(v)}"
                    )

    # -- properties ---------------------------------------------------------

    @property
    def task(self) -> str:
        """``"classification"`` or ``"regression"``."""
        return self._task

    @property
    def n_features(self) -> int:
        """Number of input features the tree was trained on."""
        return self._n_features

    @property
    def node_count(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Maximum number of internal tests on any root-to-leaf path.

        This is the tree's worst-case lookup cost per prediction — the
        ``overhead_units`` the accuracy-vs-overhead benchmark reports.
        """
        depths = [0] * len(self._feature)
        deepest = 0
        for i, f in enumerate(self._feature):
            d = depths[i]
            if f == LEAF:
                if d > deepest:
                    deepest = d
                continue
            depths[self._left[i]] = d + 1
            depths[self._right[i]] = d + 1
            if d + 1 > deepest:
                deepest = d + 1
        return deepest

    # -- prediction ---------------------------------------------------------

    def predict_one(self, row: Sequence[float]) -> Union[int, float]:
        """Predict a single feature row (pure, no state)."""
        if len(row) != self._n_features:
            raise ConfigurationError(
                f"row has {len(row)} features, tree expects "
                f"{self._n_features}"
            )
        i = 0
        while self._feature[i] != LEAF:
            if row[self._feature[i]] <= self._threshold[i]:
                i = self._left[i]
            else:
                i = self._right[i]
        return self._value[i]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict every row of an ``(n, n_features)`` matrix.

        Walks all rows level-by-level with boolean masks, so the cost
        is ``O(depth)`` numpy passes rather than ``O(n)`` Python loops.
        Output dtype: int64 for classification, float64 for regression.
        """
        matrix = np.asarray(features, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self._n_features:
            raise ConfigurationError(
                f"feature matrix must be (n, {self._n_features}), got "
                f"{matrix.shape}"
            )
        n = matrix.shape[0]
        node = np.zeros(n, dtype=np.int64)
        feature = np.asarray(self._feature, dtype=np.int64)
        threshold = np.asarray(self._threshold, dtype=np.float64)
        left = np.asarray(self._left, dtype=np.int64)
        right = np.asarray(self._right, dtype=np.int64)
        active = feature[node] != LEAF
        while active.any():
            idx = node[active]
            rows = np.nonzero(active)[0]
            go_left = (
                matrix[rows, feature[idx]] <= threshold[idx]
            )
            node[rows] = np.where(go_left, left[idx], right[idx])
            active = feature[node] != LEAF
        if self._task == "classification":
            values = np.asarray(self._value, dtype=np.int64)
        else:
            values = np.asarray(self._value, dtype=np.float64)
        result: np.ndarray = values[node]
        return result

    # -- serialisation ------------------------------------------------------

    def to_payload(self) -> TreePayload:
        """Lossless JSON-able form (floats round-trip via ``repr``)."""
        return {
            "version": 1,
            "task": self._task,
            "n_features": self._n_features,
            "nodes": [
                [
                    self._feature[i],
                    self._threshold[i],
                    self._left[i],
                    self._right[i],
                    self._value[i],
                ]
                for i in range(len(self._feature))
            ],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "DecisionTree":
        """Rebuild a tree from :meth:`to_payload` (full validation)."""
        document = as_dict(payload, "tree payload")
        version = document.get("version")
        if version != 1:
            raise ConfigurationError(
                f"unsupported tree payload version {shown(version)}"
            )
        task = as_str(document.get("task"), "tree task")
        n_features = as_int(document.get("n_features"), "tree n_features")
        nodes = as_list(document.get("nodes"), "tree 'nodes'")
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[Union[int, float]] = []
        for i, node in enumerate(nodes):
            f, thr, lo, hi, val = as_list(node, f"tree node {i}", 5)
            feature.append(as_int(f, f"node {i} feature"))
            threshold.append(as_float(thr, f"node {i} threshold"))
            left.append(as_int(lo, f"node {i} left"))
            right.append(as_int(hi, f"node {i} right"))
            value.append(
                as_float(val, f"node {i} value")
                if task == "regression"
                else as_int(val, f"node {i} value")
            )
        return cls(task, n_features, feature, threshold, left, right, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionTree):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def __repr__(self) -> str:
        return (
            f"DecisionTree(task={self._task!r}, nodes={self.node_count}, "
            f"depth={self.depth})"
        )

    # -- training -----------------------------------------------------------

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        targets: np.ndarray,
        *,
        task: str,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
    ) -> "DecisionTree":
        """Train a tree with the exhaustive deterministic CART search.

        Args:
            features: ``(n, m)`` float matrix of training rows.
            targets: ``(n,)`` int class labels (classification) or
                float values (regression).
            task: ``"classification"`` or ``"regression"``.
            max_depth: Maximum internal tests on any path (>= 1).
            min_samples_leaf: Minimum training rows per leaf (>= 1).
        """
        if task not in TREE_TASKS:
            raise ConfigurationError(
                f"task must be one of {TREE_TASKS}, got {task!r}"
            )
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        matrix = np.asarray(features, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ConfigurationError(
                f"features must be a non-empty (n, m) matrix, got shape "
                f"{matrix.shape}"
            )
        if task == "classification":
            y = np.asarray(targets, dtype=np.int64)
        else:
            y = np.asarray(targets, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] != matrix.shape[0]:
            raise ConfigurationError(
                f"targets must be ({matrix.shape[0]},), got shape {y.shape}"
            )
        builder = _TreeBuilder(matrix, y, task, max_depth, min_samples_leaf)
        builder.build()
        return cls(
            task,
            matrix.shape[1],
            builder.feature,
            builder.threshold,
            builder.left,
            builder.right,
            builder.value,
        )


class _TreeBuilder:
    """Grows the flat node arrays in deterministic preorder."""

    def __init__(
        self,
        matrix: np.ndarray,
        targets: np.ndarray,
        task: str,
        max_depth: int,
        min_samples_leaf: int,
    ) -> None:
        self._matrix = matrix
        self._targets = targets
        self._task = task
        self._max_depth = max_depth
        self._min_leaf = min_samples_leaf
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[Union[int, float]] = []

    def build(self) -> None:
        """Grow the whole tree from the root (recursive preorder)."""
        self._grow(np.arange(self._matrix.shape[0], dtype=np.int64), 0)

    def _leaf_value(self, rows: np.ndarray) -> Union[int, float]:
        y = self._targets[rows]
        if self._task == "regression":
            return float(np.mean(y))
        # Majority class; np.unique sorts labels ascending and argmax
        # keeps the first maximum, so ties break toward the smallest.
        classes, counts = np.unique(y, return_counts=True)
        return int(classes[int(np.argmax(counts))])

    def _grow(self, rows: np.ndarray, depth: int) -> int:
        node_id = len(self.feature)
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(self._leaf_value(rows))
        if depth >= self._max_depth or rows.shape[0] < 2 * self._min_leaf:
            return node_id
        split = self._best_split(rows)
        if split is None:
            return node_id
        feature_index, threshold, left_rows, right_rows = split
        self.feature[node_id] = feature_index
        self.threshold[node_id] = threshold
        self.left[node_id] = self._grow(left_rows, depth + 1)
        self.right[node_id] = self._grow(right_rows, depth + 1)
        return node_id

    def _best_split(
        self, rows: np.ndarray
    ) -> Optional[Tuple[int, float, np.ndarray, np.ndarray]]:
        """The best (feature, threshold) split of ``rows``, or None.

        Scans features ascending; within a feature, candidate
        thresholds are midpoints between consecutive distinct sorted
        values.  ``np.argmin`` keeps the first minimum and cross-feature
        comparison is strict, so ties resolve to the lowest (feature,
        threshold) pair — the determinism anchor of the whole trainer.
        """
        matrix = self._matrix[rows]
        y = self._targets[rows]
        n = rows.shape[0]
        if self._task == "classification":
            classes, y_index = np.unique(y, return_inverse=True)
            if classes.shape[0] < 2:
                return None
            one_hot = np.zeros((n, classes.shape[0]), dtype=np.float64)
            one_hot[np.arange(n), y_index] = 1.0
            parent_counts = one_hot.sum(axis=0)
            parent_cost = float(n - (parent_counts**2).sum() / n)
        else:
            parent_cost = float(np.sum(y * y) - np.sum(y) ** 2 / n)
        best_gain = MIN_GAIN
        best: Optional[Tuple[int, float, np.ndarray]] = None
        for j in range(matrix.shape[1]):
            column = matrix[:, j]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            boundaries = np.nonzero(sorted_values[1:] > sorted_values[:-1])[0]
            if boundaries.shape[0] == 0:
                continue
            left_n = (boundaries + 1).astype(np.float64)
            right_n = n - left_n
            valid = (left_n >= self._min_leaf) & (right_n >= self._min_leaf)
            if not valid.any():
                continue
            if self._task == "classification":
                cumulative = np.cumsum(one_hot[order], axis=0)
                left_counts = cumulative[boundaries]
                right_counts = parent_counts[np.newaxis, :] - left_counts
                cost = (
                    left_n
                    - (left_counts**2).sum(axis=1) / left_n
                    + right_n
                    - (right_counts**2).sum(axis=1) / right_n
                )
            else:
                sorted_y = y[order]
                cum_sum = np.cumsum(sorted_y)
                cum_sq = np.cumsum(sorted_y * sorted_y)
                left_sum = cum_sum[boundaries]
                left_sq = cum_sq[boundaries]
                right_sum = cum_sum[-1] - left_sum
                right_sq = cum_sq[-1] - left_sq
                cost = (
                    left_sq
                    - left_sum * left_sum / left_n
                    + right_sq
                    - right_sum * right_sum / right_n
                )
            cost = np.where(valid, cost, np.inf)
            k = int(np.argmin(cost))
            gain = parent_cost - float(cost[k])
            if gain > best_gain:
                threshold = float(
                    (sorted_values[boundaries[k]] + sorted_values[boundaries[k] + 1])
                    / 2.0
                )
                best_gain = gain
                best = (j, threshold, column)
        if best is None:
            return None
        feature_index, threshold, column = best
        go_left = column <= threshold
        return (
            feature_index,
            threshold,
            rows[go_left],
            rows[~go_left],
        )
