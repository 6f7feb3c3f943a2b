"""Trainable phase predictors behind the standard ``Predictor`` contract.

Both predictors split their state into two strata:

* the **trained model** — installed by ``fit`` (or ``restore_state``)
  and *kept* across :meth:`reset`: the offline evaluator resets a
  predictor before every replay, and a trained predictor must survive
  that exactly like a GPHT survives having its config;
* the **online history** — the live observation window, cleared by
  ``reset`` like any other predictor's tables.

``export_state`` carries both strata, so trained models inherit serve
checkpointing, worker-restart replay, migration and trace-replay
verification from the existing contract with zero serve-side code.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.predictors._checkpoint import (
    check_config,
    check_kind,
    int_list,
)
from repro.core.predictors.base import (
    PhaseObservation,
    PhasePredictor,
    PredictorState,
)
from repro.errors import ConfigurationError
from repro.learn.dataset import PhaseWindowDataset
from repro.learn.tree import DecisionTree
from repro.numerics import as_float, as_int, as_list

#: Phase-history padding value (real phases are 1-based).
_PAD_PHASE = 0  # repro-lint: disable=phase-id-range


class DecisionTreePhasePredictor(PhasePredictor):
    """CART-based next-phase predictor over a sliding feature window.

    Args:
        history_length: Number of phase-history features (matches the
            :class:`~repro.learn.dataset.PhaseWindowDataset` layout).

    Untrained instances fall back to last-value prediction, so a fresh
    predictor is usable (and serves exactly like ``LastValue``) until a
    model is installed by :meth:`fit` or :meth:`restore_state`.
    """

    def __init__(self, history_length: int = 4) -> None:
        if history_length < 1:
            raise ConfigurationError(
                f"history_length must be >= 1, got {history_length}"
            )
        self._history_length = history_length
        self._tree: Optional[DecisionTree] = None
        self._history: Deque[int] = deque(maxlen=history_length)
        self._mem = 0.0
        self._mem_prev = 0.0
        self._seen = 0

    @property
    def name(self) -> str:
        return f"LearnedTree_{self._history_length}"

    @property
    def history_length(self) -> int:
        """Number of phase-history feature columns."""
        return self._history_length

    @property
    def is_trained(self) -> bool:
        """Whether a model has been installed."""
        return self._tree is not None

    @property
    def tree(self) -> Optional[DecisionTree]:
        """The installed model (None while untrained)."""
        return self._tree

    def fit(
        self,
        dataset: PhaseWindowDataset,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
    ) -> DecisionTree:
        """Train and install a tree from a phase-window dataset."""
        if dataset.history_length != self._history_length:
            raise ConfigurationError(
                f"dataset history_length={dataset.history_length} does "
                f"not match this predictor's {self._history_length}"
            )
        tree = DecisionTree.fit(
            dataset.features,
            dataset.labels,
            task="classification",
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
        )
        self._tree = tree
        return tree

    def observe(self, observation: PhaseObservation) -> None:
        self._history.appendleft(observation.phase)
        self._mem_prev = self._mem if self._seen else 0.0
        self._mem = observation.mem_per_uop
        self._seen += 1

    def predict(self) -> int:
        if not self._seen:
            return self.DEFAULT_PHASE
        if self._tree is None:
            # Untrained fallback: last-value.
            return self._history[0]
        row = [float(_PAD_PHASE)] * (self._history_length + 2)
        for i, phase in enumerate(self._history):
            row[i] = float(phase)
        row[self._history_length] = self._mem
        row[self._history_length + 1] = self._mem_prev
        return int(self._tree.predict_one(row))

    def reset(self) -> None:
        """Forget the online window; the trained model is kept."""
        self._history.clear()
        self._mem = 0.0
        self._mem_prev = 0.0
        self._seen = 0

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: the trained tree (when any)
        plus the full online window.
        """
        return {
            "kind": "learned_tree",
            "history_length": self._history_length,
            "tree": self._tree.to_payload() if self._tree is not None else None,
            "history": list(self._history),
            "mem": self._mem,
            "mem_prev": self._mem_prev,
            "seen": self._seen,
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "learned_tree")
        check_config(state, (("history_length", self._history_length),))
        raw_tree = state.get("tree")
        tree = None if raw_tree is None else DecisionTree.from_payload(raw_tree)
        if tree is not None:
            if tree.task != "classification":
                raise ConfigurationError(
                    f"phase predictor tree must be a classifier, got "
                    f"{tree.task!r}"
                )
            if tree.n_features != self._history_length + 2:
                raise ConfigurationError(
                    f"tree expects {tree.n_features} features, predictor "
                    f"provides {self._history_length + 2}"
                )
        history = int_list(state, "history")
        if len(history) > self._history_length:
            raise ConfigurationError(
                f"checkpoint history holds {len(history)} entries, "
                f"history_length is {self._history_length}"
            )
        seen = as_int(state.get("seen"), "seen", minimum=0)
        mem = as_float(state.get("mem"), "mem")
        mem_prev = as_float(state.get("mem_prev"), "mem_prev")
        self._tree = tree
        self._history = deque(history, maxlen=self._history_length)
        self._mem = mem
        self._mem_prev = mem_prev
        self._seen = seen


class MarkovKPredictor(PhasePredictor):
    """Order-``k`` interpolated add-alpha Markov/n-gram phase predictor.

    Keeps two count stores with identical keying (context tuple, most
    recent phase first, lengths ``1..k``): a **prior** installed by
    :meth:`fit` (kept across resets) and **online** counts grown by
    ``observe``.  Prediction interpolates orders bottom-up: starting
    from the uniform distribution over the known alphabet, each
    non-empty context of increasing length refines the distribution
    with add-``alpha`` smoothing::

        p_L(s) = (count_L(s) + alpha * p_{L-1}(s)) / (total_L + alpha)

    Empty contexts are skipped (pure backoff), so unseen deep histories
    gracefully degrade to the shallow orders.  The argmax breaks ties
    toward the current phase (persistence), then the smallest phase id —
    both order-free, so count stores never depend on insertion order
    and artifacts can be canonically sorted.
    """

    def __init__(self, order: int = 3, alpha: float = 0.5) -> None:
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        if alpha <= 0.0:
            raise ConfigurationError(f"alpha must be > 0, got {alpha}")
        self._order = order
        self._alpha = alpha
        self._prior: Dict[Tuple[int, ...], Dict[int, int]] = {}
        self._prior_support: Tuple[int, ...] = ()
        self._counts: Dict[Tuple[int, ...], Dict[int, int]] = {}
        self._online_support: Set[int] = set()
        self._history: Deque[int] = deque(maxlen=order)

    @property
    def name(self) -> str:
        return f"MarkovK_{self._order}"

    @property
    def order(self) -> int:
        """Maximum context length ``k``."""
        return self._order

    @property
    def alpha(self) -> float:
        """Add-alpha smoothing strength."""
        return self._alpha

    @property
    def is_trained(self) -> bool:
        """Whether prior counts have been installed."""
        return bool(self._prior) or bool(self._prior_support)

    def fit(self, dataset: PhaseWindowDataset) -> None:
        """Install prior n-gram counts from a phase-window dataset.

        Each example contributes one count per context length
        ``1..min(k, history_length)``; padded (pre-stream) history
        positions terminate the context extension.
        """
        prior: Dict[Tuple[int, ...], Dict[int, int]] = {}
        support: Set[int] = set()
        history_length = dataset.history_length
        usable = min(self._order, history_length)
        for row, label_value in zip(
            dataset.features.tolist(), dataset.labels.tolist()
        ):
            label = int(label_value)
            support.add(label)
            history = [int(v) for v in row[:history_length]]
            for length in range(1, usable + 1):
                context = tuple(history[:length])
                if _PAD_PHASE in context:
                    break
                support.update(context)
                targets = prior.setdefault(context, {})
                targets[label] = targets.get(label, 0) + 1
        support.discard(_PAD_PHASE)
        self._prior = prior
        self._prior_support = tuple(sorted(support))

    def observe(self, observation: PhaseObservation) -> None:
        self._observe_phase(observation.phase)

    def predict(self) -> int:
        return self._predict_current()

    def reset(self) -> None:
        """Forget online counts and history; the prior is kept."""
        self._counts = {}
        self._online_support = set()
        self._history.clear()

    # -- scalar state machine (shared with the batch kernels) ---------------

    def _observe_phase(self, phase: int) -> None:
        history = self._history
        counts = self._counts
        for length in range(1, min(self._order, len(history)) + 1):
            context = tuple(history[i] for i in range(length))
            targets = counts.setdefault(context, {})
            targets[phase] = targets.get(phase, 0) + 1
        history.appendleft(phase)
        self._online_support.add(phase)

    def _predict_current(self) -> int:
        history = self._history
        if not history:
            return self.DEFAULT_PHASE
        support = sorted(set(self._prior_support) | self._online_support)
        if not support:
            return history[0]
        alpha = self._alpha
        prior = self._prior
        counts = self._counts
        uniform = 1.0 / len(support)
        probabilities = [uniform] * len(support)
        for length in range(1, min(self._order, len(history)) + 1):
            context = tuple(history[i] for i in range(length))
            prior_targets = prior.get(context)
            online_targets = counts.get(context)
            if prior_targets is None and online_targets is None:
                continue
            total = 0
            merged: List[int] = [0] * len(support)
            for index, symbol in enumerate(support):
                n = 0
                if prior_targets is not None:
                    n += prior_targets.get(symbol, 0)
                if online_targets is not None:
                    n += online_targets.get(symbol, 0)
                merged[index] = n
                total += n
            if total == 0:
                continue
            denominator = total + alpha
            probabilities = [
                (merged[index] + alpha * probabilities[index]) / denominator
                for index in range(len(support))
            ]
        best_index = 0
        best_probability = probabilities[0]
        for index in range(1, len(support)):
            if probabilities[index] > best_probability:
                best_probability = probabilities[index]
                best_index = index
        # Tie-break toward persistence: the current phase wins any exact
        # probability tie with the argmax (smallest tied id otherwise).
        current = history[0]
        if support[best_index] != current and current in support:
            current_index = support.index(current)
            if probabilities[current_index] == best_probability:
                best_index = current_index
        return support[best_index]

    # -- batch kernels ------------------------------------------------------

    def observe_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> None:
        """Batch kernel: the scalar count updates without per-sample
        ``PhaseObservation`` construction or method dispatch.
        """
        observe = self._observe_phase
        for phase in phases:
            observe(phase)

    def predict_batch(
        self, phases: Sequence[int], mem_values: Sequence[float]
    ) -> List[int]:
        """Batch kernel for the fused observe/predict cycle.

        Drives the shared scalar state machine directly — bit-identical
        to the default loop by construction — while skipping the
        ``PhaseObservation`` allocation and double method dispatch per
        sample.  The scalar predictor emits no trace events, so the
        kernel is valid whether or not a tracer is bound.
        """
        observe = self._observe_phase
        predict = self._predict_current
        predictions: List[int] = []
        append = predictions.append
        for phase in phases:
            observe(phase)
            append(predict())
        return predictions

    # -- checkpointing ------------------------------------------------------

    def export_state(self) -> PredictorState:
        """Lossless JSON-able snapshot: prior and online n-gram counts
        (canonically sorted — prediction is order-free), support sets
        and the live history window.
        """
        return {
            "kind": "markov_k",
            "order": self._order,
            "alpha": self._alpha,
            "prior": _counts_payload(self._prior),
            "prior_support": list(self._prior_support),
            "counts": _counts_payload(self._counts),
            "online_support": sorted(self._online_support),
            "history": list(self._history),
        }

    def restore_state(self, state: PredictorState) -> None:
        check_kind(state, "markov_k")
        check_config(
            state, (("order", self._order), ("alpha", self._alpha))
        )
        prior = _counts_from_payload(state.get("prior"), "prior", self._order)
        counts = _counts_from_payload(
            state.get("counts"), "counts", self._order
        )
        prior_support = int_list(state, "prior_support")
        online_support = int_list(state, "online_support")
        history = int_list(state, "history")
        if len(history) > self._order:
            raise ConfigurationError(
                f"checkpoint history holds {len(history)} entries, order "
                f"is {self._order}"
            )
        self._prior = prior
        self._prior_support = tuple(sorted(prior_support))
        self._counts = counts
        self._online_support = set(online_support)
        self._history = deque(history, maxlen=self._order)


def _counts_payload(
    counts: Dict[Tuple[int, ...], Dict[int, int]]
) -> List[List[object]]:
    """Canonical (sorted) JSON form of an n-gram count store."""
    return [
        [list(context), sorted(targets.items())]
        for context, targets in sorted(counts.items())
    ]


def _counts_from_payload(
    payload: object, label: str, order: int
) -> Dict[Tuple[int, ...], Dict[int, int]]:
    """Rebuild an n-gram count store from its canonical payload."""
    counts: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for entry in as_list(payload, f"checkpoint {label!r}"):
        raw_context, raw_targets = as_list(entry, f"{label} entry", 2)
        context = tuple(
            as_int(v, f"{label} context")
            for v in as_list(raw_context, f"{label} context")
        )
        if not 1 <= len(context) <= order:
            raise ConfigurationError(
                f"{label} context {context} has length {len(context)}, "
                f"expected [1, {order}]"
            )
        targets: Dict[int, int] = {}
        for pair in as_list(raw_targets, f"{label} targets"):
            target, n = as_list(pair, f"{label} count pair", 2)
            targets[as_int(target, f"{label} target")] = as_int(
                n, f"{label} count", minimum=1
            )
        counts[context] = targets
    return counts
