"""Helpers for predictor checkpoint payloads.

``export_state`` payloads round-trip through JSON, so ``restore_state``
implementations must re-validate every value they read.  Scalars and
list shapes are narrowed by the :mod:`repro.numerics` primitives; these
helpers cover what recurs across the predictor zoo on top of them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.predictors.base import PredictorState
from repro.errors import ConfigurationError
from repro.numerics import as_int, as_list, shown


def check_kind(state: PredictorState, kind: str) -> None:
    """Reject payloads exported by a different predictor type."""
    if state.get("kind") != kind:
        raise ConfigurationError(
            f"checkpoint kind {shown(state.get('kind'))} is not {kind!r}"
        )


def check_config(
    state: PredictorState, pairs: Sequence[Tuple[str, object]]
) -> None:
    """Reject payloads whose configuration differs from this instance."""
    for key, expected in pairs:
        if state.get(key) != expected:
            raise ConfigurationError(
                f"checkpoint {key}={shown(state.get(key))} does not match "
                f"this predictor's {key}={expected!r}"
            )


def int_list(
    state: PredictorState, key: str, length: Optional[int] = None
) -> List[int]:
    """A list-of-ints field of a checkpoint payload, of exactly
    ``length`` items when ``length`` is given."""
    raw = as_list(state.get(key), f"checkpoint {key!r}", length)
    return [as_int(v, key) for v in raw]


def count_pairs(value: object, label: str) -> List[Tuple[int, int]]:
    """Narrow an insertion-ordered ``[[key, count], ...]`` pair list.

    Counter-backed predictors break frequency ties on insertion order,
    so exports list pairs in iteration order and restores must preserve
    it exactly — never sort.
    """
    pairs: List[Tuple[int, int]] = []
    for entry in as_list(value, label):
        key, count = as_list(entry, f"{label} pair", 2)
        pairs.append((as_int(key, label), as_int(count, label)))
    return pairs
