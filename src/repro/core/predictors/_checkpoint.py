"""Shared narrowing helpers for predictor checkpoint payloads.

``export_state`` payloads round-trip through JSON, so ``restore_state``
implementations must re-validate every scalar they read.  These helpers
keep the narrowing logic (and the error wording) identical across the
predictor zoo.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.predictors.base import PredictorState
from repro.errors import ConfigurationError
from repro.numerics import finite_float


def check_kind(state: PredictorState, kind: str) -> None:
    """Reject payloads exported by a different predictor type."""
    if state.get("kind") != kind:
        raise ConfigurationError(
            f"checkpoint kind {state.get('kind')!r} is not {kind!r}"
        )


def check_config(
    state: PredictorState, pairs: Sequence[Tuple[str, object]]
) -> None:
    """Reject payloads whose configuration differs from this instance."""
    for key, expected in pairs:
        if state.get(key) != expected:
            raise ConfigurationError(
                f"checkpoint {key}={state.get(key)!r} does not match "
                f"this predictor's {key}={expected!r}"
            )


def as_int(value: object, label: str) -> int:
    """Narrow a checkpoint scalar to int (bools are not phase ids)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{label} must be an int, got {value!r}")
    return value


def as_opt_int(value: object, label: str) -> Optional[int]:
    """Narrow a checkpoint scalar to int-or-None."""
    if value is None:
        return None
    return as_int(value, label)


def as_float(value: object, label: str) -> float:
    """Narrow a checkpoint scalar to a finite float."""
    number = finite_float(value)
    if number is None:
        raise ConfigurationError(
            f"{label} must be a finite number, got {value!r}"
        )
    return number


def int_list(state: PredictorState, key: str) -> List[int]:
    """Extract a list-of-ints field from a checkpoint payload."""
    raw = state.get(key)
    if not isinstance(raw, list):
        raise ConfigurationError(f"checkpoint {key!r} must be a list")
    return [as_int(v, key) for v in raw]


def count_pairs(value: object, label: str) -> List[Tuple[int, int]]:
    """Narrow an insertion-ordered ``[[key, count], ...]`` pair list.

    Counter-backed predictors break frequency ties on insertion order,
    so exports list pairs in iteration order and restores must preserve
    it exactly — never sort.
    """
    if not isinstance(value, list):
        raise ConfigurationError(f"{label} must be a list, got {value!r}")
    pairs: List[Tuple[int, int]] = []
    for entry in value:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigurationError(f"malformed {label} pair: {entry!r}")
        pairs.append((as_int(entry[0], label), as_int(entry[1], label)))
    return pairs
