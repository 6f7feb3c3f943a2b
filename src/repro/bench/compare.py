"""The regression gate: diff a results directory against baselines.

``repro bench compare`` loads two directories of current-schema
artifacts and matches them by artifact name.  One rule decides:

* the exact blocks (:data:`~repro.bench.schema.EXACT_BLOCKS`:
  ``parameters``, ``metrics``, ``details``) must equal the baseline
  exactly — any difference, however small, marks the artifact
  ``drifted`` and names each differing key;
* ``measured`` (wall-clock) values are gated only in enforce mode
  (``--enforce`` or ``REPRO_BENCH_ENFORCE=1``): one regresses when it
  moves against its direction by more than the relative tolerance
  (default 10%).  Otherwise they are reported, never failed.

A current artifact with no committed baseline is a failure, not a
silent pass; baselines with no current counterpart are fine (CI
compares a subset against the full committed set).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.bench.gate import perf_enforced
from repro.bench.registry import HIGHER, metric_direction
from repro.bench.schema import (
    EXACT_BLOCKS,
    BenchFormatError,
    validate_payload,
)
from repro.errors import ConfigurationError

#: Default relative tolerance before a gated move counts as a regression.
DEFAULT_TOLERANCE = 0.10

#: Stands in for a key one side of a comparison does not have.
_ABSENT = object()


@dataclass(frozen=True)
class MetricDelta:
    """One ``measured`` value diffed between a run and its baseline.

    Attributes:
        metric: Measured value name.
        direction: Declared direction, or ``None`` when undeclared.
        baseline: Baseline value.
        current: Current value.
        change: Relative change ``(current - baseline) / |baseline|``
            (``inf``-signed when the baseline is zero and the value moved).
        gated: Whether this delta can fail the gate.
        regressed: Whether it did.
    """

    metric: str
    direction: Optional[str]
    baseline: float
    current: float
    change: float
    gated: bool
    regressed: bool


@dataclass(frozen=True)
class Drift:
    """One exact-block value that differs from its baseline.

    ``key`` is a path into the artifact (``metrics.q1_count``,
    ``details.grid[3].samples``); ``baseline`` and ``current`` are the
    values as canonical JSON text, or ``absent`` where a side lacks the
    key.
    """

    key: str
    baseline: str
    current: str


@dataclass(frozen=True)
class ArtifactComparison:
    """Gate outcome for one artifact."""

    name: str
    status: str  # "ok" | "drifted" | "regressed" | "missing_baseline"
    drifts: Tuple[Drift, ...] = ()
    deltas: Tuple[MetricDelta, ...] = ()
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CompareReport:
    """Full gate outcome across a results directory."""

    comparisons: Tuple[ArtifactComparison, ...]
    tolerance: float
    enforced: bool
    baseline_only: Tuple[str, ...] = ()

    @property
    def failures(self) -> List[ArtifactComparison]:
        """Artifacts that fail the gate."""
        return [c for c in self.comparisons if c.status != "ok"]

    @property
    def regressions(self) -> List[MetricDelta]:
        """Every gated ``measured`` value that regressed."""
        return [
            delta
            for comparison in self.comparisons
            for delta in comparison.deltas
            if delta.regressed
        ]

    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 on any drift or failure."""
        return 1 if self.failures else 0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready report (an infinite ``change`` becomes ``None``)."""
        artifacts = [asdict(comparison) for comparison in self.comparisons]
        for delta in (d for a in artifacts for d in a["deltas"]):
            if math.isinf(delta["change"]):
                delta["change"] = None
        return {
            "tolerance": self.tolerance,
            "enforced": self.enforced,
            "ok": not self.failures,
            "baseline_only": list(self.baseline_only),
            "artifacts": artifacts,
        }

    def render_text(self) -> str:
        """Human-readable gate summary."""
        lines: List[str] = []
        mode = "enforced (wall-clock gated)" if self.enforced else "default"
        lines.append(
            f"bench compare: exact {', '.join(EXACT_BLOCKS)}; measured "
            f"tolerance {self.tolerance:.0%}, mode {mode}"
        )
        for comparison in self.comparisons:
            marker = "ok " if comparison.status == "ok" else "FAIL"
            lines.append(f"[{marker}] {comparison.name}: {comparison.status}")
            for note in comparison.notes:
                lines.append(f"       note: {note}")
            for drift in comparison.drifts:
                lines.append(
                    f"       DRIFT {drift.key} {drift.baseline} -> "
                    f"{drift.current}"
                )
            for delta in comparison.deltas:
                if not delta.regressed and abs(delta.change) <= 1e-12:
                    continue
                change = (
                    "n/a"
                    if math.isinf(delta.change)
                    else f"{delta.change:+.1%}"
                )
                status = "REGRESSED" if delta.regressed else (
                    "gated" if delta.gated else "informational"
                )
                lines.append(
                    f"       measured:{delta.metric} "
                    f"{delta.baseline:g} -> {delta.current:g} "
                    f"({change}, {status})"
                )
        if self.baseline_only:
            lines.append(
                f"baseline-only artifacts skipped: "
                f"{len(self.baseline_only)}"
            )
        verdict = "PASS" if not self.failures else (
            f"FAIL ({len(self.failures)} artifact(s))"
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def load_results_dir(path: Path) -> Dict[str, Dict[str, Any]]:
    """Read every ``*.json`` artifact in a directory, validated.

    Returns artifact payloads keyed by artifact name.  A missing or
    file-typed path raises :class:`ConfigurationError`; an unreadable or
    malformed artifact, or one whose ``name`` is not its file stem (two
    files would then claim one name), raises :class:`BenchFormatError`
    naming the file.
    """
    if not path.is_dir():
        raise ConfigurationError(
            f"results directory {path} does not exist or is not a directory"
        )
    payloads: Dict[str, Dict[str, Any]] = {}
    for artifact_path in sorted(path.glob("*.json")):
        try:
            raw = json.loads(artifact_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise BenchFormatError(
                f"{artifact_path}: not readable JSON: {error}"
            ) from None
        try:
            validate_payload(raw)
        except BenchFormatError as error:
            raise BenchFormatError(f"{artifact_path}: {error}") from None
        if raw["name"] != artifact_path.stem:
            raise BenchFormatError(
                f"{artifact_path}: artifact name {raw['name']!r} is not "
                f"the file stem {artifact_path.stem!r}"
            )
        payloads[artifact_path.stem] = raw
    return payloads


def _canonical(value: Any) -> str:
    return "absent" if value is _ABSENT else json.dumps(value, sort_keys=True)


def _drifts(key: str, baseline: Any, current: Any) -> Iterator[Drift]:
    """Every leaf under ``key`` whose canonical JSON differs."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for child in sorted(set(baseline) | set(current)):
            yield from _drifts(
                f"{key}.{child}",
                baseline.get(child, _ABSENT),
                current.get(child, _ABSENT),
            )
    elif (
        isinstance(baseline, list)
        and isinstance(current, list)
        and len(baseline) == len(current)
    ):
        for index, pair in enumerate(zip(baseline, current)):
            yield from _drifts(f"{key}[{index}]", *pair)
    else:
        before, after = _canonical(baseline), _canonical(current)
        if before != after:
            yield Drift(key, before, after)


def _relative_change(baseline: float, current: float) -> float:
    delta = current - baseline
    if baseline == 0.0:
        if delta == 0.0:
            return 0.0
        return math.inf if delta > 0 else -math.inf
    return delta / abs(baseline)


def _diff_measured(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float,
    enforced: bool,
    notes: List[str],
) -> List[MetricDelta]:
    deltas: List[MetricDelta] = []
    for metric in sorted(current):
        if metric not in baseline:
            notes.append(f"measured:{metric} has no baseline value (new)")
            continue
        base_value = float(baseline[metric])
        cur_value = float(current[metric])
        direction = metric_direction(metric)
        change = _relative_change(base_value, cur_value)
        gated = enforced and direction is not None
        worsened = (
            change < -tolerance
            if direction == HIGHER
            else change > tolerance
        )
        deltas.append(
            MetricDelta(
                metric=metric,
                direction=direction,
                baseline=base_value,
                current=cur_value,
                change=change,
                gated=gated,
                regressed=gated and worsened,
            )
        )
    for metric in sorted(baseline):
        if metric not in current:
            notes.append(
                f"measured:{metric} present in baseline but missing from "
                "the current run"
            )
    return deltas


def compare_results(
    current: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Mapping[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    enforce: Optional[bool] = None,
) -> CompareReport:
    """Diff current artifacts against baselines under the gate rules.

    ``tolerance`` and ``enforce`` apply to ``measured`` only;
    ``enforce=None`` defers to the :data:`~repro.bench.gate.ENFORCE_ENV`
    environment contract.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigurationError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
    enforced = perf_enforced() if enforce is None else enforce
    comparisons: List[ArtifactComparison] = []
    for name in sorted(current):
        payload = current[name]
        if name not in baseline:
            comparisons.append(
                ArtifactComparison(
                    name=name,
                    status="missing_baseline",
                    notes=(
                        "no committed baseline for this artifact — "
                        "commit one (repro bench run + copy to the "
                        "baseline dir) before gating it",
                    ),
                )
            )
            continue
        base = baseline[name]
        drifts = tuple(
            drift
            for block in EXACT_BLOCKS
            for drift in _drifts(
                block, base.get(block, _ABSENT), payload.get(block, _ABSENT)
            )
        )
        notes: List[str] = []
        deltas = _diff_measured(
            payload.get("measured", {}),
            base.get("measured", {}),
            tolerance,
            enforced,
            notes,
        )
        if drifts:
            status = "drifted"
        elif any(delta.regressed for delta in deltas):
            status = "regressed"
        else:
            status = "ok"
        comparisons.append(
            ArtifactComparison(
                name=name,
                status=status,
                drifts=drifts,
                deltas=tuple(deltas),
                notes=tuple(notes),
            )
        )
    baseline_only = tuple(
        sorted(name for name in baseline if name not in current)
    )
    return CompareReport(
        comparisons=tuple(comparisons),
        tolerance=tolerance,
        enforced=enforced,
        baseline_only=baseline_only,
    )
