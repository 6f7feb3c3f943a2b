"""The regression gate: diff a results directory against baselines.

``repro bench compare`` loads two directories of current-schema
artifacts, matches them by artifact name and diffs every metric whose
direction the registry declares:

* ``metrics`` (deterministic) are gated unconditionally;
* ``measured`` (wall-clock) are gated only in enforce mode
  (``--enforce`` or ``REPRO_BENCH_ENFORCE=1``) — on shared runners
  they are reported, never failed.

A gated metric regresses when it moves against its declared direction
by more than the relative tolerance (default 10%).  A current artifact
with no committed baseline is a failure, not a silent pass; baselines
with no current counterpart are fine (CI compares the smoke subset
against the full committed set).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.bench.gate import perf_enforced
from repro.bench.registry import HIGHER, metric_direction
from repro.bench.schema import BenchFormatError, validate_payload
from repro.errors import ConfigurationError

#: Default relative tolerance before a gated move counts as a regression.
DEFAULT_TOLERANCE = 0.10


@dataclass(frozen=True)
class MetricDelta:
    """One metric diffed between a current artifact and its baseline.

    Attributes:
        artifact: Owning artifact name.
        metric: Metric name.
        kind: ``"metric"`` (deterministic) or ``"measured"`` (wall-clock).
        direction: Declared direction, or ``None`` when undeclared.
        baseline: Baseline value.
        current: Current value.
        change: Relative change ``(current - baseline) / |baseline|``
            (``inf``-signed when the baseline is zero and the value moved).
        gated: Whether this delta can fail the gate.
        regressed: Whether it did.
    """

    artifact: str
    metric: str
    kind: str
    direction: Optional[str]
    baseline: float
    current: float
    change: float
    gated: bool
    regressed: bool


@dataclass(frozen=True)
class ArtifactComparison:
    """Gate outcome for one artifact."""

    name: str
    status: str  # "ok" | "regressed" | "missing_baseline"
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
        """Every gated metric that regressed."""
        return [
            delta
            for comparison in self.comparisons
            for delta in comparison.deltas
            if delta.regressed
        ]

    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 on any regression/failure."""
        return 1 if self.failures else 0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready report."""
        return {
            "tolerance": self.tolerance,
            "enforced": self.enforced,
            "ok": not self.failures,
            "baseline_only": list(self.baseline_only),
            "artifacts": [
                {
                    "name": comparison.name,
                    "status": comparison.status,
                    "notes": list(comparison.notes),
                    "deltas": [
                        {
                            "metric": delta.metric,
                            "kind": delta.kind,
                            "direction": delta.direction,
                            "baseline": delta.baseline,
                            "current": delta.current,
                            "change": None
                            if math.isinf(delta.change)
                            else delta.change,
                            "gated": delta.gated,
                            "regressed": delta.regressed,
                        }
                        for delta in comparison.deltas
                    ],
                }
                for comparison in self.comparisons
            ],
        }

    def render_text(self) -> str:
        """Human-readable gate summary."""
        lines: List[str] = []
        mode = "enforced (wall-clock gated)" if self.enforced else "default"
        lines.append(
            f"bench compare: tolerance {self.tolerance:.0%}, mode {mode}"
        )
        for comparison in self.comparisons:
            marker = "ok " if comparison.status == "ok" else "FAIL"
            lines.append(f"[{marker}] {comparison.name}: {comparison.status}")
            for note in comparison.notes:
                lines.append(f"       note: {note}")
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
                    f"       {delta.kind}:{delta.metric} "
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
    malformed artifact raises :class:`BenchFormatError` naming the file.
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
        payloads[str(raw["name"])] = raw
    return payloads


def _relative_change(baseline: float, current: float) -> float:
    delta = current - baseline
    if baseline == 0.0:
        if delta == 0.0:
            return 0.0
        return math.inf if delta > 0 else -math.inf
    return delta / abs(baseline)


def _diff_block(
    artifact: str,
    kind: str,
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float,
    gate_kind: bool,
    notes: List[str],
) -> List[MetricDelta]:
    deltas: List[MetricDelta] = []
    for metric in sorted(current):
        if metric not in baseline:
            notes.append(f"{kind}:{metric} has no baseline value (new)")
            continue
        base_value = float(baseline[metric])
        cur_value = float(current[metric])
        direction = metric_direction(artifact, metric)
        change = _relative_change(base_value, cur_value)
        gated = gate_kind and direction is not None
        worsened = (
            change < -tolerance
            if direction == HIGHER
            else change > tolerance
        )
        regressed = gated and worsened
        deltas.append(
            MetricDelta(
                artifact=artifact,
                metric=metric,
                kind=kind,
                direction=direction,
                baseline=base_value,
                current=cur_value,
                change=change,
                gated=gated,
                regressed=regressed,
            )
        )
    for metric in sorted(baseline):
        if metric not in current:
            notes.append(
                f"{kind}:{metric} present in baseline but missing from "
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
        notes: List[str] = []
        deltas = _diff_block(
            name,
            "metric",
            payload.get("metrics", {}),
            base.get("metrics", {}),
            tolerance,
            gate_kind=True,
            notes=notes,
        )
        deltas += _diff_block(
            name,
            "measured",
            payload.get("measured", {}),
            base.get("measured", {}),
            tolerance,
            gate_kind=enforced,
            notes=notes,
        )
        status = (
            "regressed" if any(d.regressed for d in deltas) else "ok"
        )
        comparisons.append(
            ArtifactComparison(
                name=name,
                status=status,
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
