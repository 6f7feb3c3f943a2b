"""Typed sweep and comparison-suite results.

These dataclasses replace the nested ``Dict[str, Dict[int, float]]``
blobs the sweep helpers used to return.  A result knows its axes, its
cells, the fixed parameters of the sweep and the provenance of its
execution (backend, cache hit-rate, timing), and serialises losslessly
through ``to_payload``/``from_payload``.

Migration: ``to_dict()`` renders the *old* nested-dict shape and
``from_dict()`` reads it back; dict-style access on the result object
itself is gone — see ``docs/execution_engine.md`` for the migration
table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.exec.spec import CODE_VERSION

#: Scalar cell-metric values (JSON-able).
MetricValue = Union[str, int, float, bool, None]
#: One axis coordinate of a cell key.
KeyValue = Union[str, int, float]
#: Fixed sweep-parameter values (scalars or tuples of scalars).
ParameterValue = Union[MetricValue, Tuple[MetricValue, ...]]


def _parameter_from_json(value: Any) -> ParameterValue:
    """Restore tuple-valued parameters after a JSON round-trip."""
    if isinstance(value, list):
        return tuple(value)
    return value  # type: ignore[no-any-return]

@dataclass(frozen=True)
class Provenance:
    """How a result was produced (excluded from result equality).

    Attributes:
        runner: Backend identifier (``serial``, ``process-pool-4``,
            ``inline`` for non-engine computation).
        total_cells: Cells in the batch.
        cache_hits: Cells replayed from the result cache.
        executed: Cells actually computed.
        wall_seconds: Batch wall-clock.
        cell_seconds: Summed per-cell evaluation time.
        cache_corrupt: Cache entries found corrupt during the batch and
            quarantined (0 for results predating this field).
        code_version: Cache/code version tag at execution time.
    """

    runner: str
    total_cells: int
    cache_hits: int
    executed: int
    wall_seconds: float
    cell_seconds: float
    cache_corrupt: int = 0
    code_version: str = CODE_VERSION

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the cache, in [0, 1]."""
        if self.total_cells == 0:
            return 0.0
        return self.cache_hits / self.total_cells

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form."""
        return {
            "runner": self.runner,
            "total_cells": self.total_cells,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "cache_corrupt": self.cache_corrupt,
            "code_version": self.code_version,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Provenance":
        """Inverse of :meth:`to_dict`."""
        return cls(
            runner=str(payload["runner"]),
            total_cells=int(payload["total_cells"]),
            cache_hits=int(payload["cache_hits"]),
            executed=int(payload["executed"]),
            wall_seconds=float(payload["wall_seconds"]),
            cell_seconds=float(payload["cell_seconds"]),
            cache_corrupt=int(payload.get("cache_corrupt", 0)),
            code_version=str(payload.get("code_version", CODE_VERSION)),
        )

    @classmethod
    def inline(cls, total_cells: int, wall_seconds: float) -> "Provenance":
        """Provenance for direct (non-engine) computation."""
        return cls(
            runner="inline",
            total_cells=total_cells,
            cache_hits=0,
            executed=total_cells,
            wall_seconds=wall_seconds,
            cell_seconds=wall_seconds,
        )


def _metrics_tuple(
    metrics: Mapping[str, MetricValue]
) -> Tuple[Tuple[str, MetricValue], ...]:
    return tuple(sorted(metrics.items()))


class _Cell:
    """What :class:`SweepCell` and :class:`ComparisonCell` share: sorted
    metrics and the lookups over them.  Each cell names itself in
    messages through :meth:`_label`."""

    metrics: Tuple[Tuple[str, MetricValue], ...]

    def _label(self) -> str:
        raise NotImplementedError

    def metric(self, name: str) -> MetricValue:
        """Look up one metric by name."""
        for metric_name, value in self.metrics:
            if metric_name == name:
                return value
        raise ConfigurationError(
            f"{self._label()} has no metric {name!r}; "
            f"known: {[m for m, _ in self.metrics]}"
        )

    def float_metric(self, name: str) -> float:
        """Look up one numeric metric by name."""
        value = self.metric(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"metric {name!r} of {self._label()} is not numeric: {value!r}"
            )
        return float(value)

    def metrics_dict(self) -> Dict[str, MetricValue]:
        """The metrics as a plain dict."""
        return dict(self.metrics)


@dataclass(frozen=True)
class SweepCell(_Cell):
    """One cell of a sweep: its coordinates and its metrics.

    Attributes:
        key: Axis coordinates, in the sweep's axis order (a tuple).
        metrics: Sorted ``(name, value)`` metric pairs.
    """

    key: Tuple[KeyValue, ...]
    metrics: Tuple[Tuple[str, MetricValue], ...]

    @classmethod
    def create(
        cls, key: Sequence[KeyValue], metrics: Mapping[str, MetricValue]
    ) -> "SweepCell":
        """Build a cell from loose key/metrics collections."""
        return cls(key=tuple(key), metrics=_metrics_tuple(metrics))

    def _label(self) -> str:
        return f"cell {self.key}"


@dataclass(frozen=True)
class SweepResult:
    """Typed outcome of one sweep.

    Attributes:
        name: Sweep identifier (``pht_entries``, ``frequencies``, ...).
        axes: Names of the key coordinates, e.g. ``("benchmark",
            "pht_entries")``.
        cells: All cells, in deterministic sweep order.
        parameters: Fixed sweep parameters as sorted ``(name, value)``
            pairs (e.g. ``gphr_depth``, ``n_intervals``); values are
            scalars or tuples of scalars.
        metric: Primary metric rendered by the legacy nested-dict shape
            (``None`` exposes each cell's full metrics mapping instead).
        provenance: Execution provenance; excluded from equality so
            serial, parallel and cache-replayed results compare equal.
    """

    name: str
    axes: Tuple[str, ...]
    cells: Tuple[SweepCell, ...]
    parameters: Tuple[Tuple[str, ParameterValue], ...] = ()
    metric: Optional[str] = None
    provenance: Optional[Provenance] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError("a sweep result needs at least one axis")
        for cell in self.cells:
            if len(cell.key) != len(self.axes):
                raise ConfigurationError(
                    f"cell key {cell.key} does not match axes {self.axes}"
                )

    # -- typed accessors ----------------------------------------------------

    def axis_values(self, axis: str) -> Tuple[KeyValue, ...]:
        """Distinct coordinates of one axis, in first-seen order."""
        try:
            position = self.axes.index(axis)
        except ValueError:
            raise ConfigurationError(
                f"unknown axis {axis!r}; axes: {self.axes}"
            ) from None
        seen: List[KeyValue] = []
        for cell in self.cells:
            value = cell.key[position]
            if value not in seen:
                seen.append(value)
        return tuple(seen)

    def cell(self, *key: KeyValue) -> SweepCell:
        """The cell at exact coordinates ``key``."""
        wanted = tuple(key)
        for cell in self.cells:
            if cell.key == wanted:
                return cell
        raise ConfigurationError(
            f"no cell at {wanted} in sweep {self.name!r}"
        )

    def value(self, *key: KeyValue, metric: Optional[str] = None) -> float:
        """One numeric metric at coordinates ``key``.

        Args:
            key: Axis coordinates.
            metric: Metric name (default: the sweep's primary metric).
        """
        name = metric if metric is not None else self.metric
        if name is None:
            raise ConfigurationError(
                f"sweep {self.name!r} has no primary metric; pass metric="
            )
        return self.cell(*key).float_metric(name)

    def parameter(
        self, name: str, default: ParameterValue = None
    ) -> ParameterValue:
        """Look up one fixed sweep parameter."""
        for key, value in self.parameters:
            if key == name:
                return value
        return default

    def with_provenance(self, provenance: Optional[Provenance]) -> "SweepResult":
        """A copy carrying different provenance."""
        return replace(self, provenance=provenance)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[Any, Any]:
        """The legacy nested-dict shape of this sweep.

        Two axes with a primary metric give ``{row: {col: value}}`` (the
        old ``sweep_pht_entries`` shape); one axis without a primary
        metric gives ``{key: {metric: value}}`` (the old
        ``sweep_frequencies`` shape), and so on.
        """
        nested: Dict[Any, Any] = {}
        for cell in self.cells:
            payload: Any
            if self.metric is not None:
                payload = cell.metric(self.metric)
            else:
                payload = cell.metrics_dict()
            node = nested
            for coordinate in cell.key[:-1]:
                node = node.setdefault(coordinate, {})
            node[cell.key[-1]] = payload
        return nested

    @classmethod
    def from_dict(
        cls,
        nested: Mapping[Any, Any],
        name: str,
        axes: Sequence[str],
        metric: Optional[str] = None,
        parameters: Optional[Mapping[str, ParameterValue]] = None,
        provenance: Optional[Provenance] = None,
    ) -> "SweepResult":
        """Rebuild a result from its legacy nested-dict shape.

        Round-trips with :meth:`to_dict`:
        ``SweepResult.from_dict(r.to_dict(), r.name, r.axes, r.metric,
        dict(r.parameters)) == r``.
        """
        axes_tuple = tuple(axes)
        cells: List[SweepCell] = []

        def walk(node: Mapping[Any, Any], prefix: Tuple[KeyValue, ...]) -> None:
            depth = len(prefix)
            for coordinate, payload in node.items():
                key = prefix + (coordinate,)
                if depth + 1 < len(axes_tuple):
                    walk(payload, key)
                elif metric is not None:
                    cells.append(
                        SweepCell.create(key, {metric: payload})
                    )
                else:
                    cells.append(SweepCell.create(key, dict(payload)))

        walk(nested, ())
        return cls(
            name=name,
            axes=axes_tuple,
            cells=tuple(cells),
            parameters=tuple(sorted((parameters or {}).items())),
            metric=metric,
            provenance=provenance,
        )

    def to_payload(self) -> Dict[str, Any]:
        """Exact, lossless serialisation (inverse of :meth:`from_payload`)."""
        return {
            "name": self.name,
            "axes": list(self.axes),
            "metric": self.metric,
            "parameters": [[k, v] for k, v in self.parameters],
            "cells": [
                {"key": list(cell.key), "metrics": cell.metrics_dict()}
                for cell in self.cells
            ],
            "provenance": (
                self.provenance.to_dict() if self.provenance is not None else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Inverse of :meth:`to_payload`."""
        provenance = payload.get("provenance")
        return cls(
            name=str(payload["name"]),
            axes=tuple(str(axis) for axis in payload["axes"]),
            cells=tuple(
                SweepCell(
                    key=tuple(cell["key"]),
                    metrics=_metrics_tuple(cell["metrics"]),
                )
                for cell in payload["cells"]
            ),
            parameters=tuple(
                (str(k), _parameter_from_json(v))
                for k, v in payload.get("parameters", [])
            ),
            metric=payload.get("metric"),
            provenance=(
                Provenance.from_dict(provenance)
                if provenance is not None
                else None
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """The payload as a JSON string."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_payload(json.loads(text))


@dataclass(frozen=True)
class ComparisonCell(_Cell):
    """One benchmark's baseline-vs-managed summary metrics.

    Attributes:
        benchmark: Benchmark name.
        metrics: Sorted ``(name, value)`` metric pairs (see
            :func:`repro.exec.cells.comparison_summary` for the keys).
    """

    benchmark: str
    metrics: Tuple[Tuple[str, MetricValue], ...]

    @classmethod
    def create(
        cls, benchmark: str, metrics: Mapping[str, MetricValue]
    ) -> "ComparisonCell":
        """Build a cell from a loose metrics mapping."""
        return cls(benchmark=benchmark, metrics=_metrics_tuple(metrics))

    def _label(self) -> str:
        return f"comparison cell {self.benchmark!r}"

    @property
    def edp_improvement(self) -> float:
        """Fractional EDP improvement (positive = managed wins)."""
        return self.float_metric("edp_improvement")

    @property
    def power_savings(self) -> float:
        """Fractional mean-power reduction."""
        return self.float_metric("power_savings")

    @property
    def energy_savings(self) -> float:
        """Fractional energy reduction."""
        return self.float_metric("energy_savings")

    @property
    def performance_degradation(self) -> float:
        """Fractional BIPS loss of the managed run."""
        return self.float_metric("performance_degradation")

    @property
    def handler_overhead_fraction(self) -> float:
        """Fraction of run time spent in the PMI handler."""
        return self.float_metric("handler_overhead_fraction")

    @property
    def prediction_accuracy(self) -> float:
        """Online prediction accuracy of the managed run."""
        return self.float_metric("prediction_accuracy")


@dataclass(frozen=True)
class ComparisonSuiteResult:
    """Typed outcome of a baseline-vs-managed suite over benchmarks.

    Attributes:
        name: Suite identifier.
        governor: Managed governor registry name.
        policy: Policy registry name.
        n_intervals: Trace length per run.
        cells: Per-benchmark comparison summaries, in suite order.
        provenance: Execution provenance (excluded from equality).
    """

    name: str
    governor: str
    policy: str
    n_intervals: int
    cells: Tuple[ComparisonCell, ...]
    provenance: Optional[Provenance] = field(default=None, compare=False)

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        """Benchmark names in suite order."""
        return tuple(cell.benchmark for cell in self.cells)

    def cell(self, benchmark: str) -> ComparisonCell:
        """One benchmark's summary."""
        for cell in self.cells:
            if cell.benchmark == benchmark:
                return cell
        raise ConfigurationError(
            f"no benchmark {benchmark!r} in suite {self.name!r}; "
            f"have: {list(self.benchmarks)}"
        )

    def value(self, benchmark: str, metric: str) -> float:
        """One numeric metric of one benchmark."""
        return self.cell(benchmark).float_metric(metric)

    def mean(self, metric: str) -> float:
        """Suite mean of one numeric metric."""
        if not self.cells:
            raise ConfigurationError(f"suite {self.name!r} has no cells")
        return sum(cell.float_metric(metric) for cell in self.cells) / len(
            self.cells
        )

    def to_dict(self) -> Dict[str, Dict[str, MetricValue]]:
        """Nested-dict shape: ``{benchmark: {metric: value}}``."""
        return {cell.benchmark: cell.metrics_dict() for cell in self.cells}

    @classmethod
    def from_dict(
        cls,
        nested: Mapping[str, Mapping[str, MetricValue]],
        name: str,
        governor: str,
        policy: str,
        n_intervals: int,
        provenance: Optional[Provenance] = None,
    ) -> "ComparisonSuiteResult":
        """Rebuild a suite from its :meth:`to_dict` shape."""
        return cls(
            name=name,
            governor=governor,
            policy=policy,
            n_intervals=n_intervals,
            cells=tuple(
                ComparisonCell.create(benchmark, dict(metrics))
                for benchmark, metrics in nested.items()
            ),
            provenance=provenance,
        )

    def to_payload(self) -> Dict[str, Any]:
        """Exact, lossless serialisation (inverse of :meth:`from_payload`)."""
        return {
            "name": self.name,
            "governor": self.governor,
            "policy": self.policy,
            "n_intervals": self.n_intervals,
            "cells": [
                {"benchmark": cell.benchmark, "metrics": cell.metrics_dict()}
                for cell in self.cells
            ],
            "provenance": (
                self.provenance.to_dict() if self.provenance is not None else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ComparisonSuiteResult":
        """Inverse of :meth:`to_payload`."""
        provenance = payload.get("provenance")
        return cls(
            name=str(payload["name"]),
            governor=str(payload["governor"]),
            policy=str(payload["policy"]),
            n_intervals=int(payload["n_intervals"]),
            cells=tuple(
                ComparisonCell(
                    benchmark=str(cell["benchmark"]),
                    metrics=_metrics_tuple(cell["metrics"]),
                )
                for cell in payload["cells"]
            ),
            provenance=(
                Provenance.from_dict(provenance)
                if provenance is not None
                else None
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """The payload as a JSON string."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ComparisonSuiteResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_payload(json.loads(text))
