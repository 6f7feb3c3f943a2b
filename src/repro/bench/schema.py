"""Versioned benchmark result artifacts (`BenchResult`).

Every benchmark under ``benchmarks/`` persists its measurement as one
JSON artifact in this schema, next to its human-readable text
rendering.  The schema splits a result into two halves with different
comparison contracts:

* the **comparable payload** — ``name``, schema ``version`` and the
  :data:`EXACT_BLOCKS` ``parameters``, ``metrics`` and ``details`` — is
  fully deterministic: re-running the same bench on any host must
  reproduce it byte-for-byte.  The regression gate
  (:mod:`repro.bench.compare`) requires each exact block to equal its
  baseline, and the validator rejects wall-clock-looking keys in
  ``parameters`` and ``metrics``;
* the **measured** block holds wall-clock-derived numbers (throughput,
  speedups, latencies).  They vary across hosts, so the gate only
  enforces them in opt-in hard mode (``REPRO_BENCH_ENFORCE=1``).

``host`` records where the artifact was produced and is never
compared.  Only current-schema artifacts are read: anything else fails
:func:`validate_payload` with :class:`BenchFormatError`.
"""

from __future__ import annotations

import json
import math
import os
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import ReproError
from repro.exec.spec import CODE_VERSION

#: Discriminator stored in every artifact's ``schema`` field.
SCHEMA_NAME = "repro.bench.result"

#: Current schema version; bumped on incompatible layout changes.
SCHEMA_VERSION = 1

#: Scalar types allowed as parameter values.
ParamValue = Union[str, int, float, bool, None]

#: Numeric types allowed as metric values (bools are rejected).
MetricValue = Union[int, float]

#: Key fragments that betray wall-clock state in the comparable
#: payload; the validator rejects them outright.
FORBIDDEN_KEY_FRAGMENTS = ("timestamp", "datetime", "walltime", "wall_clock")

#: The blocks a re-run must reproduce exactly: ``repro bench compare``
#: marks an artifact ``drifted`` on any difference in them.
EXACT_BLOCKS = ("parameters", "metrics", "details")


class BenchFormatError(ReproError):
    """A benchmark artifact does not conform to the result schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchFormatError(message)


@dataclass(frozen=True)
class HostProvenance:
    """Where an artifact was produced — informational, never compared.

    Attributes:
        platform: ``platform.platform()`` of the producing host.
        python_version: Interpreter version string.
        cpu_count: Logical CPUs (0 when unknown).
        code_version: Package/spec version stamp
            (:data:`repro.exec.spec.CODE_VERSION`).
    """

    platform: str
    python_version: str
    cpu_count: int
    code_version: str = CODE_VERSION

    @classmethod
    def collect(cls) -> "HostProvenance":
        """Provenance of the current process."""
        return cls(
            platform=platform.platform(),
            python_version=platform.python_version(),
            cpu_count=os.cpu_count() or 0,
        )

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-ready plain-dict form."""
        return {
            "platform": self.platform,
            "python_version": self.python_version,
            "cpu_count": self.cpu_count,
            "code_version": self.code_version,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HostProvenance":
        """Inverse of :meth:`to_dict`."""
        _require(
            isinstance(payload, Mapping), "host provenance must be a mapping"
        )
        for key in ("platform", "python_version", "code_version"):
            _require(
                isinstance(payload.get(key), str),
                f"host.{key} must be a string",
            )
        cpu_count = payload.get("cpu_count")
        _require(
            isinstance(cpu_count, int)
            and not isinstance(cpu_count, bool)
            and cpu_count >= 0,
            "host.cpu_count must be a non-negative integer",
        )
        return cls(
            platform=str(payload["platform"]),
            python_version=str(payload["python_version"]),
            cpu_count=int(payload["cpu_count"]),
            code_version=str(payload["code_version"]),
        )


def _check_comparable_key(context: str, key: object) -> str:
    _require(
        isinstance(key, str) and bool(key),
        f"{context} keys must be non-empty strings, got {key!r}",
    )
    lowered = str(key).lower()
    for fragment in FORBIDDEN_KEY_FRAGMENTS:
        _require(
            fragment not in lowered,
            f"{context} key {key!r} looks like wall-clock state "
            f"({fragment!r}); timestamps are banned from the comparable "
            "payload",
        )
    return str(key)


def _check_metric_value(context: str, key: str, value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BenchFormatError(
            f"{context}[{key!r}] must be a number, got "
            f"{type(value).__name__}"
        )
    number = float(value)
    _require(
        math.isfinite(number),
        f"{context}[{key!r}] must be finite, got {value!r}",
    )
    return number


def _check_param_value(key: str, value: object) -> ParamValue:
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise BenchFormatError(
            f"parameters[{key!r}] must be a JSON scalar, got "
            f"{type(value).__name__}"
        )
    if isinstance(value, float):
        _require(
            math.isfinite(value),
            f"parameters[{key!r}] must be finite, got {value!r}",
        )
    return value


@dataclass(frozen=True)
class BenchResult:
    """One benchmark measurement in the versioned artifact schema.

    Attributes:
        name: Artifact name (the ``results/<name>.json`` stem).
        version: Schema version the artifact was written under.
        parameters: Bench configuration; compared exactly.
        metrics: Deterministic result scalars; compared exactly.
        measured: Wall-clock-derived scalars — gated only under
            ``REPRO_BENCH_ENFORCE=1``.
        details: Free-form deterministic JSON context (grids, per-cell
            tables); compared exactly.
        host: Producing-host provenance; never compared.
    """

    name: str
    version: int = SCHEMA_VERSION
    parameters: Mapping[str, ParamValue] = field(default_factory=dict)
    metrics: Mapping[str, MetricValue] = field(default_factory=dict)
    measured: Mapping[str, MetricValue] = field(default_factory=dict)
    details: Any = None
    host: HostProvenance = field(default_factory=HostProvenance.collect)

    @classmethod
    def create(
        cls,
        name: str,
        *,
        metrics: Optional[Mapping[str, MetricValue]] = None,
        measured: Optional[Mapping[str, MetricValue]] = None,
        parameters: Optional[Mapping[str, ParamValue]] = None,
        details: Any = None,
        host: Optional[HostProvenance] = None,
    ) -> "BenchResult":
        """Build and validate a result for the current host."""
        result = cls(
            name=name,
            version=SCHEMA_VERSION,
            parameters=dict(parameters or {}),
            metrics=dict(metrics or {}),
            measured=dict(measured or {}),
            details=details,
            host=host if host is not None else HostProvenance.collect(),
        )
        validate_payload(result.to_payload())
        return result

    def comparable_payload(self) -> Dict[str, Any]:
        """The deterministic half: identity plus the :data:`EXACT_BLOCKS`."""
        payload = self.to_payload()
        return {
            key: payload[key]
            for key in ("schema", "version", "name", *EXACT_BLOCKS)
        }

    def comparable_json(self) -> str:
        """Canonical JSON bytes of :meth:`comparable_payload`.

        Two runs of the same bench must produce identical strings here —
        this is the determinism contract ``tests/bench`` pins.
        """
        return json.dumps(
            self.comparable_payload(),
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_payload(self) -> Dict[str, Any]:
        """Full JSON-ready artifact payload."""
        return {
            "schema": SCHEMA_NAME,
            "version": self.version,
            "name": self.name,
            "parameters": dict(self.parameters),
            "metrics": dict(self.metrics),
            "measured": dict(self.measured),
            "details": self.details,
            "host": self.host.to_dict(),
        }

    def to_json(self) -> str:
        """Pretty artifact serialisation (what lands on disk)."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "BenchResult":
        """Parse and validate an artifact payload (lossless inverse)."""
        validate_payload(payload)
        return cls(
            name=str(payload["name"]),
            version=int(payload["version"]),
            parameters=dict(payload.get("parameters", {})),
            metrics={
                key: value
                for key, value in payload.get("metrics", {}).items()
            },
            measured={
                key: value
                for key, value in payload.get("measured", {}).items()
            },
            details=payload.get("details"),
            host=HostProvenance.from_dict(payload["host"]),
        )


def validate_payload(payload: Mapping[str, Any]) -> None:
    """Reject anything that is not a well-formed current-schema artifact.

    Raises :class:`BenchFormatError` with a message naming the first
    offending field.
    """
    _require(
        isinstance(payload, Mapping), "artifact payload must be a mapping"
    )
    _require(
        payload.get("schema") == SCHEMA_NAME,
        f"artifact schema must be {SCHEMA_NAME!r}, got "
        f"{payload.get('schema')!r}",
    )
    version = payload.get("version")
    _require(
        isinstance(version, int)
        and not isinstance(version, bool)
        and version == SCHEMA_VERSION,
        f"artifact version must be {SCHEMA_VERSION}, got {version!r}",
    )
    name = payload.get("name")
    _require(
        isinstance(name, str) and bool(name),
        f"artifact name must be a non-empty string, got {name!r}",
    )
    parameters = payload.get("parameters", {})
    _require(isinstance(parameters, Mapping), "parameters must be a mapping")
    for key, value in parameters.items():
        _check_param_value(_check_comparable_key("parameters", key), value)
    metrics = payload.get("metrics", {})
    _require(isinstance(metrics, Mapping), "metrics must be a mapping")
    for key, value in metrics.items():
        _check_metric_value(
            "metrics", _check_comparable_key("metrics", key), value
        )
    measured = payload.get("measured", {})
    _require(isinstance(measured, Mapping), "measured must be a mapping")
    for key, value in measured.items():
        _require(
            isinstance(key, str) and bool(key),
            f"measured keys must be non-empty strings, got {key!r}",
        )
        _check_metric_value("measured", str(key), value)
    _require("host" in payload, "artifact is missing host provenance")
    HostProvenance.from_dict(payload["host"])
