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
  baseline, and the validator rejects wall-clock-looking keys anywhere
  in them (``details`` at every depth);
* the **measured** block holds wall-clock-derived numbers (throughput,
  speedups, latencies).  They vary across hosts, so the gate only
  enforces them in opt-in hard mode (``REPRO_BENCH_ENFORCE=1``).

``host`` records where the artifact was produced and is never
compared.  Only current-schema artifacts are read: anything else fails
:func:`validate_payload` with :class:`BenchFormatError`.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import ConfigurationError, ReproError
from repro.exec.spec import CODE_VERSION
from repro.numerics import as_dict, as_float, as_int, as_str, shown

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
FORBIDDEN_KEY_FRAGMENTS = (
    "timestamp",
    "datetime",
    "walltime",
    "wall_clock",
    "elapsed",
)

#: Key suffix of a rate (``samples_per_s``).  A suffix, not a fragment:
#: ``samples_per_session`` is a count.
FORBIDDEN_KEY_SUFFIX = "_per_s"

#: The blocks a re-run must reproduce exactly: ``repro bench compare``
#: marks an artifact ``drifted`` on any difference in them.
EXACT_BLOCKS = ("parameters", "metrics", "details")


class BenchFormatError(ReproError):
    """A benchmark artifact does not conform to the result schema."""


def _non_empty(value: object, label: str) -> str:
    text = as_str(value, label)
    if not text:
        raise ConfigurationError(f"{label} must be a non-empty string")
    return text


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
    def from_dict(cls, payload: object) -> "HostProvenance":
        """Inverse of :meth:`to_dict`.

        Raises:
            ConfigurationError: On a field of the wrong type.
        """
        host = as_dict(payload, "host")
        return cls(
            platform=as_str(host.get("platform"), "host.platform"),
            python_version=as_str(
                host.get("python_version"), "host.python_version"
            ),
            cpu_count=as_int(
                host.get("cpu_count"), "host.cpu_count", minimum=0
            ),
            code_version=as_str(host.get("code_version"), "host.code_version"),
        )


def _check_comparable_key(context: str, key: object) -> str:
    name = _non_empty(key, f"{context} key")
    lowered = name.lower()
    for fragment in FORBIDDEN_KEY_FRAGMENTS:
        if fragment in lowered:
            raise ConfigurationError(
                f"{context} key {shown(name)} looks like wall-clock state "
                f"({fragment!r}); timestamps are banned from the comparable "
                "payload"
            )
    if lowered.endswith(FORBIDDEN_KEY_SUFFIX):
        raise ConfigurationError(
            f"{context} key {shown(name)} looks like a rate "
            f"({FORBIDDEN_KEY_SUFFIX!r}); timings belong in 'measured'"
        )
    return name


def _check_details_keys(context: str, value: object) -> None:
    """Apply the comparable-key rule to every key nested in ``value``."""
    if isinstance(value, Mapping):
        for key, item in value.items():
            _check_details_keys(
                f"{context}.{_check_comparable_key(context, key)}", item
            )
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_details_keys(f"{context}[{index}]", item)


def _check_param_value(key: str, value: object) -> None:
    label = f"parameters[{shown(key)}]"
    if isinstance(value, float):
        as_float(value, label)
    elif value is not None and not isinstance(value, (str, int, bool)):
        raise ConfigurationError(
            f"{label} must be a JSON scalar, got {shown(value)}"
        )


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
    try:
        artifact = as_dict(payload, "artifact payload")
        schema = artifact.get("schema")
        if schema != SCHEMA_NAME:
            raise ConfigurationError(
                f"artifact schema must be {SCHEMA_NAME!r}, got {shown(schema)}"
            )
        version = as_int(artifact.get("version"), "artifact version")
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"artifact version must be {SCHEMA_VERSION}, got "
                f"{shown(version)}"
            )
        _non_empty(artifact.get("name"), "artifact name")
        parameters = as_dict(artifact.get("parameters", {}), "parameters")
        for key, value in parameters.items():
            _check_param_value(_check_comparable_key("parameters", key), value)
        metrics = as_dict(artifact.get("metrics", {}), "metrics")
        for key, value in metrics.items():
            name = _check_comparable_key("metrics", key)
            as_float(value, f"metrics[{shown(name)}]")
        measured = as_dict(artifact.get("measured", {}), "measured")
        for key, value in measured.items():
            name = _non_empty(key, "measured key")
            as_float(value, f"measured[{shown(name)}]")
        _check_details_keys("details", artifact.get("details"))
        if "host" not in artifact:
            raise ConfigurationError("artifact is missing host provenance")
        HostProvenance.from_dict(artifact["host"])
    except (ConfigurationError, RecursionError) as error:
        # RecursionError: _check_details_keys descends once per level.
        raise BenchFormatError(str(error)) from None
