"""Frozen experiment specifications and their content hashes.

An :class:`ExperimentSpec` describes one cell of a sweep completely:
which computation to run (``kind``), on which benchmark, for how many
intervals, with which scalar parameters, on which machine
configuration, and under which seed.  Specs are frozen and hashable so
they can key in-memory result maps, travel across process boundaries,
and address the on-disk cache via :meth:`ExperimentSpec.cache_key` — a
stable SHA-256 over the spec's canonical JSON plus the package version,
so a code upgrade invalidates every cached cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.pmc.interrupt import DEFAULT_PMI_GRANULARITY_UOPS
from repro.system.lkm import DEFAULT_HANDLER_OVERHEAD_S
from repro.system.machine import Machine

#: Version string mixed into every cache key; bumping the package
#: version (or this format tag) invalidates all previously cached cells.
CODE_VERSION = "repro-1.0.0/spec-v2"

#: Scalar value types allowed in spec parameters — everything must be
#: hashable and JSON-stable.
ParamScalar = Union[str, int, float, bool, None]
ParamValue = Union[ParamScalar, Tuple[ParamScalar, ...]]


def _check_param_value(name: str, value: object) -> ParamValue:
    """Validate one parameter value, normalising lists to tuples."""
    if isinstance(value, (list, tuple)):
        items = tuple(value)
        for item in items:
            if not isinstance(item, (str, int, float, bool)) and item is not None:
                raise ConfigurationError(
                    f"spec parameter {name!r} contains a non-scalar "
                    f"element: {item!r}"
                )
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigurationError(
        f"spec parameter {name!r} must be a scalar or tuple of scalars, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class MachineConfig:
    """Hashable description of a simulated platform.

    Only configurations expressible by value can participate in the
    engine; an experiment on a hand-built :class:`Machine` (custom
    timing or power models) calls :meth:`Machine.run` directly.

    Attributes:
        granularity_uops: PMI pacing in retired micro-ops.
        handler_overhead_s: PMI handler cost per invocation in seconds.
    """

    granularity_uops: int = DEFAULT_PMI_GRANULARITY_UOPS
    handler_overhead_s: float = DEFAULT_HANDLER_OVERHEAD_S

    def build(self) -> Machine:
        """Construct the described machine."""
        return Machine(
            granularity_uops=self.granularity_uops,
            handler_overhead_s=self.handler_overhead_s,
        )

    def to_dict(self) -> Dict[str, Union[int, float]]:
        """Plain-dict form used in canonical JSON."""
        return {
            "granularity_uops": self.granularity_uops,
            "handler_overhead_s": self.handler_overhead_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MachineConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            granularity_uops=int(payload["granularity_uops"]),
            handler_overhead_s=float(payload["handler_overhead_s"]),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully described, independently executable sweep cell.

    Attributes:
        kind: Registered cell kind (see :mod:`repro.exec.cells`).
        benchmark: Benchmark name from the SPEC2000 registry.
        n_intervals: Trace/series length in sampling intervals.
        params: Sorted ``(name, value)`` pairs of kind-specific scalar
            parameters.
        machine: Platform configuration.
        seed: Optional RNG seed override (``None`` uses the benchmark's
            deterministic per-name seed).
    """

    kind: str
    benchmark: str
    n_intervals: int
    params: Tuple[Tuple[str, ParamValue], ...] = ()
    machine: MachineConfig = field(default_factory=MachineConfig)
    seed: Optional[int] = None

    @classmethod
    def create(
        cls,
        kind: str,
        benchmark: str,
        n_intervals: int,
        machine: Optional[MachineConfig] = None,
        seed: Optional[int] = None,
        **params: object,
    ) -> "ExperimentSpec":
        """Build a spec, validating and canonically ordering parameters."""
        if n_intervals <= 0:
            raise ConfigurationError(
                f"n_intervals must be > 0, got {n_intervals}"
            )
        normalised = tuple(
            (name, _check_param_value(name, value))
            for name, value in sorted(params.items())
        )
        return cls(
            kind=kind,
            benchmark=benchmark,
            n_intervals=n_intervals,
            params=normalised,
            machine=machine if machine is not None else MachineConfig(),
            seed=seed,
        )

    def param(self, name: str, default: ParamValue = None) -> ParamValue:
        """Look up one parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def with_params(self, **params: object) -> "ExperimentSpec":
        """A copy of this spec with parameters added or replaced."""
        merged: Dict[str, ParamValue] = dict(self.params)
        for name, value in params.items():
            merged[name] = _check_param_value(name, value)
        return ExperimentSpec(
            kind=self.kind,
            benchmark=self.benchmark,
            n_intervals=self.n_intervals,
            params=tuple(sorted(merged.items())),
            machine=self.machine,
            seed=self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (canonical field order)."""
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "n_intervals": self.n_intervals,
            "params": [[name, list(value) if isinstance(value, tuple) else value]
                       for name, value in self.params],
            "machine": self.machine.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        params = tuple(
            (str(name), _check_param_value(str(name), value))
            for name, value in payload.get("params", [])
        )
        seed = payload.get("seed")
        return cls(
            kind=str(payload["kind"]),
            benchmark=str(payload["benchmark"]),
            n_intervals=int(payload["n_intervals"]),
            params=params,
            machine=MachineConfig.from_dict(payload["machine"]),
            seed=int(seed) if seed is not None else None,
        )

    def canonical_json(self) -> str:
        """Deterministic JSON serialisation used for hashing."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def cache_key(self, code_version: str = CODE_VERSION) -> str:
        """Stable content address of this spec under ``code_version``."""
        digest = hashlib.sha256()
        digest.update(code_version.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()

    def label(self) -> str:
        """Short human-readable identifier for progress lines."""
        parts = [f"{name}={value}" for name, value in self.params]
        suffix = f" [{', '.join(parts)}]" if parts else ""
        return f"{self.kind}:{self.benchmark}{suffix}"
