"""Workload trace serialisation.

Traces are seeded and reproducible inside this package, but sharing an
exact workload with a colleague — or archiving the trace behind a
published number — calls for a portable representation.  This module
round-trips :class:`~repro.workloads.segments.WorkloadTrace` through a
compact JSON document with a versioned schema.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.numerics import as_float, as_int, as_list, decode_object, shown
from repro.workloads.segments import SegmentSpec, WorkloadTrace

#: Schema version written into every document.
SCHEMA_VERSION = 1

#: Per-segment field order in the compact rows.
_FIELDS = (
    "uops",
    "mem_per_uop",
    "upc_core",
    "uops_per_instruction",
    "mem_overlap",
)


def trace_to_dict(trace: WorkloadTrace) -> Dict[str, Any]:
    """Represent a trace as a JSON-ready dictionary.

    Segments are stored as compact positional rows (see ``_FIELDS``) to
    keep hundred-interval traces readable and small.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "name": trace.name,
        "fields": list(_FIELDS),
        "segments": [
            [
                segment.uops,
                segment.mem_per_uop,
                segment.upc_core,
                segment.uops_per_instruction,
                segment.mem_overlap,
            ]
            for segment in trace
        ],
    }


def trace_from_dict(document: Dict[str, Any]) -> WorkloadTrace:
    """Rebuild a trace from :func:`trace_to_dict`'s representation.

    Raises:
        ConfigurationError: On schema mismatches or malformed rows.
    """
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported trace schema version {shown(version)} "
            f"(expected {SCHEMA_VERSION})"
        )
    fields = document.get("fields")
    if fields != list(_FIELDS):
        raise ConfigurationError(
            f"unexpected field layout {shown(fields)}; expected "
            f"{list(_FIELDS)}"
        )
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"invalid trace name {shown(name)}")
    rows = document.get("segments")
    if not isinstance(rows, list) or not rows:
        raise ConfigurationError("trace document has no segments")
    segments = []
    for index, row in enumerate(rows):
        label = f"segment {index}"
        uops, mem, upc, upi, overlap = as_list(
            row, f"{label} fields", len(_FIELDS)
        )
        segments.append(
            SegmentSpec(
                uops=as_int(uops, f"{label} uops", minimum=1),
                mem_per_uop=as_float(mem, f"{label} mem_per_uop"),
                upc_core=as_float(upc, f"{label} upc_core"),
                uops_per_instruction=as_float(
                    upi, f"{label} uops_per_instruction"
                ),
                mem_overlap=as_float(overlap, f"{label} mem_overlap"),
            )
        )
    return WorkloadTrace(name, segments)


def trace_to_json(trace: WorkloadTrace) -> str:
    """Serialise a trace to a JSON string."""
    return json.dumps(trace_to_dict(trace))


def trace_from_json(text: str) -> WorkloadTrace:
    """Parse a trace from :func:`trace_to_json` output.

    Raises:
        ConfigurationError: If the text is not valid JSON or does not
            match the schema.
    """
    return trace_from_dict(decode_object(text, "trace JSON"))
