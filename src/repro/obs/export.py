"""Lossless trace export: JSONL and CSV, plus text summaries.

JSONL is the primary interchange format — one ``event.to_dict()`` object
per line, round-tripping exactly through :func:`events_from_jsonl`
because every event field is a JSON scalar.  CSV flattens the stream
into the union of all field columns (``event`` first, then sorted),
leaving cells blank where an event type lacks a field.

``summary_text`` renders the :func:`repro.obs.metrics.trace_metrics`
registry as the repo's standard text tables.  The table helper lives in
``repro.analysis.reporting``, whose package ``__init__`` eagerly imports
the predictor stack — importing it at module scope from here would close
an import cycle (``core.predictors`` -> ``repro.obs`` -> ``analysis`` ->
``core.predictors``), so it is imported inside the function instead.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Sequence, Tuple, Union

from repro.numerics import decode_object, read_text_file
from repro.obs.events import TraceEvent, event_from_dict
from repro.obs.metrics import trace_metrics


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events as JSON Lines (trailing newline when non-empty)."""
    lines = [
        json.dumps(event.to_dict(), sort_keys=False, separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> Tuple[TraceEvent, ...]:
    """Parse a JSONL trace back into typed events (exact round trip).

    Raises:
        ConfigurationError: On a line that is not one JSON object or
            not a well-typed event (see :func:`event_from_dict`).
    """
    return tuple(
        event_from_dict(decode_object(line, f"trace line {lineno}"))
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    )


def load_trace(path: Union[str, Path]) -> Tuple[TraceEvent, ...]:
    """Read a JSONL trace file into typed events.

    Raises:
        ConfigurationError: When the file cannot be read, is not UTF-8
            or is malformed.
    """
    return events_from_jsonl(read_text_file(path, "trace file"))


def trace_columns(events: Sequence[TraceEvent]) -> Tuple[str, ...]:
    """CSV header: ``event``, ``interval``, then the sorted field union."""
    names = set()
    for event in events:
        names.update(event.to_dict())
    names.discard("event")
    names.discard("interval")
    return ("event", "interval") + tuple(sorted(names))


def events_to_csv(events: Sequence[TraceEvent]) -> str:
    """Flatten events into CSV over the union of columns (lossless)."""
    columns = trace_columns(events)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), restval="")
    writer.writeheader()
    for event in events:
        writer.writerow(event.to_dict())
    return buffer.getvalue()


def summary_payload(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """The trace's derived metrics as a JSON-ready mapping.

    Mirrors :func:`summary_text`'s split — ``event_counts`` holds the
    per-type tallies, ``metrics`` the remaining derived instruments —
    but carries the registry's typed snapshot (counters as ints,
    gauges/histograms as their ``to_dict`` entries) instead of the
    rendered table strings.
    """
    registry = trace_metrics(events)
    event_counts: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    for name, entry in registry.to_dict().items():
        if name.startswith("events."):
            event_counts[name.split(".", 1)[1]] = int(float(entry["value"]))
        else:
            metrics[name] = entry
    return {
        "events": len(events),
        "event_counts": event_counts,
        "metrics": metrics,
    }


def summary_text(events: Sequence[TraceEvent]) -> str:
    """Render the trace's derived metrics as text tables."""
    # Imported lazily: repro.analysis's package __init__ pulls in the
    # predictor stack, which itself imports repro.obs (cycle otherwise).
    from repro.analysis.reporting import format_table

    registry = trace_metrics(events)
    counts = [
        (name.split(".", 1)[1], value)
        for name, value in registry.rows()
        if name.startswith("events.")
    ]
    other = [row for row in registry.rows() if not row[0].startswith("events.")]
    sections = [
        format_table(
            ("event type", "count"),
            [(kind, count) for kind, count in counts],
            title=f"Trace summary ({len(events)} events)",
        )
    ]
    if other:
        sections.append(
            format_table(("metric", "value"), other, title="Derived metrics")
        )
    return "\n\n".join(sections)
