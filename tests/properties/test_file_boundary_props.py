"""Property: a trace file changed in one field is refused or read back
exactly, and every command that reads an outside file fails on a bad
one with one ``error:`` line and exit status 2.

Recorded counter traces are training and replay input (``repro learn
train --trace``, ``repro serve replay``), so they are outside input like
a wire request.  This module takes one event of every registered type,
the recorded ones from a ``repro trace record`` stream, and changes one
field at a time: replaced by a value from the session boundary's
:data:`POOL`, deleted, or given an unknown sibling.  ``events_from_jsonl``
must raise ``ConfigurationError`` or return events whose every field has
its declared type and which round-trip through ``events_to_jsonl``.
"""

import copy
import dataclasses
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.events import EVENT_TYPES
from repro.obs.export import events_from_jsonl, events_to_jsonl
from repro.workloads import benchmark, trace_from_json, trace_to_dict
from tests.properties.test_session_boundary_props import DELETE, POOL, UNKNOWN

#: A stand-in value of each declared field type, for event types a
#: recorded stream does not carry.
_STAND_IN = {"int": 3, "float": 0.5, "bool": True, "str": "x"}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    assert main(["trace", "record", "applu_in", "--intervals", "24",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def bases(recorded):
    """One event payload of every registered type, by type."""
    found = {}
    for line in recorded.read_text(encoding="utf-8").splitlines():
        payload = json.loads(line)
        found.setdefault(payload["event"], payload)
    for kind, cls in EVENT_TYPES.items():
        if kind not in found:
            found[kind] = {"event": kind}
            for field in dataclasses.fields(cls):
                found[kind][field.name] = _STAND_IN[field.type]
    return found


def _held(line):
    """Read one changed line; an accepted event must be well typed and
    round-trip."""
    try:
        events = events_from_jsonl(line)
    except ConfigurationError:
        return False
    for event in events:
        for field in dataclasses.fields(event):
            assert type(getattr(event, field.name)).__name__ == field.type, (
                line,
                event,
            )
    assert events_from_jsonl(events_to_jsonl(events)) == events
    return True


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_event_changed_in_one_field(bases, kind):
    base = bases[kind]
    assert _held(json.dumps(base))
    changes = [(key, value) for key in base for value in POOL + (DELETE,)]
    changes += [(UNKNOWN, value) for value in POOL]
    for key, value in changes:
        payload = copy.deepcopy(base)
        if value is DELETE:
            del payload[key]
        else:
            payload[key] = value
        accepted = _held(json.dumps(payload))
        if key == UNKNOWN or value is DELETE:
            assert not accepted, payload


BAD_EVENT = {
    "event": "interval_sampled",
    "interval": "x",
    "time_s": 0.05,
    "uops": 100000000,
    "mem_transactions": 1,
    "instructions": 1,
    "tsc_cycles": 1,
    "mem_per_uop": "bad",
    "upc": 1.0,
    "frequency_mhz": 1500.0,
}

#: Bad trace files: a mistyped field, and bytes that are not UTF-8.
BAD_TRACES = {
    "mistyped": (json.dumps(BAD_EVENT) + "\n").encode(),
    "not_utf8": b"\xff\xfe" + (json.dumps(BAD_EVENT) + "\n").encode(),
}


def _one_error_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", sorted(BAD_TRACES))
@pytest.mark.parametrize(
    "command",
    [
        ["trace", "summarize"],
        ["serve", "replay"],
        ["learn", "train", "--model", "tree", "--trace"],
    ],
    ids=["summarize", "replay", "train"],
)
def test_a_bad_trace_exits_2(capsys, tmp_path, name, command):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(BAD_TRACES[name])
    argv = command + [str(path)]
    if command[0] == "learn":
        argv += ["--out", str(tmp_path / "model.json")]
    _one_error_line(capsys, argv)


def test_learn_eval_exits_2_on_a_non_utf8_artifact(capsys, tmp_path, recorded):
    artifact = tmp_path / "model.json"
    artifact.write_bytes(b"\xff\xfe{}")
    _one_error_line(
        capsys, ["learn", "eval", str(artifact), "--trace", str(recorded)]
    )


#: One bad segment row each: not a list, a string, a null, NaN, a bool,
#: and a fractional µop count.
BAD_ROWS = {
    "not_a_list": lambda row: 5,
    "string_uops": lambda row: ["x"] + row[1:],
    "null": lambda row: row[:1] + [None] + row[2:],
    "nan": lambda row: row[:1] + [float("nan")] + row[2:],
    "bool": lambda row: row[:2] + [True] + row[3:],
    "fractional_uops": lambda row: [1.5] + row[1:],
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_trace_from_json_rejects_a_bad_row(name):
    document = trace_to_dict(benchmark("applu_in").trace(n_intervals=8))
    document["segments"][0] = BAD_ROWS[name](document["segments"][0])
    with pytest.raises(ConfigurationError):
        trace_from_json(json.dumps(document))
