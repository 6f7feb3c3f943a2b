"""Property: a ``hello`` or ``restore`` changed in one field answers
``ok`` or ``bad_request``, and an accepted session serves and
round-trips.

A session is built from payloads the server cannot trust: the ``hello``
config, and the ``restore`` checkpoint with the predictor or model state
inside it.  This module starts from valid checkpoints: a snapshot of
every session governor after a random series, trained ``learned_tree``
(history 4) and ``markov`` (order 3) models, and a budgeted ``gpht``
session caught while degraded.  It changes one field at a time: a dict
key, or a list item at the first, middle and last position, is replaced
by a value from :data:`POOL` or deleted, or a dict gains an unknown key.
Each changed checkpoint goes through ``handle_line`` as a ``restore``
on a fresh server.  The answer must be strict JSON, and ``ok`` or
``bad_request``.  An accepted session must then answer ``sample_batch``,
``sample``, ``predict``, ``snapshot`` and ``stats``, and its ``snapshot``
must restore on another fresh server into an equal one.  ``hello`` is
held to the same for every config field, each value of the pool, under
every governor.
"""

import copy
import itertools
import json
import math
from dataclasses import fields
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.learn import (
    phase_dataset_from_series,
    train_markov,
    train_phase_tree,
)
from repro.serve import (
    SESSION_GOVERNORS,
    PhaseSession,
    SessionConfig,
    SessionManager,
    handle_line,
)

#: Replacement values: edge scalars of each JSON type, integers past a
#: machine word and past a float's mantissa, the largest float, the
#: non-finite numbers (``json.dumps`` writes them raw as ``NaN`` and
#: ``Infinity``) and small containers.
POOL = (
    None,
    True,
    False,
    -1,
    0,
    1,
    7,
    2**63,
    2**70,
    -(2**70),
    1.5,
    1e308,
    math.nan,
    math.inf,
    "x",
    [],
    {},
    [1],
    [[1, 2]],
)

#: A change that deletes the field instead of replacing it.
DELETE = "<delete>"

#: The key a change adds beside the existing ones.
UNKNOWN = "unknown_field"

#: Every config field a ``hello`` may carry, and an unknown one.
HELLO_FIELDS = [field.name for field in fields(SessionConfig)] + [UNKNOWN]

_rng = Random(11)
#: The series every base session is fed before its snapshot.
SERIES = [_rng.random() * 0.07 for _ in range(96)]
#: What an accepted session is fed: a batch, then one sample.
LIVE = [0.001, 0.02, 0.045, 0.011, 0.06, 0.03]


def _snapshot(config, state=None, clock=None):
    session = PhaseSession(config, clock=clock)
    if state is not None:
        session.predictor.restore_state(state)
    session.feed_batch(0, [(mem, 0.0) for mem in SERIES])
    return session.snapshot()


def _bases():
    """The valid checkpoints every change starts from, by name."""
    bases = {
        governor: _snapshot(SessionConfig(governor=governor))
        for governor in SESSION_GOVERNORS
    }
    tree_state = train_phase_tree(
        phase_dataset_from_series(SERIES, history_length=4)
    )[1].state
    bases["learned_tree_trained"] = _snapshot(
        SessionConfig(governor="learned_tree", history_length=4), tree_state
    )
    markov_state = train_markov(
        phase_dataset_from_series(SERIES, history_length=3), order=3
    )[1].state
    bases["markov_trained"] = _snapshot(
        SessionConfig(governor="markov", markov_order=3), markov_state
    )
    # Every sample takes 2 s against a 1 s budget.
    ticks = itertools.count(0.0, 2.0)
    bases["gpht_degraded"] = _snapshot(
        SessionConfig(latency_budget_s=1.0), clock=lambda: next(ticks)
    )
    return bases


BASES = _bases()


def _paths(node, path=()):
    """The path of every dict key under ``node``, and of the first,
    middle and last item of every list, each before its children."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list) and node:
        keys = sorted({0, len(node) // 2, len(node) - 1})
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def changes(checkpoint):
    """Every one-field change of ``checkpoint``, as ``(path, value)``:
    ``value`` replaces the item at ``path``, or deletes it when it is
    :data:`DELETE`."""
    found = [((UNKNOWN,), 1)]
    for path in _paths(checkpoint):
        found.extend((path, value) for value in POOL + (DELETE,))
        if isinstance(_at(checkpoint, path), dict):
            found.append((path + (UNKNOWN,), 1))
    return found


def changed(checkpoint, path, value):
    """A copy of ``checkpoint`` with one change applied."""
    payload = copy.deepcopy(checkpoint)
    parent = _at(payload, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


#: Every changed ``restore``, as ``(base name, path, value)``.
RESTORES = [
    (name, path, value)
    for name, checkpoint in BASES.items()
    for path, value in changes(checkpoint)
]


def _no_constant(name):
    raise AssertionError(f"answer carries the non-JSON constant {name}")


def ask(manager, request):
    """One request line through ``handle_line``; the answer must be
    strict JSON."""
    line = handle_line(manager, json.dumps(request))
    return json.loads(line, parse_constant=_no_constant)


def check_boundary(request):
    """Send a ``hello`` or ``restore`` to a fresh server, hold the
    answer to the boundary contract, and return it."""
    manager = SessionManager()
    answer = ask(manager, request)
    if not answer["ok"]:
        assert answer["error"] == "bad_request", (request, answer)
        return answer
    session = answer["session"]
    start = answer.get("samples", 0)
    batch = ask(
        manager,
        {
            "op": "sample_batch",
            "session": session,
            "start_interval": start,
            "samples": LIVE,
        },
    )
    assert batch["ok"] and batch["count"] == len(LIVE), (request, batch)
    sample = ask(
        manager,
        {
            "op": "sample",
            "session": session,
            "interval": start + len(LIVE),
            "mem_per_uop": 0.02,
        },
    )
    assert sample["ok"], (request, sample)
    for op in ("predict", "stats"):
        response = ask(manager, {"op": op, "session": session})
        assert response["ok"], (request, response)
    snapshot = ask(manager, {"op": "snapshot", "session": session})
    assert snapshot["ok"], (request, snapshot)
    twin = SessionManager()
    restored = ask(
        twin, {"op": "restore", "checkpoint": snapshot["checkpoint"]}
    )
    assert restored["ok"], (request, restored)
    again = ask(twin, {"op": "snapshot", "session": restored["session"]})
    assert again["checkpoint"] == snapshot["checkpoint"], request
    return answer


def test_the_bases_restore_and_round_trip():
    assert BASES["gpht_degraded"]["degraded"] is True
    assert BASES["gpht_degraded"]["degraded_scored"] > 0
    for name, checkpoint in BASES.items():
        answer = check_boundary({"op": "restore", "checkpoint": checkpoint})
        assert answer["ok"], (name, answer)


@pytest.mark.parametrize(
    "field", ["version", "config", "predictor", "samples", "scored", "correct"]
)
def test_deleting_a_required_field_is_bad_request(field):
    for checkpoint in BASES.values():
        answer = check_boundary(
            {"op": "restore", "checkpoint": changed(checkpoint, (field,), DELETE)}
        )
        assert answer["error"] == "bad_request", answer


@given(change=st.sampled_from(RESTORES))
@example(change=("fixed_window", ("config", "window_size"), 2**63))
@example(change=("fixed_window", ("config", "window_size"), 2**70))
@settings(max_examples=200, deadline=None)
def test_restore_changed_in_one_field(change):
    name, path, value = change
    check_boundary(
        {"op": "restore", "checkpoint": changed(BASES[name], path, value)}
    )


@pytest.mark.parametrize("field", HELLO_FIELDS)
@pytest.mark.parametrize("governor", SESSION_GOVERNORS)
def test_hello_changed_in_one_field(governor, field):
    for value in POOL:
        check_boundary({"op": "hello", "governor": governor, field: value})
