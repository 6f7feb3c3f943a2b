"""Property: a ``sample_batch`` answer line is the element-wise one.

``handle_line`` checks a column of plain floats once and writes the
answer's rows straight from the session's columns.  This module holds
it, byte for byte, to a reference built from the element-wise pieces:
``_parse_batch_sample`` on every element, ``feed_batch`` on a twin
session, and ``json.dumps`` of a payload carrying ``rows()`` (or of the
error the first bad element raises).  Batches mix every kind of element
a client can send: floats (-0.0, subnormals, finite pairs whose sum
overflows), small and 401-digit ints, bools, null, strings, lists of
one to three numbers, and the non-finite texts ``NaN``, ``Infinity``,
``-Infinity`` and ``1e400``.

Every session governor is covered, and so is a budgeted session whose
scripted latencies move it in and out of degraded mode, so the rows
carry ``degraded`` true and false and ``hit`` null, true and false.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.serve import SESSION_GOVERNORS, SessionManager, handle_line
from repro.serve.protocol import _parse_batch_sample, _ProtocolError

#: Per-sample latencies (s) of the budgeted session: over and under its
#: 1 s budget.
OVER, UNDER = 2.0, 0.5

plain_floats = st.one_of(
    st.floats(min_value=0.0, max_value=0.08),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e308, 0.0123456789012345]),
)
numbers = st.one_of(
    plain_floats,
    st.integers(min_value=-1, max_value=3),
    st.just(10**400),
    st.just(-1.0),
)
elements = st.one_of(
    plain_floats.map(json.dumps),
    numbers.map(json.dumps),
    st.booleans().map(json.dumps),
    st.none().map(json.dumps),
    st.text(max_size=3).map(json.dumps),
    st.lists(numbers, min_size=1, max_size=3).map(json.dumps),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]),
)
# Mostly plain-float columns (the checked-once form, including pairs
# of 1e308 whose sum overflows), the rest mixed element by element.
columns = st.one_of(
    st.lists(plain_floats.map(json.dumps), min_size=1, max_size=40),
    st.lists(st.just("1e308"), min_size=2, max_size=3),
    st.lists(elements, min_size=1, max_size=12),
)

VARIANTS = [{"governor": governor} for governor in SESSION_GOVERNORS] + [
    {"governor": "gpht", "latency_budget_s": 1.0, "cooldown": 2}
]
VARIANT_IDS = list(SESSION_GOVERNORS) + ["gpht_budgeted"]


def open_twin(config, over):
    """A manager with one open session, the session and its id.

    A budgeted session's clock reads its own sample count, so the
    ``i``-th sample of its stream always takes the scripted latency
    ``OVER`` or ``UNDER``, however many other clock reads the request
    path makes.
    """
    fed = []

    def clock():
        if not fed:
            return 0.0
        return sum(
            OVER if over[i % len(over)] else UNDER
            for i in range(fed[0].samples)
        )

    manager = SessionManager(max_sessions=2, clock=clock)
    answer = json.loads(
        handle_line(manager, json.dumps({"op": "hello", **config}))
    )
    assert answer["ok"], answer
    session = manager.get(answer["session"])
    fed.append(session)
    return manager, session, answer["session"]


def reference_line(session, session_id, start, samples):
    """The answer line built from the element-wise pieces."""
    try:
        pairs = [
            _parse_batch_sample(element, index)
            for index, element in enumerate(samples)
        ]
        outcomes = session.feed_batch(start, pairs)
    except _ProtocolError as error:
        payload = {"ok": False, "error": error.code, "message": str(error)}
    except ConfigurationError as error:
        payload = {"ok": False, "error": "bad_request", "message": str(error)}
    else:
        payload = {
            "ok": True,
            "op": "sample_batch",
            "session": session_id,
            "start_interval": start,
            "count": len(outcomes),
            "outcomes": outcomes.rows(),
        }
    return json.dumps(payload, separators=(",", ":"))


@pytest.mark.parametrize("config", VARIANTS, ids=VARIANT_IDS)
@given(
    batches=st.lists(columns, min_size=1, max_size=6),
    over=st.lists(st.booleans(), min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_answer_lines_match_the_element_wise_reference(config, batches, over):
    manager, served, session_id = open_twin(config, over)
    _, twin, _ = open_twin(config, over)
    for texts in batches:
        start = twin.samples
        line = (
            f'{{"op":"sample_batch","session":"{session_id}",'
            f'"start_interval":{start},"samples":[{",".join(texts)}]}}'
        )
        samples = json.loads(line)["samples"]
        assert handle_line(manager, line) == reference_line(
            twin, session_id, start, samples
        )
    assert served.snapshot() == twin.snapshot()
