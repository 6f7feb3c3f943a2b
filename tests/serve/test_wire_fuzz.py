"""Hostile request lines on all three transports: stdio, TCP and the
sharded router.

Each line is sent between two ``hello`` requests on one connection.
Every answer must be strict JSON (no ``NaN`` or ``Infinity`` constants)
and, when it fails, carry a code from ``ERROR_CODES``; the ``hello``
after the hostile line must open a session.  Through the router, a
``hello`` on a new connection must be placed as well: a worker that
choked on a line used to be marked dead, so every later ``hello``
answered ``worker_unavailable``.  Error messages repeat the offending
value cut to a bounded excerpt, so an answer stays short however long
the value it names.
"""

import asyncio
import io
import json

import pytest

from repro.serve import SessionManager, ShardedServer, serve_stdio, serve_tcp_async
from repro.serve.protocol import ERROR_CODES, MAX_BATCH_SAMPLES, MAX_LINE_BYTES

NESTED = "[" * 2000 + "]" * 2000


def _sample(mem_per_uop, session="s1", interval="0"):
    return (
        '{"op":"sample","session":"%s","interval":%s,"mem_per_uop":%s}'
        % (session, interval, mem_per_uop)
    ).encode()


def _batch(count):
    return json.dumps(
        {
            "op": "sample_batch",
            "session": "s1",
            "start_interval": 0,
            "samples": [0.01] * count,
        }
    ).encode()


#: Hostile lines by name (raw bytes: some are not UTF-8).
HOSTILE = {
    "nested": NESTED.encode(),
    "nested_mem_per_uop": _sample(NESTED),
    "bad_utf8_line": b"\xff\xfe\x80{",
    "bad_utf8_value": b'{"op":"hello","governor":"\xff\xfe"}',
    "bare_nan": b"NaN",
    "nan": _sample("NaN"),
    "infinity": _sample("Infinity"),
    "minus_infinity": _sample("-Infinity"),
    "int_2_70_interval": _sample("0.01", interval=str(2**70)),
    "int_2_70_mem_per_uop": _sample(str(2**70)),
    "batch_0": _batch(0),
    "batch_1": _batch(1),
    "batch_max": _batch(MAX_BATCH_SAMPLES),
    "batch_over_max": _batch(MAX_BATCH_SAMPLES + 1),
    "over_line_limit": b'{"op":"stats","pad":"'
    + b"x" * MAX_LINE_BYTES
    + b'"}',
}

HELLO = b'{"op":"hello"}'


def _no_constant(name):
    raise AssertionError(f"answer carries the non-JSON constant {name}")


def check_answers(answers):
    """The hello, hostile and hello answers of one connection."""
    first, hostile, last = [
        json.loads(answer, parse_constant=_no_constant) for answer in answers
    ]
    assert first["ok"] is True, first
    assert hostile["ok"] is True or hostile["error"] in ERROR_CODES, hostile
    assert last["ok"] is True, last
    return hostile


def stdio_answers(lines):
    """Answers of ``serve_stdio`` over ``lines``, read as ``repro serve
    stdio`` reads them."""
    stdin = io.TextIOWrapper(
        io.BytesIO(b"".join(line + b"\n" for line in lines)),
        encoding="utf-8",
        errors="replace",
    )
    stdout = io.StringIO()
    serve_stdio(SessionManager(), stdin, stdout)
    return stdout.getvalue().splitlines()


async def exchange(port, lines):
    """Send ``lines`` on one new connection, one answer at a time."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=4 * MAX_LINE_BYTES
    )
    answers = []
    try:
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=30)
            answers.append(raw.decode("utf-8"))
    finally:
        writer.close()
        await writer.wait_closed()
    return answers


async def tcp_answers(cases):
    """Each case's answers from one TCP frontend, a connection a case."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    server = asyncio.ensure_future(
        serve_tcp_async(SessionManager(), port=0, ready=ready)
    )
    try:
        port = await asyncio.wait_for(ready, timeout=5)
        return [await exchange(port, lines) for lines in cases]
    finally:
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass


@pytest.fixture(scope="module")
def router():
    server = ShardedServer(workers=1, max_sessions=256)
    port = server.start()
    try:
        yield port
    finally:
        server.stop()


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_stdio_answers_and_serves_on(name):
    check_answers(stdio_answers([HELLO, HOSTILE[name], HELLO]))


def test_tcp_answers_and_serves_on():
    names = sorted(HOSTILE)
    cases = [[HELLO, HOSTILE[name], HELLO] for name in names]
    for name, answers in zip(names, asyncio.run(tcp_answers(cases))):
        check_answers(answers)


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_router_answers_and_keeps_its_worker(router, name):
    check_answers(asyncio.run(exchange(router, [HELLO, HOSTILE[name], HELLO])))
    (placed,) = asyncio.run(exchange(router, [HELLO]))
    assert json.loads(placed)["ok"] is True, placed


def test_nested_lines_answer_bad_request():
    for name in ("nested", "nested_mem_per_uop"):
        hostile = check_answers(stdio_answers([HELLO, HOSTILE[name], HELLO]))
        assert hostile["error"] == "bad_request", hostile


LONG = "\\" * 2000

#: Requests whose error message names a client-chosen value.
ECHOING = [
    {"op": "sample", "session": LONG, "interval": 0, "mem_per_uop": 0.01},
    {"op": "bye", "session": LONG},
    {"op": LONG},
    {"op": "hello", "protocol": LONG},
    {"op": "hello", "governor": LONG},
    {"op": "hello", "policy": LONG},
    {"op": "hello", LONG: 1},
    {"op": "hello", "gphr_depth": LONG},
    {"op": "sample", "session": "s1", "interval": 0, "mem_per_uop": LONG},
    {
        "op": "sample_batch",
        "session": "s1",
        "start_interval": 0,
        "samples": [0.01, LONG],
    },
    {"op": "restore", "session": LONG, "checkpoint": {}},
    {"op": "restore", "checkpoint": LONG},
]


@pytest.mark.parametrize("request_", ECHOING, ids=range(len(ECHOING)))
def test_echoed_values_are_capped(request_):
    line = json.dumps(request_).encode()
    answers = stdio_answers([HELLO, line, HELLO])
    hostile = check_answers(answers)
    assert hostile["ok"] is False, hostile
    assert len(answers[1]) < 512, answers[1]


def test_router_answers_a_long_unknown_session_in_kind(router):
    # 200,000 backslashes: the request is under MAX_LINE_BYTES, but an
    # answer repeating the id through repr was over it, so the router
    # answered ``internal`` instead of ``unknown_session``.
    line = _sample("0.01", session="\\\\" * 200_000)
    assert len(line) < MAX_LINE_BYTES
    migrate = json.dumps({"op": "migrate", "session": "s1", LONG: 1})
    answers = asyncio.run(exchange(router, [HELLO, line, migrate.encode(), HELLO]))
    unknown, bad = [json.loads(answer) for answer in answers[1:3]]
    assert unknown["error"] == "unknown_session", answers[1][:200]
    assert len(answers[1]) < 512
    assert bad["error"] == "bad_request" and len(answers[2]) < 512, bad
    assert json.loads(answers[3])["ok"] is True
