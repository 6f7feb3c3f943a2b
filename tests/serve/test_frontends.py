"""Transport frontends: stdio loop and asyncio TCP server."""

import asyncio
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serve import SessionManager, serve_stdio, serve_tcp_async
from repro.serve.frontends import FLUSH_BYTES, relay_lines
from repro.serve.protocol import MAX_LINE_BYTES


def run_stdio(requests, **manager_kwargs):
    manager = SessionManager(**manager_kwargs)
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    stdout = io.StringIO()
    handled = serve_stdio(manager, stdin, stdout)
    responses = [
        json.loads(line) for line in stdout.getvalue().splitlines() if line
    ]
    return handled, responses, manager


class TestStdio:
    def test_full_session_over_stdio(self):
        handled, responses, manager = run_stdio(
            [
                {"op": "hello", "governor": "reactive"},
                {"op": "sample", "session": "s1", "interval": 0, "mem_per_uop": 0.001},
                {"op": "sample", "session": "s1", "interval": 1, "mem_per_uop": 0.001},
                {"op": "bye", "session": "s1"},
            ]
        )
        assert handled == 4
        assert [r["ok"] for r in responses] == [True, True, True, True]
        assert responses[2]["hit"] is True  # constant series: last-value hits
        assert manager.active_sessions == 0

    def test_one_response_line_per_request(self):
        handled, responses, _ = run_stdio(
            [{"op": "stats"}, {"op": "nope"}, {"op": "stats"}]
        )
        assert handled == 3
        assert len(responses) == 3
        assert responses[1]["error"] == "bad_request"

    def test_blank_lines_ignored(self):
        manager = SessionManager()
        stdin = io.StringIO('\n\n{"op":"stats"}\n\n')
        stdout = io.StringIO()
        assert serve_stdio(manager, stdin, stdout) == 1

    def test_command_answers_a_line_that_is_not_utf8(self):
        # A strict stdin decoder would stop the server at the first line.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONIOENCODING"] = "utf-8:strict"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "stdio"],
            input=b'\xff\xfe{"op":"stats"}\n{"op":"hello"}\n',
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        bad, hello = [json.loads(line) for line in done.stdout.splitlines()]
        assert bad["error"] == "bad_request", bad
        assert hello["ok"] is True and hello["session"] == "s1", hello

    def test_errors_do_not_stop_the_loop(self):
        handled, responses, _ = run_stdio(
            [{"op": "sample", "session": "sX", "interval": 0, "mem_per_uop": 1},
             {"op": "hello"}]
        )
        assert handled == 2
        assert responses[0]["error"] == "unknown_session"
        assert responses[1]["ok"] is True


async def _with_server(manager, interact, queue_depth=64):
    """Run the TCP server, call ``interact(reader, writer)``, tear down."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    server = asyncio.ensure_future(
        serve_tcp_async(manager, port=0, queue_depth=queue_depth, ready=ready)
    )
    port = await asyncio.wait_for(ready, timeout=5)
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_LINE_BYTES
    )
    try:
        return await interact(reader, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass


async def _rpc(reader, writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), timeout=5))


class TestTCP:
    def test_full_session_over_tcp(self):
        async def interact(reader, writer):
            response = await _rpc(reader, writer, {"op": "hello"})
            assert response["ok"], response
            session = response["session"]
            for index, value in enumerate([0.001, 0.02, 0.05]):
                response = await _rpc(
                    reader,
                    writer,
                    {
                        "op": "sample",
                        "session": session,
                        "interval": index,
                        "mem_per_uop": value,
                    },
                )
                assert response["ok"], response
            response = await _rpc(reader, writer, {"op": "stats", "session": session})
            assert response["stats"]["samples"] == 3
            return await _rpc(reader, writer, {"op": "bye", "session": session})

        manager = SessionManager()
        response = asyncio.run(_with_server(manager, interact))
        assert response["ok"] is True
        assert manager.active_sessions == 0

    def test_pipelined_requests_answered_in_order(self):
        async def interact(reader, writer):
            # Fire everything without awaiting responses, then read back.
            requests = [{"op": "hello"}] + [
                {
                    "op": "sample",
                    "session": "s1",
                    "interval": index,
                    "mem_per_uop": 0.001,
                }
                for index in range(20)
            ]
            blob = "".join(json.dumps(r) + "\n" for r in requests)
            writer.write(blob.encode())
            await writer.drain()
            responses = []
            for _ in requests:
                responses.append(
                    json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                )
            return responses

        responses = asyncio.run(_with_server(SessionManager(), interact))
        assert responses[0]["session"] == "s1"
        assert [r["interval"] for r in responses[1:]] == list(range(20))

    def test_small_queue_still_serves_a_burst(self):
        # Queue depth 2 with a 40-request burst: backpressure, not loss.
        async def interact(reader, writer):
            requests = [{"op": "stats"} for _ in range(40)]
            writer.write(
                "".join(json.dumps(r) + "\n" for r in requests).encode()
            )
            await writer.drain()
            count = 0
            for _ in requests:
                await asyncio.wait_for(reader.readline(), timeout=5)
                count += 1
            return count

        count = asyncio.run(
            _with_server(SessionManager(), interact, queue_depth=2)
        )
        assert count == 40

    def test_malformed_line_answers_error_and_keeps_connection(self):
        async def interact(reader, writer):
            writer.write(b"this is not json\n")
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
            second = await _rpc(reader, writer, {"op": "hello"})
            return first, second

        first, second = asyncio.run(_with_server(SessionManager(), interact))
        assert first["error"] == "bad_request"
        assert second["ok"] is True


class _Sink:
    """Stand-in stream writer collecting answer lines and each write."""

    def __init__(self):
        self.lines = []
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        self.lines.extend(data.decode().splitlines())

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


class TestLineLimit:
    def test_full_batch_over_tcp_matches_in_process_session(
        self, full_batch
    ):
        samples, expected = full_batch
        request = {
            "op": "sample_batch",
            "session": "s1",
            "start_interval": 0,
            "samples": samples,
        }
        assert len(json.dumps(request)) > 64 * 1024

        async def interact(reader, writer):
            await _rpc(reader, writer, {"op": "hello"})
            return await _rpc(reader, writer, request)

        response = asyncio.run(_with_server(SessionManager(), interact))
        assert response["ok"] is True, response
        assert response["outcomes"] == expected

    def test_over_limit_line_gets_one_error_and_connection_continues(self):
        async def interact(reader, writer):
            filler = b"0.0123456789," * (2 * MAX_LINE_BYTES // 13)
            writer.write(
                b'{"op":"sample_batch","session":"s1","start_interval":0,'
                b'"samples":[' + filler + b"0.1]}\n"
            )
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), 5))
            second = await _rpc(reader, writer, {"op": "hello"})
            return first, second

        first, second = asyncio.run(_with_server(SessionManager(), interact))
        assert first["ok"] is False
        assert first["error"] == "bad_request"
        assert second["ok"] is True, second

    def test_relay_answers_each_over_limit_line_once(self):
        # Both ways a line can overrun the reader: whole in the buffer
        # (newline found past the limit; the three lines are then
        # answered as one burst), or still arriving when the buffer
        # fills (no newline yet).
        limit = 64

        async def relay(chunks):
            reader = asyncio.StreamReader(limit=limit)
            sink = _Sink()

            async def feed():
                for chunk in chunks:
                    reader.feed_data(chunk)
                    await asyncio.sleep(0)
                reader.feed_eof()

            async def answer(line):
                return "answer:" + line

            feeder = asyncio.ensure_future(feed())
            await relay_lines(reader, sink, answer)
            await feeder
            return sink

        long_line = b"x" * (3 * limit)
        whole = asyncio.run(relay([b"a\n" + long_line + b"\nb\n"]))
        split = asyncio.run(
            relay([b"a\n", long_line[:limit * 2], long_line[limit * 2:],
                   b"\nb\n"])
        )
        assert len(whole.writes) == 1
        for lines in (whole.lines, split.lines):
            assert len(lines) == 3, lines
            assert lines[0] == "answer:a"
            assert json.loads(lines[1])["error"] == "bad_request"
            assert lines[2] == "answer:b"


async def _echo(line):
    return "answer:" + line


async def _relay_burst(lines, answer=_echo, eof=False):
    """Relay ``lines``, all in the reader's buffer before the relay starts.

    The reader queues every line before the answering side first runs,
    as it does with a round that a pipelining client sent back to back.
    With ``eof`` the end of stream is in the buffer too; otherwise it
    arrives once every line is answered.  Returns the sink and what
    ``relay_lines`` raised, if anything.
    """
    reader = asyncio.StreamReader()
    reader.feed_data(b"".join(line + b"\n" for line in lines))
    if eof:
        reader.feed_eof()
    sink = _Sink()
    relay = asyncio.ensure_future(relay_lines(reader, sink, answer))
    while not eof and len(sink.lines) < len(lines) and not relay.done():
        await asyncio.sleep(0)
    reader.feed_eof()
    try:
        await relay
    except RuntimeError as error:
        return sink, error
    return sink, None


class TestBurstWrites:
    def test_pipelined_burst_is_answered_with_one_write(self):
        lines = [b"r%d" % index for index in range(32)]
        sink, error = asyncio.run(_relay_burst(lines))
        assert error is None
        assert sink.lines == ["answer:r%d" % index for index in range(32)]
        assert len(sink.writes) == 1

    def test_one_request_in_flight_gets_one_write_per_answer(self):
        async def one_at_a_time():
            reader = asyncio.StreamReader()
            sink = _Sink()
            relay = asyncio.ensure_future(relay_lines(reader, sink, _echo))
            for index in range(3):
                reader.feed_data(b"q%d\n" % index)
                while len(sink.lines) <= index:
                    await asyncio.sleep(0)
            reader.feed_eof()
            await relay
            return sink.writes

        writes = asyncio.run(one_at_a_time())
        assert writes == [b"answer:q0\n", b"answer:q1\n", b"answer:q2\n"]

    def test_answers_past_flush_bytes_split_across_writes(self):
        size = 10_000

        async def padded(line):
            return line.ljust(size, "x")

        lines = [b"r%02d" % index for index in range(20)]
        sink, error = asyncio.run(_relay_burst(lines, answer=padded))
        assert error is None
        assert sink.lines == [line.decode().ljust(size, "x") for line in lines]
        # A write goes out once the pending answers reach FLUSH_BYTES:
        # 7 answers of 10,001 bytes do, 6 do not.
        assert [data.count(b"\n") for data in sink.writes] == [7, 7, 6]
        assert all(len(data) < FLUSH_BYTES + size + 1 for data in sink.writes)

    def test_answers_before_a_raise_are_written(self):
        async def fails_on_boom(line):
            if line == "boom":
                raise RuntimeError("answer failed")
            return "answer:" + line

        lines = [b"a", b"b", b"boom", b"c"]
        sink, error = asyncio.run(_relay_burst(lines, answer=fails_on_boom))
        assert isinstance(error, RuntimeError)
        assert sink.lines == ["answer:a", "answer:b"]

    def test_end_of_stream_inside_a_burst(self):
        lines = [b"a", b"b", b"c"]
        sink, error = asyncio.run(_relay_burst(lines, eof=True))
        assert error is None
        assert sink.lines == ["answer:a", "answer:b", "answer:c"]
