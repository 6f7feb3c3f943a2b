"""The host's CPU speed, probed between the slices of a timed window.

On a shared host, neighbours slow the CPU itself: on the 2-vCPU Xeon VM
this benchmark was sized on, a plain Python loop ran anywhere between
9000 and 17300 iterations per second from one 0.1 s slice to the next,
with no steal time, and a slow stretch can last a whole run or many
minutes.  No choice of slices within one run removes that, so every
timed figure is scaled to a fixed reference speed instead:

- The timed window is cut into slices.  Before the first slice and
  after each one the load pauses and :func:`probe` times a fixed
  pure-Python loop on the CPUs the program runs on.
- A slice's scale is the mean of the probes before and after it over
  :data:`REFERENCE_SPEED` (:func:`factor`); its times are multiplied by
  that scale.

The probe is code of the benchmark, not of the program, so a change to
the program moves the scaled figures as it moves the raw ones, while a
change of host speed moves the probe too and cancels out.  Every run
also prints its raw figures and the scales it saw.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Probe loops per second taken as the reference speed: about what the
#: probe runs at on a quiet 2-vCPU Xeon VM.
REFERENCE_SPEED = 4500.0
#: Timed loops per CPU and probe (about 9 ms at the reference speed).
PROBE_LOOPS = 40

_COMPACT = (",", ":")
_MESSAGE = b"x" * 64


class _Affine:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def step(self, value: int) -> int:
        return self.scale * value + self.offset


def _loop(channel: Tuple[socket.socket, socket.socket]) -> float:
    """One probe loop, a mix of what a request costs in roughly equal
    parts: JSON round trips, method calls and branches, string
    formatting and parsing, and small socket writes and reads."""
    table: Dict[object, float] = {}
    for index in range(12):
        text = json.dumps(
            {"op": "sample", "session": "s1", "interval": index, "mem_per_uop": index * 0.37},
            separators=_COMPACT,
        )
        answer = json.loads(text)
        table[answer["interval"] & 7] = answer["mem_per_uop"]
    affine = _Affine(3, 1)
    count = 0
    for index in range(400):
        count = (count + affine.step(index)) & 0xFFFF
        if count % 3 == 0:
            count += 1
    for index in range(60):
        key, value = f"session-{index}:{index * 0.37:.4f}".split(":")
        table[key] = table.get(key, 0.0) + float(value)
    writer, reader = channel
    for _ in range(3):
        writer.send(_MESSAGE)
        reader.recv(len(_MESSAGE))
    return sum(table.values()) + count


def allowed_cpus() -> List[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpus: Iterable[int]) -> Iterator[None]:
    """Run this process on ``cpus`` for the duration of the block."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def probe(cpus: Optional[Iterable[int]] = None) -> float:
    """Probe loops per second, the mean over ``cpus`` (default: allowed).

    The calling process runs the loop pinned to each CPU in turn and
    returns to its own CPUs afterwards.
    """
    home = os.sched_getaffinity(0)
    speeds = []
    writer, reader = socket.socketpair()
    try:
        for cpu in sorted(home if cpus is None else cpus):
            os.sched_setaffinity(0, {cpu})
            _loop((writer, reader))  # lands on the CPU and warms up
            started = time.perf_counter_ns()
            for _ in range(PROBE_LOOPS):
                _loop((writer, reader))
            speeds.append(PROBE_LOOPS / ((time.perf_counter_ns() - started) / 1e9))
    finally:
        os.sched_setaffinity(0, home)
        writer.close()
        reader.close()
    return sum(speeds) / len(speeds)


def factor(before: float, after: float) -> float:
    """Scale of the times taken between two probes: their speed / reference."""
    return (before + after) / 2.0 / REFERENCE_SPEED
