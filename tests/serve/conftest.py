"""Fixtures shared by the serving tests."""

import json
from random import Random

import pytest

from repro.serve import MAX_BATCH_SAMPLES, PhaseSession


@pytest.fixture(scope="session")
def full_batch():
    """A ``MAX_BATCH_SAMPLES`` batch and the rows it must answer.

    The samples are ``[mem_per_uop, upc]`` pairs of full-precision
    floats, so the request line and its answer are both longer than
    asyncio's default 64 KiB stream limit.  The rows are what an
    in-process session answers, as they cross the wire.
    """
    rng = Random(7)
    samples = [
        [rng.random() * 0.07, rng.random() * 2.0]
        for _ in range(MAX_BATCH_SAMPLES)
    ]
    outcomes = PhaseSession().feed_batch(0, [tuple(pair) for pair in samples])
    return samples, json.loads(json.dumps(outcomes.rows()))
