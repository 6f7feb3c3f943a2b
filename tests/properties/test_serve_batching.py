"""Property: batching is invisible — any partition feeds identically.

Protocol v2's ``sample_batch`` promises that splitting a sample stream
into batches of *any* sizes yields bit-for-bit the outcomes of feeding
the same stream one ``sample`` at a time: identical outcome sequence,
identical hit/miss ledger, identical checkpoint afterwards.  Combined
with the online == offline property (``test_serve_equivalence``), this
closes the chain: batched wire traffic *is* the offline evaluator.

The degradation case is covered with a scripted clock: when a latency
budget is set, the state machine runs per sample inside a batch, so
mid-batch degradation entry/exit also matches single-sample feeding.
A session restored degraded without a clock stays degraded, and its
batches run the columnar kernel's degraded branch; that case is
covered for every session governor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phases import PhaseTable
from repro.serve import SESSION_GOVERNORS, PhaseSession, SessionConfig

TABLE = PhaseTable()

CONFIGS = [
    SessionConfig(governor="gpht", gphr_depth=4, pht_entries=16),
    SessionConfig(governor="reactive"),
    SessionConfig(governor="fixed_window", window_size=4),
]

mem_values = st.one_of(
    st.floats(min_value=0.0, max_value=0.06, allow_nan=False),
    st.sampled_from([edge for edge in TABLE.edges]),
)
mem_series = st.lists(mem_values, min_size=1, max_size=60)

# A partition of n items into contiguous batches: draw cut points.
cut_fractions = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=10
)


def partition(series, fractions):
    """Split ``series`` at the (deduplicated) fractional cut points."""
    cuts = sorted({int(len(series) * f) for f in fractions})
    cuts = [c for c in cuts if 0 < c < len(series)]
    batches, start = [], 0
    for cut in cuts + [len(series)]:
        batches.append(series[start:cut])
        start = cut
    return [batch for batch in batches if batch]


def feed_singly(config, series, clock=None):
    session = PhaseSession(config, clock=clock)
    outcomes = [session.feed(i, value) for i, value in enumerate(series)]
    return outcomes, session


def feed_batched(config, series, fractions, clock=None):
    session = PhaseSession(config, clock=clock)
    outcomes, start = [], 0
    for batch in partition(series, fractions):
        outcomes.extend(
            session.feed_batch(start, [(value, 0.0) for value in batch])
        )
        start += len(batch)
    return outcomes, session


@pytest.mark.parametrize("config", CONFIGS)
@given(series=mem_series, fractions=cut_fractions)
@settings(max_examples=40, deadline=None)
def test_any_partition_feeds_identically(config, series, fractions):
    single_outcomes, single_session = feed_singly(config, series)
    batch_outcomes, batch_session = feed_batched(config, series, fractions)
    assert batch_outcomes == single_outcomes
    assert [o.hit for o in batch_outcomes] == [o.hit for o in single_outcomes]
    assert batch_session.scored == single_session.scored
    assert batch_session.correct == single_session.correct
    assert batch_session.snapshot() == single_session.snapshot()


class ScriptedClock:
    """Returns queued tick values, then repeats the last one."""

    def __init__(self, values):
        self._values = list(values)

    def __call__(self):
        if len(self._values) > 1:
            return self._values.pop(0)
        return self._values[0]


@given(
    series=st.lists(mem_values, min_size=2, max_size=40),
    fractions=cut_fractions,
    latencies=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_partition_invariant_under_degradation(series, fractions, latencies):
    # Per-sample latencies straddling the budget, so degradation can
    # enter and exit anywhere — including mid-batch.
    budget = 1.0
    per_sample = [
        latencies.draw(st.sampled_from([0.1, 5.0]), label=f"latency{i}")
        for i in range(len(series))
    ]
    ticks = []
    t = 0.0
    for latency in per_sample:
        ticks.extend([t, t + latency])
        t += latency + 1.0
    config = SessionConfig(
        governor="gpht", latency_budget_s=budget, cooldown=2
    )
    single_outcomes, single_session = feed_singly(
        config, series, clock=ScriptedClock(list(ticks))
    )
    batch_outcomes, batch_session = feed_batched(
        config, series, fractions, clock=ScriptedClock(list(ticks))
    )
    assert batch_outcomes == single_outcomes
    assert [o.degraded for o in batch_outcomes] == [
        o.degraded for o in single_outcomes
    ]
    assert batch_session.degraded == single_session.degraded
    assert batch_session.degraded_events == single_session.degraded_events
    assert batch_session.snapshot() == single_session.snapshot()


@pytest.mark.parametrize("governor", SESSION_GOVERNORS)
@given(
    warmup=st.lists(mem_values, min_size=1, max_size=20),
    series=mem_series,
    fractions=cut_fractions,
    latencies=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_restored_degraded_session_batches_identically(
    governor, warmup, series, fractions, latencies
):
    # Warm up under a budget with the last sample over it, so the
    # session ends degraded; the pending prediction is degraded-tagged
    # only when an earlier sample had already tipped it over.
    per_sample = [
        latencies.draw(st.sampled_from([0.1, 5.0]), label=f"latency{i}")
        for i in range(len(warmup) - 1)
    ] + [5.0]
    ticks = [
        tick
        for i, latency in enumerate(per_sample)
        for tick in (10.0 * i, 10.0 * i + latency)
    ]
    config = SessionConfig(
        governor=governor, latency_budget_s=1.0, cooldown=2
    )
    _, warm = feed_singly(config, warmup, clock=ScriptedClock(ticks))
    assert warm.degraded
    checkpoint = warm.snapshot()

    single = PhaseSession.from_snapshot(checkpoint)
    start = len(warmup)
    single_outcomes = [
        single.feed(start + i, value) for i, value in enumerate(series)
    ]
    batched = PhaseSession.from_snapshot(checkpoint)
    batch_outcomes = []
    for batch in partition(series, fractions):
        batch_outcomes.extend(
            batched.feed_batch(start, [(value, 0.0) for value in batch])
        )
        start += len(batch)

    assert batch_outcomes == single_outcomes
    assert all(outcome.degraded for outcome in batch_outcomes)
    assert batched.snapshot() == single.snapshot()
    # stats() carries degraded_scored and degraded_correct.
    assert batched.stats() == single.stats()
