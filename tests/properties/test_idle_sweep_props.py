"""Property: the O(1) idle check evicts exactly what a full scan evicts.

``SessionManager.evict_idle`` skips its scan while a lower bound on
every live session's last use is within the idle timeout.  Over any
sequence of ``open``, ``get``, ``close`` and ``evict_idle``, on a clock
whose readings may step backwards, it must evict the ids the full scan
kept here as the reference evicts, in the same order, and leave the
same sessions live.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import OverloadedError, SessionManager

TIMEOUT = 5.0
CEILING = 6

# Whole numbers hit the timeout boundary exactly; fractions do not.
readings = st.one_of(
    st.integers(min_value=-10, max_value=30).map(float),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
steps = st.lists(
    st.tuples(
        st.sampled_from(("open", "get", "close", "evict")),
        readings,
        st.integers(min_value=0, max_value=CEILING - 1),
    ),
    max_size=80,
)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _full_scan(last_used, now):
    """The reference sweep: every session idle past the timeout."""
    expired = [
        session_id
        for session_id, used in last_used.items()
        if now - used > TIMEOUT
    ]
    for session_id in expired:
        del last_used[session_id]
    return expired


@settings(max_examples=300, deadline=None)
@given(steps)
def test_evict_idle_matches_the_full_scan(steps):
    clock = _Clock()
    manager = SessionManager(
        max_sessions=CEILING, idle_timeout_s=TIMEOUT, clock=clock
    )
    last_used = {}  # reference: session id -> last use, in open order
    for op, now, pick in steps:
        clock.now = now
        live = list(last_used)
        if op == "evict":
            assert manager.evict_idle() == _full_scan(last_used, now)
        elif op == "open":
            _full_scan(last_used, now)  # open sweeps before it counts
            if len(last_used) >= CEILING:
                with pytest.raises(OverloadedError):
                    manager.open()
            else:
                last_used[manager.open().session_id] = now
        elif live:
            session_id = live[pick % len(live)]
            if op == "get":
                manager.get(session_id)
                last_used[session_id] = now
            else:
                manager.close(session_id)
                del last_used[session_id]
        assert manager.session_ids() == tuple(last_used)
