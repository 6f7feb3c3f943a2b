"""Replay recorded traces through a live session (offline/online bridge).

``repro serve replay`` drives a recorded ``repro.obs`` JSONL trace —
specifically its ``interval_sampled`` events — through a fresh
:class:`~repro.serve.session.PhaseSession` and checks, bit for bit, that
the online service reproduces the offline
:func:`repro.analysis.accuracy.evaluate_predictor` hit/miss sequence on
the same ``Mem/Uop`` series.  This is the serving layer's ground truth:
if the two ever diverge, the service is not running the paper's
predictor.

Optionally the replay snapshots the session mid-stream, round-trips the
checkpoint through JSON and restores into a *new* session before
continuing — proving checkpoints are lossless on real traces, not just
generated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.accuracy import evaluate_predictor
from repro.errors import ConfigurationError
from repro.obs.events import IntervalSampled, PhaseClassified, TraceEvent
from repro.obs.export import load_trace as load_trace  # re-exported
from repro.serve.checkpoint import checkpoint_from_json, checkpoint_to_json
from repro.serve.session import PhaseSession, SessionConfig


@dataclass(frozen=True)
class ReplaySample:
    """One counter sample lifted from a recorded trace.

    ``trace_interval`` is the interval index as recorded; sessions are
    fed by *position* (0-based, contiguous), so the two differ when a
    trace starts mid-run.
    """

    trace_interval: int
    mem_per_uop: float
    upc: float


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one trace through one session configuration.

    Attributes:
        samples: Number of counter samples replayed.
        governor: Session governor kind.
        policy: DVFS policy name.
        snapshot_at: Sample index after which the session was
            checkpointed and restored (``None`` = straight replay).
        online_predictions: Scored predictions the session emitted.
        offline_predictions: Scored predictions from
            ``evaluate_predictor`` on the same series.
        actuals: Actual phases both sequences are scored against.
        mismatch_index: First scored index where online and offline
            disagree; ``None`` when they match bit-for-bit.
        trace_phases_match: Whether the session's classified phases
            reproduce the ``phase_classified`` events recorded in the
            trace; ``None`` when the trace carries none (or a different
            count, e.g. it was recorded with another governor).
    """

    samples: int
    governor: str
    policy: str
    snapshot_at: Optional[int]
    online_predictions: Tuple[int, ...]
    offline_predictions: Tuple[int, ...]
    actuals: Tuple[int, ...]
    mismatch_index: Optional[int]
    trace_phases_match: Optional[bool]

    @property
    def matches_offline(self) -> bool:
        """True when online == offline, prediction for prediction."""
        return self.mismatch_index is None

    @property
    def accuracy(self) -> float:
        """Prediction accuracy over the replayed trace."""
        if not self.online_predictions:
            return 1.0
        correct = sum(
            p == a for p, a in zip(self.online_predictions, self.actuals)
        )
        return correct / len(self.online_predictions)

    def to_payload(self) -> Dict[str, object]:
        """JSON-able report (``repro serve replay --format json``)."""
        return {
            "samples": self.samples,
            "governor": self.governor,
            "policy": self.policy,
            "snapshot_at": self.snapshot_at,
            "scored": len(self.online_predictions),
            "accuracy": self.accuracy,
            "matches_offline": self.matches_offline,
            "mismatch_index": self.mismatch_index,
            "trace_phases_match": self.trace_phases_match,
        }


def extract_samples(events: Sequence[TraceEvent]) -> Tuple[ReplaySample, ...]:
    """Lift the ``interval_sampled`` events out of a trace, in order.

    Raises:
        ConfigurationError: When the trace has no counter samples.
    """
    samples = tuple(
        ReplaySample(
            trace_interval=event.interval,
            mem_per_uop=event.mem_per_uop,
            upc=event.upc,
        )
        for event in events
        if isinstance(event, IntervalSampled)
    )
    if not samples:
        raise ConfigurationError(
            "trace contains no interval_sampled events — nothing to replay "
            "(record one with 'repro engine run --trace-out ...')"
        )
    return samples


def replay_trace(
    events: Sequence[TraceEvent],
    config: Optional[SessionConfig] = None,
    snapshot_at: Optional[int] = None,
    predictor_state: Optional[Dict[str, object]] = None,
) -> ReplayReport:
    """Drive a recorded trace through a session and verify equivalence.

    The session is fed every ``interval_sampled`` event by position.
    With ``snapshot_at = k`` the session is checkpointed after sample
    ``k``, serialized to JSON and back, restored into a brand-new
    session, and the remaining samples continue there — the report then
    also certifies that the checkpoint changed nothing.

    ``predictor_state`` pre-loads a trained model (a
    :class:`repro.learn.ModelArtifact` ``state`` payload, or any
    ``export_state`` snapshot with a clean online stratum) into *both*
    the live session's predictor and the offline reference before the
    first sample — this is how ``repro serve replay --model`` certifies
    that a trained artifact behaves bit-identically online and offline.

    Raises:
        ConfigurationError: On an empty trace, an out-of-range
            ``snapshot_at``, or a ``predictor_state`` that does not fit
            the configured governor.
    """
    cfg = config if config is not None else SessionConfig()
    samples = extract_samples(events)
    if snapshot_at is not None and not 1 <= snapshot_at < len(samples):
        raise ConfigurationError(
            f"snapshot_at must be in [1, {len(samples) - 1}] for this trace, "
            f"got {snapshot_at}"
        )

    session = PhaseSession(cfg)
    if predictor_state is not None:
        session.predictor.restore_state(predictor_state)
    online_predictions: List[int] = []
    actuals: List[int] = []
    pending: Optional[int] = None
    for position, sample in enumerate(samples):
        outcome = session.feed(position, sample.mem_per_uop, sample.upc)
        if pending is not None:
            online_predictions.append(pending)
            actuals.append(outcome.actual_phase)
        pending = outcome.predicted_phase
        if snapshot_at is not None and position + 1 == snapshot_at:
            checkpoint = checkpoint_from_json(
                checkpoint_to_json(session.snapshot())
            )
            session = PhaseSession.from_snapshot(checkpoint)

    reference = cfg.build_predictor()
    if predictor_state is not None:
        # evaluate_predictor resets the reference first; reset() keeps
        # the trained stratum and clears only online history, so the
        # restored model scores from the same state the session started
        # in.
        reference.restore_state(predictor_state)
    offline = evaluate_predictor(
        reference,
        [sample.mem_per_uop for sample in samples],
        session.phase_table,
    )

    mismatch_index: Optional[int] = None
    for index, (online, reference) in enumerate(
        zip(online_predictions, offline.predictions)
    ):
        if online != reference:
            mismatch_index = index
            break
    if mismatch_index is None and len(online_predictions) != len(
        offline.predictions
    ):
        mismatch_index = min(len(online_predictions), len(offline.predictions))

    return ReplayReport(
        samples=len(samples),
        governor=cfg.governor,
        policy=cfg.policy,
        snapshot_at=snapshot_at,
        online_predictions=tuple(online_predictions),
        offline_predictions=offline.predictions,
        actuals=tuple(actuals),
        mismatch_index=mismatch_index,
        trace_phases_match=_check_trace_phases(events, samples, actuals),
    )


def _check_trace_phases(
    events: Sequence[TraceEvent],
    samples: Sequence[ReplaySample],
    actuals: Sequence[int],
) -> Optional[bool]:
    """Cross-check classified phases against the trace's own record.

    The recorded ``phase_classified`` events carry what the *original*
    run classified; when the trace holds exactly one per sample, the
    replayed session must agree on every one after the first (the first
    sample has no scored slot, so ``actuals`` starts at sample 1).
    Returns ``None`` when the trace carries a different shape — e.g. it
    was recorded without a governor, or with several.
    """
    recorded = [
        event.phase for event in events if isinstance(event, PhaseClassified)
    ]
    if len(recorded) != len(samples):
        return None
    return recorded[1:] == list(actuals)
