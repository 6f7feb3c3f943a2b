"""Scale-out serving — batched wire protocol across sharded topologies.

Measures wire samples/sec over the full TCP path (loadgen -> router ->
worker) on a workers x batch grid, and certifies that every cell serves
**bit-for-bit** the outcomes an in-process :class:`PhaseSession` emits
for the same workload: the scale-out machinery is pure plumbing, never a
different predictor.

Two claims, machine-checked:

* equivalence — the loadgen outcome digest is identical across every
  topology/batch combination AND equal to the digest computed from a
  plain in-process session (no wire, no sharding);
* throughput — batching + sharding lifts wire samples/sec by >= 3x over
  naive single-sample wire serving measured the same way in the same
  run.  (On a single-core host the lift comes almost entirely from
  batch amortization of the per-request protocol cost; worker processes
  add parallel headroom only when cores exist to back them.)  The
  artifact splits the lift into its two gains: ``speedup_batching``
  (1 worker at the largest batch over 1 worker at batch 1) and
  ``speedup_workers_w2``/``_w4`` (N workers over 1 at the largest
  batch); read both with the artifact's ``host.cpu_count``.

Results land in ``benchmarks/results/serve_scaleout.json`` — the
machine-readable record, including the in-process single-sample baseline
(the PR 4 reference measurement) for context.  Every rate, per grid cell
(``w2_b16_samples_per_s``) and overall, and the >= 3x scale-out claim
are in the artifact's ``measured`` block, gated by ``repro bench
compare`` only under ``REPRO_BENCH_ENFORCE=1``.  The grid in
``details`` holds only what every run reproduces (sample and request
counts, outcome digests), so compare checks it exactly; the digest
equivalence stays unconditional.
"""

import hashlib
import json
import os
import time

from repro.bench import check_perf, require_positive_elapsed
from repro.serve import (
    PhaseSession,
    SessionConfig,
    SessionManager,
    ShardedServer,
    generate_series,
    handle_line,
    run_loadgen,
)

WORKER_COUNTS = (1, 2, 4)
BATCH_SIZES = (1, 16, 64, 4096)

#: Workload for the throughput cells (per cell).
SESSIONS = 8
SAMPLES_PER_SESSION = 4096
CONNECTIONS = 4

#: Smaller workload for the (fully verified) equivalence cells.
VERIFY_SAMPLES_PER_SESSION = 256

#: The scale-out claim: best batched+sharded cell vs the single-sample
#: wire cell measured identically in this run.
MIN_SPEEDUP = 3.0


def _expected_digest(sessions, samples_per_session, seed=0):
    """The loadgen digest, recomputed from in-process sessions only."""
    combined = hashlib.sha256()
    for session_index in range(sessions):
        series = generate_series(samples_per_session, seed + session_index)
        session = PhaseSession(SessionConfig(governor="gpht"))
        digest = hashlib.sha256()
        for index, value in enumerate(series):
            outcome = session.feed(index, value)
            hit = outcome.hit
            row = (
                f"{outcome.interval}:{outcome.actual_phase}:"
                f"{outcome.predicted_phase}:{outcome.frequency_mhz}:"
                f"{int(outcome.degraded)}:"
                f"{'-' if hit is None else int(hit)}"
            )
            digest.update(row.encode("utf-8"))
            digest.update(b"\n")
        combined.update(digest.hexdigest().encode("ascii"))
        combined.update(b"\n")
    return combined.hexdigest()


def _inprocess_baseline(n_samples=4096):
    """PR 4 reference: single-sample handle_line with no wire at all."""
    series = generate_series(n_samples, seed=0)
    manager = SessionManager()
    handle_line(manager, json.dumps({"op": "hello"}))
    lines = [
        json.dumps(
            {
                "op": "sample",
                "session": "s1",
                "interval": index,
                "mem_per_uop": value,
            }
        )
        for index, value in enumerate(series)
    ]
    started = time.monotonic()
    for line in lines:
        handle_line(manager, line)
    elapsed = require_positive_elapsed(
        time.monotonic() - started, "in-process baseline"
    )
    return n_samples / elapsed


def test_serve_scaleout_grid(report):
    expected = _expected_digest(SESSIONS, VERIFY_SAMPLES_PER_SESSION)
    inprocess_baseline = _inprocess_baseline()

    cells = []
    rates = {}
    for workers in WORKER_COUNTS:
        server = ShardedServer(workers=workers, max_sessions=64)
        port = server.start()
        try:
            for batch in BATCH_SIZES:
                verified = run_loadgen(
                    "127.0.0.1",
                    port,
                    sessions=SESSIONS,
                    samples_per_session=VERIFY_SAMPLES_PER_SESSION,
                    batch_size=batch,
                    connections=CONNECTIONS,
                )
                assert verified.errors == 0, (workers, batch)
                assert verified.outcome_digest == expected, (
                    f"workers={workers} batch={batch} served different "
                    "outcomes than an in-process session"
                )
                timed = run_loadgen(
                    "127.0.0.1",
                    port,
                    sessions=SESSIONS,
                    samples_per_session=SAMPLES_PER_SESSION,
                    batch_size=batch,
                    connections=CONNECTIONS,
                    verify=False,
                )
                assert timed.errors == 0, (workers, batch)
                require_positive_elapsed(
                    timed.elapsed_s,
                    f"loadgen workers={workers} batch={batch}",
                )
                rates[workers, batch] = timed.samples_per_s
                cells.append(
                    {
                        "workers": workers,
                        "batch": batch,
                        "samples": timed.samples,
                        "requests": timed.requests,
                        "outcome_digest": verified.outcome_digest,
                    }
                )
        finally:
            server.stop()

    wire_baseline = rates[1, 1]
    largest = max(BATCH_SIZES)
    best = rates[max(WORKER_COUNTS), largest]
    speedup = best / wire_baseline
    # The overall speedup, split into its two gains: batching on one
    # worker, then workers at the largest batch.
    speedup_batching = rates[1, largest] / wire_baseline
    speedup_workers = {
        workers: rates[workers, largest] / rates[1, largest]
        for workers in WORKER_COUNTS
        if workers > 1
    }

    lines = [
        "Serving layer. Scale-out wire throughput (samples/sec):",
        "workers  " + "  ".join(f"batch={b:<4}" for b in BATCH_SIZES),
    ]
    for workers in WORKER_COUNTS:
        lines.append(
            f"{workers:<7}  "
            + "  ".join(f"{rates[workers, b]:>9,.0f}" for b in BATCH_SIZES)
        )
    lines.append(
        f"speedup workers={max(WORKER_COUNTS)},batch={largest} "
        f"vs workers=1,batch=1: {speedup:.1f}x "
        f"(in-process single-sample reference: "
        f"{inprocess_baseline:,.0f}/s, cpus={os.cpu_count()})"
    )
    lines.append(
        f"batching gain, workers=1,batch={largest} vs batch=1: "
        f"{speedup_batching:.1f}x; worker gain at batch={largest} vs "
        "workers=1: "
        + ", ".join(
            f"workers={workers} {gain:.2f}x"
            for workers, gain in speedup_workers.items()
        )
    )
    report(
        "serve_scaleout",
        "\n".join(lines),
        parameters={
            "sessions": SESSIONS,
            "samples_per_session": SAMPLES_PER_SESSION,
            "connections": CONNECTIONS,
            "min_required_speedup": MIN_SPEEDUP,
            "outcome_digest": expected,
        },
        measured={
            "wire_baseline_samples_per_s": wire_baseline,
            "inprocess_baseline_samples_per_s": inprocess_baseline,
            "best_samples_per_s": best,
            "speedup_vs_wire_baseline": speedup,
            "speedup_batching": speedup_batching,
            **{
                f"speedup_workers_w{workers}": gain
                for workers, gain in speedup_workers.items()
            },
            **{
                f"w{workers}_b{batch}_samples_per_s": rate
                for (workers, batch), rate in rates.items()
            },
        },
        details={"grid": cells},
    )

    # Every topology/batch served identical outcomes (asserted per cell
    # above), so the speedup is a like-for-like comparison.
    check_perf(
        speedup >= MIN_SPEEDUP,
        f"workers={max(WORKER_COUNTS)}, batch={largest} reached "
        f"{best:,.0f} samples/s — only {speedup:.2f}x the single-sample "
        f"wire baseline ({wire_baseline:,.0f}/s); need >= {MIN_SPEEDUP}x",
    )
