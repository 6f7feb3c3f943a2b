"""Per-layer metrics of a traced run, from span totals.

Every workload reports every metric; a layer the workload does not run
reads 0.0.  ``README.md`` in this directory lists, for each metric, the
end-to-end metric and the workload it should move.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from spans import Totals, per

#: Display names of the Fig 4 predictors, as ``PhasePredictor.name``.
FIG4_PREDICTORS = (
    "LastValue",
    "FixWindow_8",
    "FixWindow_128",
    "VarWindow_128_0.005",
    "VarWindow_128_0.03",
    "GPHT_8_1024",
)

#: Processes whose CPU use is reported, by role.
ROLES = ("client", "server", "worker0", "worker1")

Metrics = Dict[str, Tuple[float, str]]


def layer_metrics(
    totals: Totals,
    *,
    wire_us: float = 0.0,
    hop_us: float = 0.0,
    cpu_busy: Optional[Mapping[str, float]] = None,
    pht_hit_ratio: float = 0.0,
    accuracy: float = 0.0,
    overhead_ratio: float = 0.0,
) -> Metrics:
    """Every per-layer metric from one traced window.

    ``wire_us`` and ``hop_us`` need client timings; ``cpu_busy`` comes
    from the untraced half of the run; the ratios from the program's own
    answers.
    """
    t = totals
    line = "serve.protocol.handle_line"
    requests = t.count(line)
    dispatched = t.count("serve.protocol.handle_request")
    samples = t.work("serve.session.feed", "serve.session.feed_batch")
    predicted = t.count("core.predictors.predict") + t.work("core.predictors.predict_batch")
    busy = dict(cpu_busy or {})
    metrics: Metrics = {
        "wire.us_per_req": (wire_us, "us"),
        "serve.protocol.codec_us_per_req": (per(t.us(line), requests), "us"),
        "serve.protocol.codec_ns_per_sample": (per(t.us(line) * 1e3, samples), "ns"),
        "serve.protocol.dispatch_us_per_req": (
            per(t.us("serve.protocol.handle_request"), dispatched),
            "us",
        ),
        "serve.manager.evict_idle_us_per_req": (
            per(t.us("serve.manager.evict_idle"), dispatched),
            "us",
        ),
        "serve.manager.us_per_req": (
            per(t.us("serve.manager.get", "serve.manager.maybe_checkpoint"), dispatched),
            "us",
        ),
        "serve.session.us_per_sample": (
            per(t.us("serve.session.feed", "serve.session.feed_batch"), samples),
            "us",
        ),
        "core.governor.us_per_decision": (
            per(t.us("core.governor.decide"), t.count("core.governor.decide")),
            "us",
        ),
        "core.phases.us_per_sample": (
            per(
                t.us("core.phases.classify", "core.phases.classify_batch"),
                t.work("core.phases.classify", "core.phases.classify_batch"),
            ),
            "us",
        ),
        "core.predictors.us_per_sample": (
            per(
                t.us("core.predictors.observe", "core.predictors.predict", "core.predictors.predict_batch"),
                predicted,
            ),
            "us",
        ),
        "core.dvfs_policy.us_per_sample": (
            per(
                t.us("core.dvfs_policy.setting_for", "core.dvfs_policy.record_lookups"),
                t.work("core.dvfs_policy.setting_for", "core.dvfs_policy.record_lookups"),
            ),
            "us",
        ),
        "serve.checkpoint.us_per_save": (
            per(
                t.us("serve.checkpoint.snapshot", "serve.checkpoint.save"),
                t.count("serve.checkpoint.save"),
            ),
            "us",
        ),
        "serve.checkpoint.saves": (float(t.count("serve.checkpoint.save")), "count"),
        "serve.shard.hop_us_per_req": (hop_us, "us"),
        "core.predictors.pht_hit_ratio": (pht_hit_ratio, "ratio"),
        "serve.session.accuracy": (accuracy, "ratio"),
        "workloads.us_per_interval": (
            per(
                t.us("workloads.mem_series", "workloads.trace"),
                t.work("workloads.mem_series", "workloads.trace"),
            ),
            "us",
        ),
        "exec.engine.overhead_us_per_cell": (
            per(
                t.total_us("exec.engine.run") - t.total_us("exec.cells.evaluate_cell"),
                t.count("exec.cells.evaluate_cell"),
            ),
            "us",
        ),
        "system.machine.us_per_interval": (
            per(t.us("system.machine.run"), t.work("system.machine.run")),
            "us",
        ),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.unattributed_share": (t.unattributed_share(), "share"),
        "trace.reconcile_error_share": (t.reconcile_error(), "share"),
    }
    for name in FIG4_PREDICTORS:
        key = f"core.predictors.predict_batch[{name}]"
        metrics[f"core.predictors.{name}.us_per_interval"] = (per(t.us(key), t.work(key)), "us")
    for role in ROLES:
        metrics[f"cpu_busy.{role}"] = (busy.get(role, 0.0), "cpu_s/s")
    return metrics
