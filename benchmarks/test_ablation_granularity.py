"""Ablation — sampling-granularity sensitivity (extension).

The paper samples at 100M uops, chosen as 'a safe granularity' after
experimenting with various ones (Section 5.1).  This ablation quantifies
the trade-off on the full machine: finer sampling reacts faster but pays
more handler overhead; much coarser sampling blends distinct phases
inside one interval, blurring classification and costing EDP on variable
workloads.

The workload's intrinsic behaviour is held fixed (segments of 25M uops)
while only the PMI pacing changes, so intervals at coarse granularities
genuinely aggregate several behaviour changes.
"""

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import sweep_granularity
from repro.core.governor import PhasePredictionGovernor
from repro.core.predictors import GPHTPredictor

SEGMENT_UOPS = 25_000_000
N_SEGMENTS = 1200
GRANULARITIES = (25_000_000, 50_000_000, 100_000_000, 400_000_000)


def run_sweep():
    return sweep_granularity(
        "applu_in",
        GRANULARITIES,
        lambda: PhasePredictionGovernor(GPHTPredictor(8, 128)),
        segment_uops=SEGMENT_UOPS,
        n_segments=N_SEGMENTS,
    )


def test_ablation_granularity(benchmark, report):
    result = run_once(benchmark, run_sweep)

    def metric(granularity, name):
        return result.value(granularity, metric=name)

    rows = []
    for granularity in GRANULARITIES:
        rows.append(
            (
                f"{granularity // 1_000_000}M uops",
                result.cell(granularity).metric("n_intervals"),
                round(metric(granularity, "prediction_accuracy") * 100, 1),
                round(metric(granularity, "edp_improvement") * 100, 1),
                round(
                    metric(granularity, "performance_degradation") * 100, 1
                ),
                f"{metric(granularity, 'handler_overhead_fraction'):.5%}",
            )
        )
    report(
        "ablation_granularity",
        format_table(
            [
                "granularity",
                "intervals",
                "online acc %",
                "EDP impr %",
                "perf degr %",
                "handler share",
            ],
            rows,
            title="Ablation: PMI sampling granularity on applu.",
        ),
        parameters={
            "benchmark": "applu_in",
            "segment_uops": SEGMENT_UOPS,
            "n_segments": N_SEGMENTS,
        },
        metrics={
            f"edp_improvement_{granularity // 1_000_000}m": metric(
                granularity, "edp_improvement"
            )
            for granularity in GRANULARITIES
        },
    )

    # All granularities still beat the unmanaged baseline.
    for granularity in GRANULARITIES:
        assert metric(granularity, "edp_improvement") > 0.10, granularity

    # The paper's 100M-uop choice keeps handler overhead invisible.
    assert metric(100_000_000, "handler_overhead_fraction") < 1e-3

    # Finer sampling never pays *more* handler share than coarser
    # sampling per interval count.
    assert metric(25_000_000, "handler_overhead_fraction") > metric(
        400_000_000, "handler_overhead_fraction"
    )

    # Coarse sampling blends phases: its online accuracy can look high
    # (aggregation smooths the series) but it leaves EDP on the table
    # relative to the best granularity for this workload.
    best_edp = max(
        metric(g, "edp_improvement") for g in GRANULARITIES
    )
    assert metric(400_000_000, "edp_improvement") <= best_edp
