"""Figure 12 — EDP improvement and performance degradation with GPHT and
last-value (reactive) management for the Q2, Q3 and Q4 benchmarks.

Runs both governors over the figure's benchmark set and asserts its
message: proactive GPHT management achieves superior EDP improvements on
the variable benchmarks with comparable or less performance degradation,
while the two approaches coincide on the stable Q2 pair.

Both suites run through the :mod:`repro.exec` engine
(:func:`run_comparison_suite` with ``jobs=2``), exercising the parallel
fan-out path from the bench layer.
"""

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_percent, format_table
from repro.system.experiment import run_comparison_suite
from repro.workloads.spec2000 import FIG12_BENCHMARKS, VARIABLE_BENCHMARKS

N_INTERVALS = 300

#: Per-benchmark values recorded in ``details`` for each governor.
DETAIL_METRICS = (
    "edp_improvement",
    "performance_degradation",
    "handler_overhead_fraction",
)


def run_both():
    gpht = run_comparison_suite(
        FIG12_BENCHMARKS,
        governor="gpht",
        n_intervals=N_INTERVALS,
        jobs=2,
    )
    reactive = run_comparison_suite(
        FIG12_BENCHMARKS,
        governor="reactive",
        n_intervals=N_INTERVALS,
        jobs=2,
    )
    return gpht, reactive


def test_fig12_gpht_vs_reactive(benchmark, report):
    gpht, reactive = run_once(benchmark, run_both)

    rows = []
    for name in FIG12_BENCHMARKS:
        g = gpht.cell(name)
        r = reactive.cell(name)
        rows.append(
            (
                name,
                format_percent(r.edp_improvement),
                format_percent(g.edp_improvement),
                format_percent(r.performance_degradation),
                format_percent(g.performance_degradation),
            )
        )
    report(
        "fig12_gpht_vs_reactive",
        format_table(
            [
                "benchmark",
                "EDP impr (LastValue)",
                "EDP impr (GPHT)",
                "perf degr (LastValue)",
                "perf degr (GPHT)",
            ],
            rows,
            title=(
                "Figure 12. EDP improvement and performance degradation: "
                "GPHT vs last-value reactive management."
            ),
        ),
        parameters={
            "n_intervals": N_INTERVALS,
            "n_benchmarks": len(FIG12_BENCHMARKS),
        },
        metrics={
            "gpht_mean_edp_improvement": gpht.mean("edp_improvement"),
            "reactive_mean_edp_improvement": reactive.mean(
                "edp_improvement"
            ),
            "gpht_mean_degradation": gpht.mean("performance_degradation"),
            "reactive_mean_degradation": reactive.mean(
                "performance_degradation"
            ),
        },
        details={
            governor: {
                name: {key: suite.value(name, key) for key in DETAIL_METRICS}
                for name in FIG12_BENCHMARKS
            }
            for governor, suite in (("gpht", gpht), ("reactive", reactive))
        },
    )

    # (a) Variable benchmarks: GPHT-based proactive management achieves
    # superior EDP improvements.
    for name in VARIABLE_BENCHMARKS:
        assert (
            gpht.value(name, "edp_improvement")
            > reactive.value(name, "edp_improvement")
        ), name

    # swim: 'virtually no variability — both approaches achieve almost
    # identical results.'
    swim_gap = abs(
        gpht.value("swim_in", "edp_improvement")
        - reactive.value("swim_in", "edp_improvement")
    )
    assert swim_gap < 0.02

    # mcf: small variability — GPHT achieves slightly better EDP and no
    # more degradation.
    assert (
        gpht.value("mcf_inp", "edp_improvement")
        >= reactive.value("mcf_inp", "edp_improvement") - 0.005
    )

    # Q2 pair shows the largest improvements of the figure (60-70%).
    for name in ("swim_in", "mcf_inp"):
        assert gpht.value(name, "edp_improvement") > 0.5, name

    # Averages: GPHT strictly better EDP than reactive, with comparable
    # performance degradation (paper: 27% vs 20% EDP, 5% vs 6% degr).
    assert gpht.mean("edp_improvement") > reactive.mean("edp_improvement") + 0.01
    assert (
        gpht.mean("performance_degradation")
        < reactive.mean("performance_degradation") + 0.02
    )
