"""Figure 4 — phase prediction accuracies for all experimented
prediction techniques across the 33 SPEC2000 benchmark/input pairs.

Regenerates the full predictor-by-benchmark accuracy matrix: last value,
fixed windows (8, 128), variable windows (128 entries, thresholds 0.005
and 0.030) and the GPHT (depth 8, 1024 entries), and asserts the
figure's structure.
"""

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import sweep_predictors
from repro.workloads.spec2000 import FIG4_BENCHMARK_ORDER, VARIABLE_BENCHMARKS

N_INTERVALS = 1000

COLUMNS = [
    "LastValue",
    "FixWindow_8",
    "FixWindow_128",
    "VarWindow_128_0.005",
    "VarWindow_128_0.03",
    "GPHT_8_1024",
]


def run_matrix():
    return sweep_predictors(FIG4_BENCHMARK_ORDER, COLUMNS, N_INTERVALS)


def test_fig04_prediction_accuracy(benchmark, report):
    accuracy = run_once(benchmark, run_matrix).to_dict()

    rows = [
        [name] + [round(accuracy[name][column] * 100, 1) for column in COLUMNS]
        for name in FIG4_BENCHMARK_ORDER
    ]
    metrics = {
        f"{column}_mean_accuracy": sum(
            accuracy[name][column] for name in FIG4_BENCHMARK_ORDER
        )
        / len(FIG4_BENCHMARK_ORDER)
        for column in COLUMNS
    }
    metrics["applu_gpht_accuracy"] = accuracy["applu_in"]["GPHT_8_1024"]
    metrics["applu_last_value_accuracy"] = accuracy["applu_in"]["LastValue"]
    # Q3+Q4: how many times fewer mispredictions GPHT makes than the
    # best statistical predictor, as the mean of per-benchmark ratios.
    metrics["variable_misprediction_reduction"] = sum(
        (1 - max(accuracy[name][c] for c in COLUMNS if c != "GPHT_8_1024"))
        / (1 - accuracy[name]["GPHT_8_1024"])
        for name in VARIABLE_BENCHMARKS
    ) / len(VARIABLE_BENCHMARKS)
    report(
        "fig04_prediction_accuracy",
        format_table(
            ["benchmark"] + COLUMNS,
            rows,
            title=(
                "Figure 4. Phase prediction accuracies (%) for "
                "experimented prediction techniques."
            ),
        ),
        parameters={
            "n_intervals": N_INTERVALS,
            "n_benchmarks": len(FIG4_BENCHMARK_ORDER),
        },
        metrics=metrics,
        details={"accuracy": accuracy},
    )

    # Stable benchmarks: 'almost all approaches perform very well,
    # achieving above 80% prediction accuracies'; last value and GPHT
    # 'perform almost equivalently'.
    for name in FIG4_BENCHMARK_ORDER[:16]:
        assert accuracy[name]["LastValue"] > 0.80, name
        assert abs(
            accuracy[name]["GPHT_8_1024"] - accuracy[name]["LastValue"]
        ) < 0.05, name

    # Variable benchmarks: statistical approaches drop, GPHT sustains.
    for name in VARIABLE_BENCHMARKS:
        statistical_best = max(
            accuracy[name][c] for c in COLUMNS if c != "GPHT_8_1024"
        )
        assert accuracy[name]["GPHT_8_1024"] > statistical_best + 0.05, name

    # GPHT stays above 80% even on the hardest benchmarks.
    for name in VARIABLE_BENCHMARKS:
        assert accuracy[name]["GPHT_8_1024"] > 0.80, name

    # applu: last value > 50% mispredictions (paper: 53%), GPHT < 10%.
    assert accuracy["applu_in"]["LastValue"] < 0.5
    assert accuracy["applu_in"]["GPHT_8_1024"] > 0.9
