"""Ablation — GPHR depth sensitivity (extension; DESIGN.md §7).

The paper fixes the history depth at 8 and sweeps only the PHT size
(Figure 5).  This ablation completes the picture: accuracy versus GPHR
depth on the variable benchmarks, with the PHT held at 1024 entries so
capacity never masks the history effect.

Expected shape: depth 1 cannot disambiguate contexts that share their
last phase, so it sits well below depth 8; very deep histories gain
nothing further (the benchmarks' motifs fit inside depth ~8) and may
dilute slightly under jitter.
"""

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import sweep_predictors
from repro.workloads.spec2000 import VARIABLE_BENCHMARKS

N_INTERVALS = 1000
DEPTHS = (1, 2, 4, 8, 12, 16)

COLUMNS = ["LastValue"] + [f"GPHT_{d}_1024" for d in DEPTHS]


def run_sweep():
    return sweep_predictors(VARIABLE_BENCHMARKS, COLUMNS, N_INTERVALS)


def test_ablation_gphr_depth(benchmark, report):
    accuracy = run_once(benchmark, run_sweep).to_dict()

    rows = [
        [name] + [round(accuracy[name][c] * 100, 1) for c in COLUMNS]
        for name in VARIABLE_BENCHMARKS
    ]
    report(
        "ablation_gphr_depth",
        format_table(
            ["benchmark"] + COLUMNS,
            rows,
            title="Ablation: GPHT accuracy (%) vs GPHR depth (PHT=1024).",
        ),
        parameters={
            "n_intervals": N_INTERVALS,
            "n_benchmarks": len(VARIABLE_BENCHMARKS),
        },
        metrics={
            f"{column}_mean_accuracy": sum(
                accuracy[name][column] for name in VARIABLE_BENCHMARKS
            )
            / len(VARIABLE_BENCHMARKS)
            for column in COLUMNS
        },
        details={"accuracy": accuracy},
    )

    for name in VARIABLE_BENCHMARKS:
        acc = accuracy[name]

        # Deep history dominates shallow history on pattern-rich apps.
        assert acc["GPHT_8_1024"] >= acc["GPHT_1_1024"] - 0.02, name

        # The paper's depth-8 choice is on the plateau: going deeper
        # buys nothing significant.
        assert abs(acc["GPHT_16_1024"] - acc["GPHT_8_1024"]) < 0.06, name

    # On the most rapidly varying benchmarks the depth effect is large.
    for name in ("applu_in", "equake_in"):
        acc = accuracy[name]
        assert acc["GPHT_8_1024"] > acc["GPHT_1_1024"] + 0.05, name
