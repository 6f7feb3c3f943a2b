"""Figure 13 — power/performance results for the conservative phase
definitions that bound performance degradation by 5%.

Derives the bounded policy the way the paper does — from observed
execution points across the behaviour space (Section 6.3) — runs the
five benchmarks that originally exceeded 5% degradation, and asserts the
figure's results: every degradation below the target, and EDP
improvements reduced by more than 2X relative to the aggressive table.
Both suites run on the :mod:`repro.exec` engine
(:func:`run_comparison_suite`, policies ``bounded`` and ``table2``).
"""

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_percent, format_table
from repro.exec.cells import BOUNDED_DEGRADATION_TARGET, build_policy
from repro.system.experiment import run_comparison_suite
from repro.workloads.spec2000 import FIG13_BENCHMARKS

N_INTERVALS = 300


def run_policies():
    return tuple(
        run_comparison_suite(
            FIG13_BENCHMARKS,
            governor="gpht",
            policy=policy,
            n_intervals=N_INTERVALS,
        )
        for policy in ("bounded", "table2")
    )


def test_fig13_bounded_degradation(benchmark, report):
    bounded, aggressive = run_once(benchmark, run_policies)
    policy = build_policy("bounded")

    rows = []
    for name in FIG13_BENCHMARKS:
        b = bounded.cell(name)
        rows.append(
            (
                name,
                format_percent(b.performance_degradation),
                format_percent(b.power_savings),
                format_percent(b.energy_savings),
                format_percent(b.edp_improvement),
                format_percent(aggressive.cell(name).edp_improvement),
            )
        )
    mapping = ", ".join(
        f"{p}->{policy.setting_for(p).frequency_mhz}MHz"
        for p in policy.phase_table.phase_ids
    )
    report(
        "fig13_bounded_degradation",
        format_table(
            [
                "benchmark",
                "perf degradation",
                "power savings",
                "energy savings",
                "EDP improvement",
                "EDP impr (aggressive)",
            ],
            rows,
            title=(
                "Figure 13. Conservative phase definitions bounding "
                "performance degradation by "
                f"{BOUNDED_DEGRADATION_TARGET:.0%}.\n"
                f"Derived policy: {mapping}"
            ),
        ),
        parameters={
            "n_intervals": N_INTERVALS,
            "degradation_target": BOUNDED_DEGRADATION_TARGET,
        },
        metrics={
            "max_degradation": max(
                bounded.cell(n).performance_degradation
                for n in FIG13_BENCHMARKS
            ),
            "min_power_savings": min(
                bounded.cell(n).power_savings
                for n in FIG13_BENCHMARKS
            ),
            "bounded_mean_edp_improvement": sum(
                bounded.cell(n).edp_improvement
                for n in FIG13_BENCHMARKS
            )
            / len(FIG13_BENCHMARKS),
            "aggressive_mean_edp_improvement": sum(
                aggressive.cell(n).edp_improvement
                for n in FIG13_BENCHMARKS
            )
            / len(FIG13_BENCHMARKS),
            "policy_frequency_levels": len(
                {
                    policy.setting_for(p).frequency_mhz
                    for p in policy.phase_table.phase_ids
                }
            ),
        },
        details={
            name: {
                "performance_degradation": (
                    bounded.cell(name).performance_degradation
                ),
                "power_savings": bounded.cell(name).power_savings,
                "edp_improvement": bounded.cell(name).edp_improvement,
                "aggressive_edp_improvement": (
                    aggressive.cell(name).edp_improvement
                ),
            }
            for name in FIG13_BENCHMARKS
        },
    )

    for name in FIG13_BENCHMARKS:
        b = bounded.cell(name)
        a = aggressive.cell(name)

        # 'All of these applications experience performance degradations
        # significantly lower than 5%.'
        assert (
            b.performance_degradation < BOUNDED_DEGRADATION_TARGET
        ), name

        # 'EDP improvements are reduced by more than 2X.'
        assert b.edp_improvement < a.edp_improvement / 2.0, name

        # The conservative system still saves meaningful power.
        assert b.power_savings > 0.03, name
        assert b.edp_improvement > 0.0, name

    # The derived table is strictly more conservative than Table 2
    # below phase 1 but never pins everything at full speed.
    frequencies = {
        policy.setting_for(p).frequency_mhz
        for p in policy.phase_table.phase_ids
    }
    assert len(frequencies) > 1
