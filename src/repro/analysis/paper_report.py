"""One-command reproduction report: re-measure every headline claim.

Regenerates the paper's headline numbers live and checks each against
its published counterpart, producing a pass/fail "reproduction
certificate".  This is the programmatic core behind
``python -m repro report`` and the evidence base of EXPERIMENTS.md.

Each claim is a :class:`Claim`: what the paper says, what this
reproduction measures, and the shape criterion under which the claim
counts as reproduced (absolute numbers are not expected to match a
simulated platform; directions and rough factors are).

Measurement runs through the :mod:`repro.exec` engine — all predictor
evaluations and baseline-vs-managed suites are independent cells, so
``repro report --jobs N`` fans them out over processes and a warm
result cache makes re-certification nearly free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine, make_engine
from repro.exec.results import MetricValue
from repro.exec.spec import ExperimentSpec
from repro.system.experiment import run_comparison_suite
from repro.system.metrics import mean
from repro.workloads.spec2000 import (
    FIG4_BENCHMARK_ORDER,
    FIG12_BENCHMARKS,
    FIG13_BENCHMARKS,
)


@dataclass(frozen=True)
class Claim:
    """One headline claim: paper statement vs measured value.

    Attributes:
        name: Short identifier of the claim.
        paper: What the paper reports.
        measured: What this reproduction measured (formatted).
        holds: Whether the shape criterion is satisfied.
    """

    name: str
    paper: str
    measured: str
    holds: bool

    @property
    def verdict(self) -> str:
        """Render the outcome as a checkmark or cross."""
        return "REPRODUCED" if self.holds else "NOT REPRODUCED"


def _accuracy_cells(
    engine: ExecutionEngine, n_accuracy: int
) -> Dict[str, Mapping[str, MetricValue]]:
    """Evaluate every predictor-accuracy cell the claims need, keyed
    ``"<benchmark>/<predictor>"``."""
    wanted = [(name, "GPHT_8_1024") for name in FIG4_BENCHMARK_ORDER]
    wanted += [("applu_in", "LastValue"), ("applu_in", "GPHT_8_128")]
    specs = {
        f"{name}/{predictor}": ExperimentSpec.create(
            "predictor_accuracy",
            benchmark=name,
            n_intervals=n_accuracy,
            predictor=predictor,
            phase_edges=None,
        )
        for name, predictor in wanted
    }
    report = engine.run(list(specs.values()))
    return {key: report.value(spec) for key, spec in specs.items()}


def _suite_metrics(
    benchmark_names: "Sequence[str]",
    governor: str,
    policy: str,
    n_intervals: int,
    engine: ExecutionEngine,
) -> Dict[str, Mapping[str, MetricValue]]:
    """Per-benchmark comparison summaries for one managed suite."""
    return dict(
        run_comparison_suite(
            benchmark_names,
            governor=governor,
            policy=policy,
            n_intervals=n_intervals,
            engine=engine,
        ).to_dict()
    )


def _rate(metrics: Mapping[str, MetricValue], key: str) -> float:
    value = metrics[key]
    assert isinstance(value, (int, float))
    return float(value)


def measure_claims(
    n_accuracy: int = 1000,
    n_intervals: int = 300,
    engine: Optional[ExecutionEngine] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Claim]:
    """Re-measure the paper's headline claims.

    Args:
        n_accuracy: Trace length for predictor-accuracy claims.
        n_intervals: Trace length for full-system management claims.
        engine: Execution engine (overrides ``jobs``/``cache``).
        jobs: Worker processes when no engine is given (1 = serial).
        cache: On-disk result cache when no engine is given.

    Returns:
        The claims in presentation order.
    """
    if engine is None:
        engine = make_engine(jobs=jobs, cache=cache)
    claims: List[Claim] = []

    # -- prediction claims --------------------------------------------------
    accuracy = _accuracy_cells(engine, n_accuracy)
    high_accuracy = sum(
        1
        for name in FIG4_BENCHMARK_ORDER
        if _rate(accuracy[f"{name}/GPHT_8_1024"], "accuracy") > 0.9
    )
    claims.append(
        Claim(
            name="above-90% accuracy for many benchmarks",
            paper="above 90% prediction accuracies for many benchmarks",
            measured=f"{high_accuracy}/{len(FIG4_BENCHMARK_ORDER)} "
            "benchmarks above 90%",
            holds=high_accuracy >= 20,
        )
    )

    applu_last_rate = _rate(
        accuracy["applu_in/LastValue"], "misprediction_rate"
    )
    applu_gpht_rate = _rate(
        accuracy["applu_in/GPHT_8_1024"], "misprediction_rate"
    )
    factor = (
        applu_last_rate / applu_gpht_rate
        if applu_gpht_rate > 0.0
        else float("inf")
    )
    claims.append(
        Claim(
            name="6X misprediction reduction (applu)",
            paper="reduce mispredictions by more than 6X over statistical "
            "approaches",
            measured=f"{factor:.1f}X (last value "
            f"{applu_last_rate:.1%} -> GPHT "
            f"{applu_gpht_rate:.1%})",
            holds=factor > 6.0,
        )
    )

    small_accuracy = _rate(accuracy["applu_in/GPHT_8_128"], "accuracy")
    large_accuracy = _rate(accuracy["applu_in/GPHT_8_1024"], "accuracy")
    claims.append(
        Claim(
            name="128-entry PHT is sufficient",
            paper="down to 128 entries, GPHT performs almost identically "
            "to the 1024 entry predictor",
            measured=f"GPHT(8,128) {small_accuracy:.1%} vs GPHT(8,1024) "
            f"{large_accuracy:.1%} on applu",
            holds=abs(small_accuracy - large_accuracy) < 0.03,
        )
    )

    # -- management claims --------------------------------------------------
    gpht_suite = _suite_metrics(
        FIG12_BENCHMARKS, "gpht", "table2", n_intervals, engine
    )
    reactive_suite = _suite_metrics(
        FIG12_BENCHMARKS, "reactive", "table2", n_intervals, engine
    )

    equake = _rate(gpht_suite["equake_in"], "edp_improvement")
    claims.append(
        Claim(
            name="EDP improvement up to ~34% on variable apps",
            paper="EDP improvements as high as 34% — in the case of "
            "equake — for the highly variable Q3 benchmarks",
            measured=f"equake {equake:.1%}",
            holds=0.25 < equake < 0.50,
        )
    )

    q2_floor = min(
        _rate(gpht_suite[name], "edp_improvement")
        for name in ("swim_in", "mcf_inp")
    )
    claims.append(
        Claim(
            name="Q2 benchmarks above 60% EDP improvement",
            paper="the trivial Q2 applications swim and mcf exhibit above "
            "60% EDP improvements",
            measured=f"min(swim, mcf) = {q2_floor:.1%}",
            holds=q2_floor > 0.50,
        )
    )

    gpht_avg = mean(
        [
            _rate(gpht_suite[name], "edp_improvement")
            for name in FIG12_BENCHMARKS
        ]
    )
    reactive_avg = mean(
        [
            _rate(reactive_suite[name], "edp_improvement")
            for name in FIG12_BENCHMARKS
        ]
    )
    claims.append(
        Claim(
            name="proactive beats reactive management",
            paper="a 7% EDP improvement over reactive methods (27% vs 20%)",
            measured=f"GPHT {gpht_avg:.1%} vs reactive {reactive_avg:.1%} "
            f"(+{(gpht_avg - reactive_avg) * 100:.1f} pts)",
            holds=gpht_avg > reactive_avg + 0.01,
        )
    )

    handler_fraction = max(
        _rate(gpht_suite[name], "handler_overhead_fraction")
        for name in FIG12_BENCHMARKS
    )
    claims.append(
        Claim(
            name="no observable overheads",
            paper="with no visible overheads",
            measured=f"worst handler share {handler_fraction:.4%} of "
            "execution",
            holds=handler_fraction < 1e-3,
        )
    )

    # -- bounded degradation (Section 6.3) ----------------------------------
    bounded = _suite_metrics(
        FIG13_BENCHMARKS, "gpht", "bounded", n_intervals, engine
    )
    worst_degradation = max(
        _rate(bounded[name], "performance_degradation")
        for name in FIG13_BENCHMARKS
    )
    reduced_2x = all(
        _rate(bounded[name], "edp_improvement")
        < _rate(gpht_suite[name], "edp_improvement") / 2
        for name in FIG13_BENCHMARKS
        if name in gpht_suite
    )
    claims.append(
        Claim(
            name="bounded degradation below 5%",
            paper="performance degradations significantly lower than 5%, "
            "EDP improvements reduced by more than 2X",
            measured=f"worst degradation {worst_degradation:.1%}; "
            f"2X reduction on all five: {reduced_2x}",
            holds=worst_degradation < 0.05 and reduced_2x,
        )
    )

    return claims


def claims_payload(claims: List[Claim]) -> Dict[str, object]:
    """The reproduction certificate as a JSON-ready mapping."""
    return {
        "reproduced": sum(1 for claim in claims if claim.holds),
        "total": len(claims),
        "claims": [
            {
                "name": claim.name,
                "paper": claim.paper,
                "measured": claim.measured,
                "holds": claim.holds,
                "verdict": claim.verdict,
            }
            for claim in claims
        ],
    }


def render_report(claims: List[Claim]) -> str:
    """Render the claims as the reproduction-certificate table."""
    rows = [
        (claim.name, claim.paper, claim.measured, claim.verdict)
        for claim in claims
    ]
    reproduced = sum(1 for claim in claims if claim.holds)
    header = (
        f"Reproduction certificate: {reproduced}/{len(claims)} headline "
        "claims reproduced."
    )
    return header + "\n\n" + format_table(
        ["claim", "paper", "measured", "verdict"], rows
    )


def claims_by_name(claims: List[Claim]) -> Dict[str, Claim]:
    """Index claims by their short names."""
    return {claim.name: claim for claim in claims}
