"""One-command reproduction report: certify every headline claim.

Checks the paper's headline numbers against the bench artifacts that
measure them, producing a pass/fail "reproduction certificate".  This is
the programmatic core behind ``python -m repro report``.

Each claim is declared once in :data:`CLAIMS`: what the paper says, the
artifact values it reads, how the measurement prints, and the shape
criterion under which it counts as reproduced (absolute numbers are not
expected to match a simulated platform; directions and rough factors
are).  :func:`certify` evaluates the table over the payloads
:func:`repro.bench.load_results_dir` loads; nothing here measures.  To
certify fresh numbers, run ``repro bench run --tag figures --out DIR``,
then ``repro report DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.analysis.reporting import format_table
from repro.errors import ConfigurationError

#: Where a claim input lives: artifact name, block, then keys inside it.
#: A ``*`` key maps over every key at its level, giving ``{key: value}``.
KeyPath = Tuple[str, ...]

FIG4 = "fig04_prediction_accuracy"
FIG5 = "fig05_pht_sweep"
FIG11 = "fig11_dvfs_results"
FIG12 = "fig12_gpht_vs_reactive"
FIG13 = "fig13_bounded_degradation"


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


@dataclass(frozen=True)
class ClaimSpec:
    """One declared headline claim.

    Attributes:
        name: Short identifier of the claim.
        paper: What the paper reports.
        reads: Input name -> key path of the artifact value it reads.
        measured: Prints the measurement from the inputs, by name.
        holds: The shape criterion over the inputs, by name.
    """

    name: str
    paper: str
    reads: Mapping[str, KeyPath]
    measured: Callable[..., str]
    holds: Callable[..., bool]

    def evaluate(self, artifacts: Mapping[str, Mapping[str, Any]]) -> Claim:
        """Judge this claim on loaded artifact payloads."""
        inputs = {
            name: _read(artifacts, path, self.name)
            for name, path in self.reads.items()
        }
        return Claim(
            self.name, self.paper, self.measured(**inputs), self.holds(**inputs)
        )


def _read(
    artifacts: Mapping[str, Mapping[str, Any]], path: KeyPath, claim: str
) -> Any:
    """The value at ``path``; a missing artifact or key raises
    :class:`ConfigurationError` naming both."""
    artifact, *keys = path
    if artifact not in artifacts:
        raise ConfigurationError(
            f"claim {claim!r} reads artifact {artifact!r}, which the "
            "results directory lacks"
        )

    def walk(value: Any, depth: int) -> Any:
        if depth == len(keys):
            return value
        if keys[depth] == "*" and isinstance(value, Mapping) and value:
            return {key: walk(item, depth + 1) for key, item in value.items()}
        # ``details: null`` or an empty ``*`` level counts as missing.
        value = value.get(keys[depth]) if isinstance(value, Mapping) else None
        if value is None:
            raise ConfigurationError(
                f"claim {claim!r} reads {'.'.join(keys)} from artifact "
                f"{artifact!r}, which has no {'.'.join(keys[: depth + 1])}"
            )
        return walk(value, depth + 1)

    return walk(artifacts[artifact], 0)


def _reduction(last: float, gpht: float) -> float:
    """How many times fewer mispredictions GPHT makes than last value."""
    gpht_rate = 1.0 - gpht
    return (1.0 - last) / gpht_rate if gpht_rate > 0.0 else float("inf")


def _halved(bounded: Mapping[str, float], aggressive: Mapping[str, float]) -> bool:
    """Whether every bounded EDP gain is under half the aggressive one."""
    return all(bounded[name] < aggressive[name] / 2 for name in bounded)


#: The headline claims, in presentation order.
CLAIMS: Tuple[ClaimSpec, ...] = (
    ClaimSpec(
        name="above-90% accuracy for many benchmarks",
        paper="above 90% prediction accuracies for many benchmarks",
        reads={"gpht": (FIG4, "details", "accuracy", "*", "GPHT_8_1024")},
        measured=lambda gpht: (
            f"{sum(a > 0.9 for a in gpht.values())}/{len(gpht)} "
            "benchmarks above 90%"
        ),
        holds=lambda gpht: sum(a > 0.9 for a in gpht.values()) >= 20,
    ),
    ClaimSpec(
        name="6X misprediction reduction (applu)",
        paper="reduce mispredictions by more than 6X over statistical "
        "approaches",
        reads={
            "last": (FIG4, "metrics", "applu_last_value_accuracy"),
            "gpht": (FIG4, "metrics", "applu_gpht_accuracy"),
        },
        measured=lambda last, gpht: (
            f"{_reduction(last, gpht):.1f}X (last value {1.0 - last:.1%} "
            f"-> GPHT {1.0 - gpht:.1%})"
        ),
        holds=lambda last, gpht: _reduction(last, gpht) > 6.0,
    ),
    ClaimSpec(
        name="128-entry PHT is sufficient",
        paper="down to 128 entries, GPHT performs almost identically "
        "to the 1024 entry predictor",
        reads={
            "small": (FIG5, "details", "accuracy", "applu_in", "GPHT_8_128"),
            "large": (FIG5, "details", "accuracy", "applu_in", "GPHT_8_1024"),
        },
        measured=lambda small, large: (
            f"GPHT(8,128) {small:.1%} vs GPHT(8,1024) {large:.1%} on applu"
        ),
        holds=lambda small, large: abs(small - large) < 0.03,
    ),
    ClaimSpec(
        name="EDP improvement up to ~34% on variable apps",
        paper="EDP improvements as high as 34% — in the case of "
        "equake — for the highly variable Q3 benchmarks",
        reads={"equake": (FIG11, "metrics", "equake_edp_improvement")},
        measured=lambda equake: f"equake {equake:.1%}",
        holds=lambda equake: 0.25 < equake < 0.50,
    ),
    ClaimSpec(
        name="Q2 benchmarks above 60% EDP improvement",
        paper="the trivial Q2 applications swim and mcf exhibit above "
        "60% EDP improvements",
        reads={
            "swim": (FIG11, "metrics", "swim_edp_improvement"),
            "mcf": (FIG11, "metrics", "mcf_edp_improvement"),
        },
        measured=lambda swim, mcf: f"min(swim, mcf) = {min(swim, mcf):.1%}",
        holds=lambda swim, mcf: min(swim, mcf) > 0.50,
    ),
    ClaimSpec(
        name="proactive beats reactive management",
        paper="a 7% EDP improvement over reactive methods (27% vs 20%)",
        reads={
            "gpht": (FIG12, "metrics", "gpht_mean_edp_improvement"),
            "reactive": (FIG12, "metrics", "reactive_mean_edp_improvement"),
        },
        measured=lambda gpht, reactive: (
            f"GPHT {gpht:.1%} vs reactive {reactive:.1%} "
            f"(+{(gpht - reactive) * 100:.1f} pts)"
        ),
        holds=lambda gpht, reactive: gpht > reactive + 0.01,
    ),
    ClaimSpec(
        name="no observable overheads",
        paper="with no visible overheads",
        reads={
            "share": (FIG12, "details", "gpht", "*", "handler_overhead_fraction")
        },
        measured=lambda share: (
            f"worst handler share {max(share.values()):.4%} of execution"
        ),
        holds=lambda share: max(share.values()) < 1e-3,
    ),
    ClaimSpec(
        name="bounded degradation below 5%",
        paper="performance degradations significantly lower than 5%, "
        "EDP improvements reduced by more than 2X",
        reads={
            "worst": (FIG13, "metrics", "max_degradation"),
            "bounded": (FIG13, "details", "*", "edp_improvement"),
            "aggressive": (FIG13, "details", "*", "aggressive_edp_improvement"),
        },
        measured=lambda worst, bounded, aggressive: (
            f"worst degradation {worst:.1%}; 2X reduction on all five: "
            f"{_halved(bounded, aggressive)}"
        ),
        holds=lambda worst, bounded, aggressive: (
            worst < 0.05 and _halved(bounded, aggressive)
        ),
    ),
    ClaimSpec(
        name="2.4X misprediction reduction (Q3+Q4 average)",
        paper="2.4X less mispredictions than the statistical predictors "
        "on the variable Q3 and Q4 benchmarks",
        reads={"factor": (FIG4, "metrics", "variable_misprediction_reduction")},
        measured=lambda factor: (
            f"{factor:.2f}X vs the best statistical predictor, mean over "
            "the six Q3+Q4 benchmarks"
        ),
        holds=lambda factor: factor > 2.0,
    ),
)


def certify(artifacts: Mapping[str, Mapping[str, Any]]) -> List[Claim]:
    """Judge every declared claim, in presentation order, on artifact
    payloads keyed by name (as :func:`repro.bench.load_results_dir`
    returns them).  A missing artifact or key raises
    :class:`ConfigurationError`."""
    return [spec.evaluate(artifacts) for spec in CLAIMS]


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
