"""The benchmark registry: modules, tags, artifacts, measured directions.

One :class:`BenchSpec` per module under ``benchmarks/`` records which
artifacts the module emits and which tag-addressable subsets it belongs
to (``repro bench run --tag figures``).  :func:`metric_direction` says
which way a wall-clock ``measured`` value improves; it matters only
when the gate enforces ``measured``, since every deterministic value is
compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Direction literals: ``higher`` means larger values are better.
HIGHER = "higher"
LOWER = "lower"


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark module.

    Attributes:
        name: Registry name (module stem without the ``test_`` prefix).
        module: Filename under ``benchmarks/``.
        tags: Subset labels addressable via ``--tag``.
        artifacts: Artifact names the module writes to the results dir.
    """

    name: str
    module: str
    tags: Tuple[str, ...]
    artifacts: Tuple[str, ...]


def _spec(
    name: str,
    tags: Sequence[str],
    artifacts: Optional[Sequence[str]] = None,
) -> BenchSpec:
    return BenchSpec(
        name=name,
        module=f"test_{name}.py",
        tags=tuple(tags),
        artifacts=tuple(artifacts if artifacts is not None else (name,)),
    )


#: Every benchmark module, in suite order.  ``smoke`` tags the fast
#: subset CI runs on shared runners (seconds, not minutes).
#: ``throughput`` tags every bench that records wall-clock ``measured``
#: values; ``repro bench run`` runs those one at a time.
BENCHES: Tuple[BenchSpec, ...] = (
    _spec("table1_phase_definitions", ("tables", "smoke")),
    _spec("table2_dvfs_settings", ("tables", "smoke")),
    _spec("fig02_applu_trace", ("figures",)),
    _spec("fig03_quadrants", ("figures", "smoke")),
    _spec("fig04_prediction_accuracy", ("figures",)),
    _spec("fig05_pht_sweep", ("figures",)),
    _spec("fig06_exploration_space", ("figures",)),
    _spec("fig07_dvfs_invariance", ("figures",)),
    _spec("fig08_handler_overhead", ("figures", "throughput"),
          artifacts=("fig08_handler_overhead", "fig08_overhead_fraction")),
    _spec("fig09_measurement_platform", ("figures",)),
    _spec("fig10_applu_full_system", ("figures",)),
    _spec("fig11_dvfs_results", ("figures",)),
    _spec("fig12_gpht_vs_reactive", ("figures",)),
    _spec("fig13_bounded_degradation", ("figures",)),
    _spec("ablation_associativity", ("ablations",)),
    _spec("ablation_confidence", ("ablations",)),
    _spec("ablation_gphr_depth", ("ablations",)),
    _spec("ablation_granularity", ("ablations",)),
    _spec("ablation_markov_robustness", ("ablations",)),
    _spec("ablation_model_sensitivity", ("ablations",)),
    _spec("ablation_replacement", ("ablations",)),
    _spec("ext_multiprogram", ("ext",)),
    _spec("ext_oracle_bound", ("ext",)),
    _spec("ext_predictor_zoo", ("ext",)),
    _spec("ext_thermal_management", ("ext",)),
    _spec("ext_upc_pitfall", ("ext",)),
    _spec("learned_accuracy", ("learned",)),
    _spec("batch_throughput", ("serve", "throughput", "smoke"),
          artifacts=("batch_feed_throughput", "batch_evaluator_throughput")),
    _spec("serve_throughput", ("serve", "throughput"),
          artifacts=("serve_feed_throughput", "serve_wire_throughput")),
    _spec("serve_scaleout", ("serve", "throughput")),
)


def bench_names() -> List[str]:
    """Registered bench names, in suite order."""
    return [spec.name for spec in BENCHES]


def bench_by_name() -> Dict[str, BenchSpec]:
    """Name -> spec index."""
    return {spec.name: spec for spec in BENCHES}


def all_tags() -> List[str]:
    """Every tag used by the registry, sorted."""
    tags = {tag for spec in BENCHES for tag in spec.tags}
    return sorted(tags)


def artifact_index() -> Dict[str, BenchSpec]:
    """Artifact name -> owning bench spec."""
    index: Dict[str, BenchSpec] = {}
    for spec in BENCHES:
        for artifact in spec.artifacts:
            index[artifact] = spec
    return index


def select_benches(
    names: Sequence[str] = (), tags: Sequence[str] = ()
) -> List[BenchSpec]:
    """Resolve a CLI selection to bench specs (suite order, deduped).

    With neither names nor tags, the whole registry is selected.
    Unknown names or tags raise :class:`ConfigurationError`.
    """
    by_name = bench_by_name()
    known_tags = set(all_tags())
    for name in names:
        if name not in by_name:
            raise ConfigurationError(
                f"unknown bench {name!r}; see 'repro bench list'"
            )
    for tag in tags:
        if tag not in known_tags:
            raise ConfigurationError(
                f"unknown tag {tag!r}; known: {', '.join(all_tags())}"
            )
    if not names and not tags:
        return list(BENCHES)
    wanted = set(names)
    selected = [
        spec
        for spec in BENCHES
        if spec.name in wanted or any(tag in spec.tags for tag in tags)
    ]
    return selected


def metric_direction(metric: str) -> Optional[str]:
    """Which way a ``measured`` value improves, from its name.

    Rates (``*_per_s``) and speedups are higher-is-better; per-operation
    costs (``us_per_*``) are lower-is-better.  ``None`` means
    undeclared: the gate reports such a value but never fails on it.
    """
    if metric.endswith("_per_s") or metric.startswith("speedup"):
        return HIGHER
    if metric.startswith("us_per_") or "_us_per_" in metric:
        return LOWER
    return None
