"""repro.bench — machine-readable benchmark registry + regression gate.

The perf evidence behind this reproduction (prediction accuracy, batch
and wire throughput, scale-out speedups) lives as versioned JSON
artifacts under ``benchmarks/results/``.  This package is the contract
around them:

* :mod:`repro.bench.schema` — the :class:`BenchResult` artifact schema
  (deterministic comparable payload vs wall-clock ``measured`` block,
  host provenance);
* :mod:`repro.bench.registry` — which modules exist, their tags and
  per-metric improvement directions;
* :mod:`repro.bench.runner` — executes registered benches through the
  sweep engine (``bench_module`` cells);
* :mod:`repro.bench.compare` — the regression gate behind
  ``repro bench compare``;
* :mod:`repro.bench.gate` — the ``REPRO_BENCH_ENFORCE`` contract and
  elapsed-time sanity checks benches call directly.
"""

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    ArtifactComparison,
    CompareReport,
    MetricDelta,
    compare_results,
    load_results_dir,
)
from repro.bench.gate import (
    ENFORCE_ENV,
    MeasurementError,
    PerfRegressionError,
    check_perf,
    perf_enforced,
    require_positive_elapsed,
)
from repro.bench.registry import (
    BENCHES,
    BenchSpec,
    all_tags,
    bench_by_name,
    bench_names,
    metric_direction,
    select_benches,
)
from repro.bench.runner import (
    bench_spec_to_cell,
    default_bench_dir,
    run_benches,
)
from repro.bench.schema import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BenchFormatError,
    BenchResult,
    HostProvenance,
    validate_payload,
)

__all__ = [
    # schema
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "BenchFormatError",
    "BenchResult",
    "HostProvenance",
    "validate_payload",
    # registry
    "BENCHES",
    "BenchSpec",
    "all_tags",
    "bench_by_name",
    "bench_names",
    "metric_direction",
    "select_benches",
    # runner
    "bench_spec_to_cell",
    "default_bench_dir",
    "run_benches",
    # compare
    "DEFAULT_TOLERANCE",
    "ArtifactComparison",
    "CompareReport",
    "MetricDelta",
    "compare_results",
    "load_results_dir",
    # gate
    "ENFORCE_ENV",
    "MeasurementError",
    "PerfRegressionError",
    "check_perf",
    "perf_enforced",
    "require_positive_elapsed",
]
