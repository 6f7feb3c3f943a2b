"""Evaluation helpers: predictor accuracy, variability, durations,
witnesses, characterisation, sweeps and reporting.

The low-level metrics (accuracy, variability, durations, reporting) are
imported eagerly.  The high-level helpers (characterisation, sweeps,
witnesses) depend on :mod:`repro.core` and :mod:`repro.workloads` —
which in turn use the low-level metrics here — so they are exposed
lazily via PEP 562 module ``__getattr__`` to keep the import graph
acyclic.
"""

import importlib

from repro.analysis.accuracy import (
    PredictionResult,
    evaluate_predictor,
    evaluate_predictor_batch,
    evaluate_suite,
    misprediction_improvement,
)
from repro.analysis.durations import DurationStatistics, PhaseRun, phase_runs
from repro.analysis.reporting import format_percent, format_series, format_table
from repro.analysis.variability import (
    DEFAULT_VARIATION_DELTA,
    phase_transition_rate,
    sample_variation_pct,
)

#: High-level helpers resolved on first attribute access (PEP 562).
_LAZY_EXPORTS = {
    "spec_phase_witnesses": "repro.analysis.witnesses",
    "characterize": "repro.analysis.characterize",
    "characterization_rows": "repro.analysis.characterize",
    "BenchmarkCharacterization": "repro.analysis.characterize",
    "sweep_pht_entries": "repro.analysis.sweeps",
    "sweep_gphr_depth": "repro.analysis.sweeps",
    "sweep_granularity": "repro.analysis.sweeps",
    "sweep_frequencies": "repro.analysis.sweeps",
    "Claim": "repro.analysis.paper_report",
    "certify": "repro.analysis.paper_report",
    "claims_payload": "repro.analysis.paper_report",
    "render_report": "repro.analysis.paper_report",
}

__all__ = [
    "PredictionResult",
    "evaluate_predictor",
    "evaluate_predictor_batch",
    "evaluate_suite",
    "misprediction_improvement",
    "sample_variation_pct",
    "phase_transition_rate",
    "DEFAULT_VARIATION_DELTA",
    "phase_runs",
    "PhaseRun",
    "DurationStatistics",
    "format_table",
    "format_percent",
    "format_series",
] + list(_LAZY_EXPORTS)


def __getattr__(name):
    """Resolve the high-level helpers on demand (PEP 562)."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
