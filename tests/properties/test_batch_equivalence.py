"""Property: the batch predictor API is bit-identical to the scalar one.

``PhasePredictor.observe_batch``/``predict_batch`` promise exactly the
scalar ``observe``/``predict`` cycle — same predictions, same mutable
state (checkpoints after any prefix), same hit/miss accounting — for
*every* predictor in the zoo.  The kernelized predictors (GPHT,
last-value, fixed-window, variable-window, markov_k) override the
defaults with batch replay; everything else exercises the base-class
scalar-loop fallback.  Both paths must be indistinguishable from the
scalar twin under any partition of the sample stream into batches.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phases import PhaseTable
from repro.core.predictors import (
    ConfidenceGPHTPredictor,
    DirectMappedGPHTPredictor,
    DurationPredictor,
    FixedWindowPredictor,
    GPHTPredictor,
    LastValuePredictor,
    MarkovPredictor,
    OraclePredictor,
    PhaseObservation,
    TournamentPredictor,
    VariableWindowPredictor,
)
from repro.errors import ConfigurationError
from repro.learn import (
    DecisionTreePhasePredictor,
    MarkovKPredictor,
    phase_dataset_from_series,
    train_markov,
    train_phase_tree,
)
from repro.workloads.spec2000 import benchmark, benchmark_names

TABLE = PhaseTable()

ORACLE_SCRIPT = tuple(1 + (i * 5) % 6 for i in range(200))

# Learned-predictor twins restore the same trained artifact state, so
# the batch kernels are exercised with a non-trivial trained stratum.
_TRAIN_SERIES = [
    TABLE.representative_value(1 + (i * 5) % 6) for i in range(120)
]
_TRAINED_TREE_STATE = train_phase_tree(
    phase_dataset_from_series(_TRAIN_SERIES, history_length=3)
)[1].state
_TRAINED_MARKOV_STATE = train_markov(
    phase_dataset_from_series(_TRAIN_SERIES, history_length=3), order=3
)[1].state


def _trained_tree():
    predictor = DecisionTreePhasePredictor(history_length=3)
    predictor.restore_state(_TRAINED_TREE_STATE)
    return predictor


def _trained_markov_k():
    predictor = MarkovKPredictor(order=3, alpha=0.5)
    predictor.restore_state(_TRAINED_MARKOV_STATE)
    return predictor


# The full zoo: the four kernelized predictors plus every scalar-loop
# fallback (markov, hybrid, confidence, duration, ...), plus the
# repro.learn predictors (markov_k overrides the batch kernels; the tree
# predictor rides the base-class scalar loop).  The two variable
# windows reset eagerly (0.005) and rarely (0.03, with a 3-entry window
# that evicts and ties three ways between resets).
ZOO = [
    ("last_value", LastValuePredictor),
    ("fixed_window_majority", lambda: FixedWindowPredictor(4)),
    ("fixed_window_mean", lambda: FixedWindowPredictor(4, selector="mean")),
    ("gpht_lru", lambda: GPHTPredictor(4, 8)),
    ("gpht_fifo", lambda: GPHTPredictor(3, 4, replacement="fifo")),
    ("variable_window", lambda: VariableWindowPredictor(8, 0.005)),
    ("variable_window_3", lambda: VariableWindowPredictor(3, 0.03)),
    ("markov", MarkovPredictor),
    ("tournament", lambda: TournamentPredictor(4, 16, chooser_bits=2)),
    ("confidence", lambda: ConfidenceGPHTPredictor(4, 16, max_confidence=2)),
    ("duration", lambda: DurationPredictor(continuation_threshold=0.5)),
    ("direct_mapped", lambda: DirectMappedGPHTPredictor(4, 16)),
    ("oracle", lambda: OraclePredictor(ORACLE_SCRIPT)),
    ("markov_k_untrained", lambda: MarkovKPredictor(order=2, alpha=0.5)),
    ("markov_k_trained", _trained_markov_k),
    (
        "learned_tree_untrained",
        lambda: DecisionTreePhasePredictor(history_length=3),
    ),
    ("learned_tree_trained", _trained_tree),
]
ZOO_IDS = [name for name, _ in ZOO]
ZOO_FACTORIES = [factory for _, factory in ZOO]

phases_and_mems = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.one_of(
            st.floats(min_value=0.0, max_value=0.06, allow_nan=False),
            st.sampled_from(list(TABLE.edges)),
        ),
    ),
    min_size=1,
    max_size=50,
)

cut_fractions = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=8
)


def partition(n, fractions):
    """Contiguous batch lengths covering ``n`` samples."""
    cuts = sorted({int(n * f) for f in fractions})
    cuts = [c for c in cuts if 0 < c < n]
    bounds = [0] + cuts + [n]
    return [
        (start, stop)
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    ]


def scalar_cycle(predictor, phases, mems):
    """The reference cycle: observe then predict, one sample at a time."""
    predictions = []
    for phase, mem in zip(phases, mems):
        predictor.observe(PhaseObservation(phase=phase, mem_per_uop=mem))
        predictions.append(predictor.predict())
    return predictions


def states_match(left, right):
    """Compare checkpoints when supported; probe-free predictors pass."""
    try:
        left_state = left.export_state()
    except ConfigurationError:
        return True
    return left_state == right.export_state()


@pytest.mark.parametrize("factory", ZOO_FACTORIES, ids=ZOO_IDS)
@given(samples=phases_and_mems, fractions=cut_fractions)
@settings(max_examples=40, deadline=None)
def test_predict_batch_is_bit_identical_under_any_partition(
    factory, samples, fractions
):
    phases = [phase for phase, _ in samples]
    mems = [mem for _, mem in samples]
    scalar_twin = factory()
    batch_twin = factory()

    batch_predictions = []
    for start, stop in partition(len(samples), fractions):
        batch_predictions.extend(
            batch_twin.predict_batch(phases[start:stop], mems[start:stop])
        )
        # Checkpoint state after this prefix must equal the scalar
        # twin's at the same point (predictors without checkpointing
        # are behaviourally compared via the probe tail below).
        prefix = scalar_cycle(
            scalar_twin, phases[start:stop], mems[start:stop]
        )
        assert prefix == batch_predictions[start:stop]
        assert states_match(scalar_twin, batch_twin)

    # Behavioural state equality: both twins must continue identically.
    probe_phases = [1 + (i % 6) for i in range(10)]
    probe_mems = [TABLE.representative_value(p) for p in probe_phases]
    assert scalar_cycle(
        scalar_twin, probe_phases, probe_mems
    ) == scalar_cycle(batch_twin, probe_phases, probe_mems)


@pytest.mark.parametrize("factory", ZOO_FACTORIES, ids=ZOO_IDS)
@given(samples=phases_and_mems)
@settings(max_examples=40, deadline=None)
def test_observe_batch_is_bit_identical_to_scalar_observe(factory, samples):
    phases = [phase for phase, _ in samples]
    mems = [mem for _, mem in samples]
    scalar_twin = factory()
    batch_twin = factory()
    for phase, mem in zip(phases, mems):
        scalar_twin.observe(PhaseObservation(phase=phase, mem_per_uop=mem))
    batch_twin.observe_batch(phases, mems)
    assert states_match(scalar_twin, batch_twin)
    probe_phases = [1 + (i % 6) for i in range(10)]
    probe_mems = [TABLE.representative_value(p) for p in probe_phases]
    assert scalar_cycle(
        scalar_twin, probe_phases, probe_mems
    ) == scalar_cycle(batch_twin, probe_phases, probe_mems)


@pytest.mark.parametrize(
    "factory",
    [lambda: GPHTPredictor(4, 8), lambda: GPHTPredictor(3, 4, "fifo")],
    ids=["gpht_lru", "gpht_fifo"],
)
@given(samples=phases_and_mems, fractions=cut_fractions)
@settings(max_examples=40, deadline=None)
def test_gpht_kernel_preserves_hit_miss_accounting(
    factory, samples, fractions
):
    phases = [phase for phase, _ in samples]
    mems = [mem for _, mem in samples]
    scalar_twin = factory()
    batch_twin = factory()
    scalar_cycle(scalar_twin, phases, mems)
    for start, stop in partition(len(samples), fractions):
        batch_twin.predict_batch(phases[start:stop], mems[start:stop])
    assert batch_twin.export_state() == scalar_twin.export_state()


@pytest.mark.parametrize("batch", [1, 7, 300])
@pytest.mark.parametrize("threshold", [0.005, 0.03])
def test_variable_window_kernel_matches_scalar_on_spec_series(
    threshold, batch
):
    """The paper's two VarWindow_128 configurations over every SPEC
    series: same predictions and checkpoint after every batch."""
    for name in benchmark_names():
        mems = benchmark(name).mem_series(300).tolist()
        phases = [TABLE.classify(mem) for mem in mems]
        scalar_twin = VariableWindowPredictor(128, threshold)
        batch_twin = VariableWindowPredictor(128, threshold)
        for start in range(0, len(mems), batch):
            stop = start + batch
            assert batch_twin.predict_batch(
                phases[start:stop], mems[start:stop]
            ) == scalar_cycle(scalar_twin, phases[start:stop], mems[start:stop])
            assert batch_twin.export_state() == scalar_twin.export_state()
