"""Property-based tests for phase classification."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.phases import NUMPY_MIN_VALUES, PhaseTable
from repro.errors import ConfigurationError

TABLE = PhaseTable()

mem_values = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)

# Edges built from strictly positive increments, so consecutive bins
# always have a representable interior (degenerate 1-ulp-wide bins have
# no midpoint and are not meaningful phase definitions).
edge_lists = st.lists(
    st.floats(min_value=1e-4, max_value=0.1, allow_nan=False),
    min_size=1,
    max_size=8,
).map(lambda increments: [sum(increments[: i + 1]) for i in range(len(increments))])


@given(mem_values)
def test_classification_is_total_and_in_range(value):
    phase = TABLE.classify(value)
    assert 1 <= phase <= TABLE.num_phases


@given(mem_values, mem_values)
def test_classification_is_monotone(a, b):
    low, high = min(a, b), max(a, b)
    assert TABLE.classify(low) <= TABLE.classify(high)


@given(mem_values)
def test_classified_phase_contains_the_value(value):
    phase = TABLE.classify(value)
    assert TABLE.definition(phase).contains(value)


@given(mem_values)
def test_exactly_one_definition_contains_each_value(value):
    containing = [
        d for d in TABLE.definitions if d.contains(value)
    ]
    assert len(containing) == 1


@given(edge_lists)
def test_custom_tables_have_consistent_structure(edges):
    table = PhaseTable(edges)
    assert table.num_phases == len(edges) + 1
    for phase_id in table.phase_ids:
        representative = table.representative_value(phase_id)
        assert table.classify(representative) == phase_id


@given(edge_lists, mem_values)
def test_custom_tables_classify_totally(edges, value):
    table = PhaseTable(edges)
    assert 1 <= table.classify(value) <= table.num_phases


@given(st.floats(min_value=0.0, max_value=0.0049))
def test_phase1_below_first_edge(value):
    assert TABLE.classify(value) == 1


@given(st.floats(min_value=0.03, max_value=10.0))
def test_phase6_at_and_above_last_edge(value):
    assert TABLE.classify(value) == 6


# -- classify_batch against the scalar classify ------------------------------

tables = st.one_of(st.just(TABLE), edge_lists.map(PhaseTable))


def batch_values(table):
    """Non-negative values, exact edges, both zeros, +inf and NaN."""
    return st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(table.edges + (0.0, -0.0, math.inf, math.nan)),
    )


def batch_series(table):
    """Series on both sides of the bisect/NumPy crossover."""
    values = batch_values(table)
    return st.one_of(
        st.lists(values, max_size=NUMPY_MIN_VALUES),
        st.lists(values, min_size=NUMPY_MIN_VALUES, max_size=300),
    )


@given(st.data())
def test_classify_batch_equals_scalar_classify(data):
    table = data.draw(tables, label="table")
    values = data.draw(batch_series(table), label="values")
    assert table.classify_batch(values) == [table.classify(v) for v in values]


@given(st.data())
def test_classify_batch_names_the_first_negative(data):
    table = data.draw(tables, label="table")
    before = data.draw(batch_series(table), label="before")
    negative = data.draw(
        st.floats(max_value=-math.ulp(0.0), allow_nan=False), label="negative"
    )
    after = data.draw(
        st.lists(st.one_of(batch_values(table), st.floats(max_value=-1.0))),
        label="after",
    )
    with pytest.raises(ConfigurationError) as scalar:
        table.classify(negative)
    with pytest.raises(ConfigurationError) as batch:
        table.classify_batch(before + [negative] + after)
    assert str(batch.value) == str(scalar.value)
