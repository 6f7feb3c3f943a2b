"""The per-interval records: immutable, picklable values with fixed fields.

Seven records cross the simulated PMI cycle once per interval.  Each is
a ``NamedTuple``: keyword and positional construction agree, fields
keep their declared order, assignment fails, every record survives a
pickle round trip, and a record of hashable values hashes by value.
"""

import pickle

import pytest

from repro.core.governor import GovernorDecision, IntervalCounters
from repro.core.predictors import PhaseObservation
from repro.cpu.frequency import OperatingPoint
from repro.cpu.pentium_m import CoreExecution
from repro.cpu.timing import SegmentExecution
from repro.pmc.events import PMCEvent
from repro.system.lkm import KernelLogRecord
from repro.system.metrics import IntervalMetrics
from repro.workloads.segments import SegmentSpec

POINT = OperatingPoint(1200, 1356)

TIMING = dict(
    cycles=3.0e8,
    seconds=0.25,
    core_cycles=1.0e8,
    stall_cycles=2.0e8,
    upc=1 / 3,
    duty=1 / 3,
)

LOG = dict(
    interval_index=7,
    time_s=1.5,
    uops=1.0e8,
    mem_transactions=1.2e6,
    instructions=8.0e7,
    tsc_cycles=1.25e8,
    mem_per_uop=0.012,
    upc=0.8,
    actual_phase=3,
    predicted_phase=4,
    frequency_mhz=1500,
    next_frequency_mhz=1000,
)

#: Each record with one value per field, in declared order.
RECORDS = {
    IntervalCounters: dict(
        uops=1.0e8, mem_transactions=1.2e6, instructions=8.0e7, tsc_cycles=1.25e8
    ),
    GovernorDecision: dict(actual_phase=3, predicted_phase=4, setting=POINT),
    PhaseObservation: dict(phase=3, mem_per_uop=0.012),
    SegmentExecution: TIMING,
    CoreExecution: dict(
        segment=SegmentSpec(uops=1_000_000, mem_per_uop=0.01, upc_core=1.2),
        point=POINT,
        timing=SegmentExecution(**TIMING),
        events={PMCEvent.UOPS_RETIRED: 1.0e6, PMCEvent.BUS_TRAN_MEM: 1.0e4},
    ),
    KernelLogRecord: LOG,
    IntervalMetrics: dict(
        record=KernelLogRecord(**LOG),
        seconds=0.07,
        energy_j=0.7,
        instructions=8.0e7,
    ),
}

#: (record, the field set to zero, property, the property at that zero).
ZERO_GUARDS = (
    (IntervalCounters, "uops", "mem_per_uop"),
    (IntervalCounters, "tsc_cycles", "upc"),
    (IntervalMetrics, "seconds", "power_w"),
    (IntervalMetrics, "seconds", "bips"),
)


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record_type(request):
    return request.param


def test_keyword_and_positional_construction_agree(record_type):
    fields = RECORDS[record_type]
    assert record_type._fields == tuple(fields)
    by_keyword = record_type(**fields)
    by_position = record_type(*fields.values())
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_position, name) is value


def test_fields_cannot_be_assigned(record_type):
    fields = RECORDS[record_type]
    record = record_type(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_pickle_round_trips(record_type):
    record = record_type(**RECORDS[record_type])
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is record_type
    assert restored == record


@pytest.mark.parametrize(
    "record_type",
    [cls for cls in RECORDS if cls is not CoreExecution],  # events: a dict
    ids=lambda cls: cls.__name__,
)
def test_records_hash_by_value(record_type):
    fields = RECORDS[record_type]
    assert hash(record_type(**fields)) == hash(record_type(*fields.values()))


@pytest.mark.parametrize("record_type, field, prop", ZERO_GUARDS)
def test_properties_guard_against_zero(record_type, field, prop):
    record = record_type(**{**RECORDS[record_type], field: 0.0})
    assert getattr(record, prop) == 0.0
    assert getattr(record_type(**RECORDS[record_type]), prop) > 0.0
