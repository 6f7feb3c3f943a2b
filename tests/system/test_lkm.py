"""Tests for the kernel-module analogue and its PMI handler."""

import pytest

from repro.core.governor import PhasePredictionGovernor, StaticGovernor
from repro.core.predictors import LastValuePredictor, PhasePredictor
from repro.cpu.dvfs import DVFSInterface
from repro.errors import ConfigurationError
from repro.pmc.counters import PMCBank
from repro.pmc.events import PAPER_COUNTER_CONFIG, PMCEvent
from repro.pmc.interrupt import PMIController
from repro.system.lkm import (
    IN_HANDLER_BIT,
    PHASE_TOGGLE_BIT,
    PhaseMonitorLKM,
)
from repro.system.parallel_port import ParallelPort


def make_lkm(governor=None, granularity=1000):
    bank = PMCBank(PAPER_COUNTER_CONFIG)
    dvfs = DVFSInterface()
    port = ParallelPort()
    if governor is None:
        governor = PhasePredictionGovernor(LastValuePredictor())
    lkm = PhaseMonitorLKM(
        governor, bank, dvfs, port, granularity_uops=granularity
    )
    return lkm, bank, dvfs, port


def run_interval(lkm, bank, uops=1000, mem=0.012, cycles=800, time_s=0.0):
    bank.advance(
        {PMCEvent.UOPS_RETIRED: uops, PMCEvent.BUS_TRAN_MEM: uops * mem},
        cycles,
    )
    return lkm.handle_interrupt(time_s)


class TestLifecycle:
    def test_load_arms_counters_and_registers_handler(self):
        lkm, bank, _, _ = make_lkm()
        pmi = PMIController()
        lkm.load(pmi)
        assert lkm.loaded
        assert pmi.handler_registered
        assert bank.overflow_threshold(PMCEvent.UOPS_RETIRED) == 1000

    def test_unload_reverses_load(self):
        lkm, bank, _, _ = make_lkm()
        pmi = PMIController()
        lkm.load(pmi)
        lkm.unload(pmi)
        assert not lkm.loaded
        assert not pmi.handler_registered
        assert bank.overflow_threshold(PMCEvent.UOPS_RETIRED) is None

    def test_double_load_raises(self):
        lkm, _, _, _ = make_lkm()
        pmi = PMIController()
        lkm.load(pmi)
        with pytest.raises(ConfigurationError):
            lkm.load(pmi)

    def test_unload_without_load_raises(self):
        lkm, _, _, _ = make_lkm()
        with pytest.raises(ConfigurationError):
            lkm.unload(PMIController())

    def test_rejects_bad_parameters(self):
        bank = PMCBank(PAPER_COUNTER_CONFIG)
        dvfs = DVFSInterface()
        governor = StaticGovernor(dvfs.table.fastest)
        with pytest.raises(ConfigurationError):
            PhaseMonitorLKM(governor, bank, dvfs, granularity_uops=0)
        with pytest.raises(ConfigurationError):
            PhaseMonitorLKM(governor, bank, dvfs, handler_overhead_s=-1.0)


class TestHandlerFlow:
    """The Figure 8 control flow, step by step."""

    def test_handler_classifies_and_programs_dvfs(self):
        lkm, bank, dvfs, _ = make_lkm()
        run_interval(lkm, bank, mem=0.012)  # phase 3 -> 1200 MHz next
        assert dvfs.current.frequency_mhz == 1200

    def test_handler_restarts_counters(self):
        lkm, bank, _, _ = make_lkm()
        run_interval(lkm, bank)
        assert bank.read(PMCEvent.UOPS_RETIRED) == 0
        assert bank.tsc_cycles == 0
        assert bank.running

    def test_handler_toggles_phase_bit(self):
        lkm, bank, _, port = make_lkm()
        run_interval(lkm, bank)
        assert port.bit(PHASE_TOGGLE_BIT)
        run_interval(lkm, bank)
        assert not port.bit(PHASE_TOGGLE_BIT)

    def test_handler_clears_in_handler_bit_on_exit(self):
        lkm, bank, _, port = make_lkm()
        run_interval(lkm, bank)
        assert not port.bit(IN_HANDLER_BIT)

    def test_handler_cost_includes_transition(self):
        lkm, bank, dvfs, _ = make_lkm(granularity=1000)
        cost_with_change = run_interval(lkm, bank, mem=0.05)
        # Second identical interval: DVFS already at the target.
        cost_same = run_interval(lkm, bank, mem=0.05)
        assert cost_with_change > cost_same
        assert cost_same == pytest.approx(5e-6)

    def test_total_handler_seconds_accumulates(self):
        lkm, bank, _, _ = make_lkm()
        a = run_interval(lkm, bank, mem=0.05)
        b = run_interval(lkm, bank, mem=0.05)
        assert lkm.total_handler_seconds == pytest.approx(a + b)


class FixedBank:
    """Counter readings fixed in advance, all four of them non-zero.

    The paper's two-counter bank cannot read memory transactions and
    instructions together; this stand-in reads both, so every field
    of a log record can hold a distinct value.
    """

    tsc_cycles = 5000.0

    def stop(self):
        pass

    def restart(self):
        pass

    def read_all(self):
        return {
            PMCEvent.UOPS_RETIRED: 2000.0,
            PMCEvent.BUS_TRAN_MEM: 30.0,
            PMCEvent.INSTR_RETIRED: 1700.0,
        }


class PredictsTwo(PhasePredictor):
    name = "PredictsTwo"

    def observe(self, observation):
        pass

    def predict(self):
        return 2

    def reset(self):
        pass


class TestKernelLog:
    def test_log_records_every_field_in_place(self):
        governor = PhasePredictionGovernor(PredictsTwo())
        lkm = PhaseMonitorLKM(governor, FixedBank(), DVFSInterface())
        lkm.handle_interrupt(2.5)
        (record,) = lkm.read_log()
        assert record.interval_index == 0
        assert record.time_s == 2.5
        assert record.uops == 2000.0
        assert record.mem_transactions == 30.0
        assert record.instructions == 1700.0
        assert record.tsc_cycles == 5000.0
        assert record.mem_per_uop == 30.0 / 2000.0
        assert record.upc == 2000.0 / 5000.0
        assert record.actual_phase == 4
        assert record.predicted_phase == 2
        assert record.frequency_mhz == 1500
        assert record.next_frequency_mhz == 1400

    def test_log_records_interval_facts(self):
        lkm, bank, _, _ = make_lkm()
        run_interval(lkm, bank, uops=1000, mem=0.012, cycles=800, time_s=1.5)
        record = lkm.read_log()[0]
        assert record.interval_index == 0
        assert record.time_s == 1.5
        assert record.uops == 1000
        assert record.mem_per_uop == pytest.approx(0.012)
        assert record.upc == pytest.approx(1000 / 800)
        assert record.actual_phase == 3
        assert record.predicted_phase == 3
        assert record.frequency_mhz == 1500
        assert record.next_frequency_mhz == 1200

    def test_log_grows_per_interval(self):
        lkm, bank, _, _ = make_lkm()
        for _ in range(5):
            run_interval(lkm, bank)
        assert len(lkm.read_log()) == 5
        indices = [r.interval_index for r in lkm.read_log()]
        assert indices == [0, 1, 2, 3, 4]

    def test_clear_log(self):
        lkm, bank, _, _ = make_lkm()
        run_interval(lkm, bank)
        lkm.clear_log()
        assert lkm.read_log() == ()
        assert lkm.total_handler_seconds == 0.0
        run_interval(lkm, bank)
        assert lkm.read_log()[0].interval_index == 0
