"""Loadable-kernel-module analogue: the PMI handler and its kernel log.

The paper implements phase monitoring and prediction as a Linux loadable
kernel module: a PMI handler that runs every 100 million retired
micro-ops, plus a kernel-side log that user-level tools read out through
system calls (Section 5.1, 5.4).  This module reproduces that structure:

* :class:`PhaseMonitorLKM` owns the handler (the exact flow of the
  paper's Figure 8), the governor it consults, and the kernel log;
* the "system call" surface is :meth:`PhaseMonitorLKM.read_log` /
  :meth:`PhaseMonitorLKM.clear_log`, which user-level analysis code uses
  after a run.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.core.governor import Governor, IntervalCounters
from repro.cpu.dvfs import DVFSInterface
from repro.errors import ConfigurationError
from repro.obs.events import DVFSTransition, IntervalSampled, PMIHandled
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmc.counters import PMCBank
from repro.pmc.events import PMCEvent
from repro.pmc.interrupt import DEFAULT_PMI_GRANULARITY_UOPS, PMIController
from repro.system.parallel_port import ParallelPort

#: Cost of one handler invocation (stop/read/classify/predict/log) —
#: tens of microseconds against a ~100 ms interval, per the paper's
#: "no observable overheads" argument.
DEFAULT_HANDLER_OVERHEAD_S = 5.0e-6

#: Parallel-port bit roles (Section 5.4).
PHASE_TOGGLE_BIT = 0
IN_HANDLER_BIT = 1
APP_RUNNING_BIT = 2


class KernelLogRecord(NamedTuple):
    """One sampling interval as recorded by the handler.

    Attributes:
        interval_index: 0-based interval number.
        time_s: Simulated time at handler entry.
        uops: Retired micro-ops in the interval.
        mem_transactions: Memory bus transactions in the interval.
        instructions: Retired instructions in the interval.
        tsc_cycles: Elapsed cycles (TSC delta).
        mem_per_uop: The phase metric for the interval.
        upc: Observed micro-ops per cycle.
        actual_phase: Phase classified for the finished interval.
        predicted_phase: Phase predicted for the next interval.
        frequency_mhz: Frequency the interval ran at.
        next_frequency_mhz: Frequency programmed for the next interval.
    """

    interval_index: int
    time_s: float
    uops: float
    mem_transactions: float
    instructions: float
    tsc_cycles: float
    mem_per_uop: float
    upc: float
    actual_phase: int
    predicted_phase: int
    frequency_mhz: int
    next_frequency_mhz: int


class PhaseMonitorLKM:
    """The kernel module: PMI handler plus evaluation log.

    Args:
        governor: Decision logic consulted once per interval.
        bank: The PMC bank the handler programs and reads.
        dvfs: The DVFS registers the handler writes.
        port: Parallel port for DAQ synchronisation.
        granularity_uops: PMI pacing (default: the paper's 100M uops).
        handler_overhead_s: Handler execution cost per invocation.
        tracer: Optional trace collector; every event it records is
            stamped with the handler's interval index (the software
            analogue of the parallel-port sync bits).  Defaults to the
            no-op ``NULL_TRACER``.
    """

    def __init__(
        self,
        governor: Governor,
        bank: PMCBank,
        dvfs: DVFSInterface,
        port: Optional[ParallelPort] = None,
        granularity_uops: int = DEFAULT_PMI_GRANULARITY_UOPS,
        handler_overhead_s: float = DEFAULT_HANDLER_OVERHEAD_S,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if granularity_uops <= 0:
            raise ConfigurationError(
                f"PMI granularity must be > 0, got {granularity_uops}"
            )
        if handler_overhead_s < 0:
            raise ConfigurationError(
                f"handler overhead must be >= 0, got {handler_overhead_s}"
            )
        self._governor = governor
        self._bank = bank
        self._dvfs = dvfs
        self._port = port if port is not None else ParallelPort()
        self._granularity = granularity_uops
        self._overhead_s = handler_overhead_s
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._log: List[KernelLogRecord] = []
        self._interval_index = 0
        self._loaded = False
        self._total_handler_seconds = 0.0

    @property
    def governor(self) -> Governor:
        """The governor consulted by the handler."""
        return self._governor

    @property
    def port(self) -> ParallelPort:
        """The parallel port the handler signals through."""
        return self._port

    @property
    def granularity_uops(self) -> int:
        """The PMI pacing in retired micro-ops."""
        return self._granularity

    @property
    def loaded(self) -> bool:
        """Whether the module is currently loaded."""
        return self._loaded

    @property
    def total_handler_seconds(self) -> float:
        """Cumulative time spent inside the handler this run."""
        return self._total_handler_seconds

    def load(self, pmi: PMIController) -> None:
        """Load the module: register the handler, arm the counters.

        Mirrors LKM initialisation: the pacing counter is armed to
        overflow every ``granularity_uops`` retired micro-ops.
        """
        if self._loaded:
            raise ConfigurationError("module already loaded")
        pmi.register(self.handle_interrupt)
        self._bank.set_overflow(PMCEvent.UOPS_RETIRED, float(self._granularity))
        self._bank.restart()
        self._loaded = True

    def unload(self, pmi: PMIController) -> None:
        """Unload the module: deregister the handler, disarm the PMI."""
        if not self._loaded:
            raise ConfigurationError("module is not loaded")
        pmi.unregister()
        self._bank.set_overflow(PMCEvent.UOPS_RETIRED, None)
        self._loaded = False

    def handle_interrupt(self, time_s: float) -> float:
        """The PMI handler — the exact flow of the paper's Figure 8.

        Stop/read the counters, translate readings to the phase, update
        predictor state, predict the next phase, translate it to a DVFS
        setting, apply it if it differs from the current one, log, then
        reinitialise and restart the counters.

        Args:
            time_s: Simulated time at handler entry.

        Returns:
            Handler execution time in seconds (fixed overhead plus any
            DVFS transition stall).
        """
        tracer = self._tracer
        tracing = tracer.enabled
        interval_index = self._interval_index
        if tracing:
            tracer.begin_interval(interval_index)
        self._port.set_bit(IN_HANDLER_BIT)
        self._bank.stop()
        readings = self._bank.read_all()
        counters = IntervalCounters(
            readings.get(PMCEvent.UOPS_RETIRED, 0.0),
            readings.get(PMCEvent.BUS_TRAN_MEM, 0.0),
            readings.get(PMCEvent.INSTR_RETIRED, 0.0),
            self._bank.tsc_cycles,
        )
        point_before = self._dvfs.current
        frequency_before = point_before.frequency_mhz
        if tracing:
            tracer.emit(
                IntervalSampled(
                    interval=interval_index,
                    time_s=time_s,
                    uops=int(counters.uops),
                    mem_transactions=int(counters.mem_transactions),
                    instructions=int(counters.instructions),
                    tsc_cycles=int(counters.tsc_cycles),
                    mem_per_uop=counters.mem_per_uop,
                    upc=counters.upc,
                    frequency_mhz=float(frequency_before),
                )
            )
        decision = self._governor.decide(counters)
        transition_s = self._dvfs.request(decision.setting, time_s)
        if tracing and decision.setting != point_before:
            tracer.emit(
                DVFSTransition(
                    interval=interval_index,
                    from_mhz=float(point_before.frequency_mhz),
                    to_mhz=float(decision.setting.frequency_mhz),
                    from_voltage_v=point_before.voltage_v,
                    to_voltage_v=decision.setting.voltage_v,
                    transition_s=transition_s,
                    predicted_phase=decision.predicted_phase,
                )
            )
        self._log.append(
            KernelLogRecord(
                interval_index,
                time_s,
                counters.uops,
                counters.mem_transactions,
                counters.instructions,
                counters.tsc_cycles,
                counters.mem_per_uop,
                counters.upc,
                decision.actual_phase,
                decision.predicted_phase,
                frequency_before,
                decision.setting.frequency_mhz,
            )
        )
        self._interval_index += 1
        self._port.toggle_bit(PHASE_TOGGLE_BIT)
        self._bank.restart()
        self._port.clear_bit(IN_HANDLER_BIT)
        handler_seconds = self._overhead_s + transition_s
        self._total_handler_seconds += handler_seconds
        if tracing:
            tracer.emit(
                PMIHandled(
                    interval=interval_index,
                    time_s=time_s,
                    handler_seconds=handler_seconds,
                    transition_s=transition_s,
                )
            )
        return handler_seconds

    # -- the "system call" surface used by user-level tooling --------------

    def read_log(self) -> Tuple[KernelLogRecord, ...]:
        """Read out the kernel log (user-level evaluation syscall)."""
        return tuple(self._log)

    def clear_log(self) -> None:
        """Clear the kernel log and interval numbering."""
        self._log.clear()
        self._interval_index = 0
        self._total_handler_seconds = 0.0
