"""The full simulated machine (paper Figure 9).

Wires every substrate together: the Pentium-M core with its DVFS
registers, the PMC bank and PMI controller, the kernel module with the
governor, the power model with exact energy integration, the parallel
port, and — optionally — the external DAQ measurement path.

:meth:`Machine.run` executes a workload trace under a governor and
returns a :class:`~repro.system.metrics.RunResult`.  The execution loop
is event-exact with respect to the counter architecture: workload
segments are split precisely at counter-overflow boundaries, the PMI is
latched by the overflow and dispatched at the slice boundary, and the
handler's decision takes effect for the following slice — the same
ordering as the deployed system.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.governor import Governor
from repro.cpu.dvfs import DVFSInterface
from repro.cpu.frequency import OperatingPoint, SpeedStepTable
from repro.cpu.pentium_m import PentiumM
from repro.cpu.timing import TimingModel
from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmc.counters import PMCBank
from repro.pmc.events import PAPER_COUNTER_CONFIG, PMCEvent
from repro.pmc.interrupt import DEFAULT_PMI_GRANULARITY_UOPS, PMIController
from repro.power.daq import DataAcquisitionSystem
from repro.power.energy import EnergyAccumulator
from repro.power.model import PowerModel
from repro.power.thermal import ThermalModel
from repro.system.lkm import (
    APP_RUNNING_BIT,
    DEFAULT_HANDLER_OVERHEAD_S,
    IN_HANDLER_BIT,
    PhaseMonitorLKM,
)
from repro.system.metrics import IntervalMetrics, RunResult
from repro.system.parallel_port import ParallelPort
from repro.workloads.segments import SegmentSpec, WorkloadTrace


class Machine:
    """A complete simulated Pentium-M measurement platform.

    Args:
        timing: Core timing model (defaults to the calibrated model).
        power: Power model (defaults to the calibrated model).
        speedstep: Available operating points (defaults to Table 2's).
        granularity_uops: PMI pacing (defaults to 100M uops).
        handler_overhead_s: PMI handler cost per invocation.
    """

    def __init__(
        self,
        timing: Optional[TimingModel] = None,
        power: Optional[PowerModel] = None,
        speedstep: Optional[SpeedStepTable] = None,
        granularity_uops: int = DEFAULT_PMI_GRANULARITY_UOPS,
        handler_overhead_s: float = DEFAULT_HANDLER_OVERHEAD_S,
    ) -> None:
        self._timing = timing if timing is not None else TimingModel()
        self._power = power if power is not None else PowerModel()
        self._speedstep = speedstep if speedstep is not None else SpeedStepTable()
        self._granularity = granularity_uops
        self._handler_overhead_s = handler_overhead_s

    @property
    def timing(self) -> TimingModel:
        """The platform timing model."""
        return self._timing

    @property
    def power_model(self) -> PowerModel:
        """The platform power model."""
        return self._power

    @property
    def speedstep(self) -> SpeedStepTable:
        """The platform operating points."""
        return self._speedstep

    def run(
        self,
        trace: WorkloadTrace,
        governor: Governor,
        daq: Optional[DataAcquisitionSystem] = None,
        initial_point: Optional[OperatingPoint] = None,
        thermal: Optional[ThermalModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> RunResult:
        """Execute ``trace`` under ``governor`` and measure everything.

        Args:
            trace: The workload to run.
            governor: Decision logic consulted by the PMI handler.  It is
                reset before the run starts.
            daq: Optional external measurement unit; when given, it
                samples the whole run on its own 40 us grid.
            initial_point: Starting operating point (default: fastest).
            thermal: Optional package thermal model, advanced through
                every execution slice (a thermally-aware governor can
                hold a reference to the same model and read its live
                temperature).
            tracer: Optional trace collector wired through the kernel
                module, governor and predictor.  Recording is
                zero-perturbation: the returned result is bit-identical
                with or without it.

        Returns:
            The complete run accounting.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        governor.reset()
        governor.bind_tracer(tracer)
        dvfs = DVFSInterface(self._speedstep, initial=initial_point)
        core = PentiumM(self._timing, dvfs)
        bank = PMCBank(PAPER_COUNTER_CONFIG)
        pmi = PMIController()
        port = ParallelPort()
        lkm = PhaseMonitorLKM(
            governor,
            bank,
            dvfs,
            port,
            granularity_uops=self._granularity,
            handler_overhead_s=self._handler_overhead_s,
            tracer=tracer,
        )
        lkm.load(pmi)
        energy = EnergyAccumulator()
        port.set_bit(APP_RUNNING_BIT)

        time_s = 0.0
        # The interval now executing: seconds, energy, instructions.
        seconds = energy_j = instructions = 0.0
        finished_intervals: List[Tuple[float, float, float]] = []

        for segment in trace:
            remaining: Optional[SegmentSpec] = segment
            while remaining is not None:
                piece, remaining = self._next_piece(bank, remaining)
                execution = core.execute(piece)
                power_w = self._power.power(
                    execution.point,
                    execution.timing.duty,
                    temperature_c=(
                        thermal.temperature_c if thermal is not None else None
                    ),
                )
                energy.add_slice(power_w, execution.timing.seconds)
                if daq is not None:
                    daq.observe_slice(
                        time_s,
                        execution.timing.seconds,
                        power_w,
                        execution.point.voltage_v,
                        port.value,
                    )
                if thermal is not None:
                    thermal.advance(power_w, execution.timing.seconds)
                time_s += execution.timing.seconds
                seconds += execution.timing.seconds
                energy_j += power_w * execution.timing.seconds
                instructions += piece.instructions

                overflowed = bank.advance(
                    execution.events, execution.timing.cycles
                )
                if PMCEvent.UOPS_RETIRED in overflowed:
                    pmi.raise_interrupt()
                    # The handler runs at the pre-decision operating
                    # point; its decision only affects the next slice.
                    handler_point = dvfs.current
                    handler_power = self._power.power(
                        handler_point,
                        1.0,
                        temperature_c=(
                            thermal.temperature_c
                            if thermal is not None
                            else None
                        ),
                    )
                    handler_s = pmi.dispatch(time_s)
                    energy.add_slice(handler_power, handler_s)
                    if daq is not None:
                        daq.observe_slice(
                            time_s,
                            handler_s,
                            handler_power,
                            handler_point.voltage_v,
                            port.value | (1 << IN_HANDLER_BIT),
                        )
                    if thermal is not None:
                        thermal.advance(handler_power, handler_s)
                    time_s += handler_s
                    finished_intervals.append((seconds, energy_j, instructions))
                    seconds = energy_j = instructions = 0.0

        port.clear_bit(APP_RUNNING_BIT)
        lkm.unload(pmi)

        records = lkm.read_log()
        if len(records) != len(finished_intervals):
            raise SimulationError(
                f"kernel log has {len(records)} records but the machine "
                f"accounted {len(finished_intervals)} intervals"
            )
        intervals = tuple(
            IntervalMetrics(record, *accounting)
            for record, accounting in zip(records, finished_intervals)
        )
        return RunResult(
            workload_name=trace.name,
            governor_name=governor.name,
            intervals=intervals,
            total_instructions=trace.total_instructions,
            total_uops=float(trace.total_uops),
            total_seconds=energy.seconds,
            total_energy_j=energy.energy_j,
            handler_seconds=lkm.total_handler_seconds,
            transition_count=dvfs.transition_count,
        )

    @staticmethod
    def _next_piece(
        bank: PMCBank, segment: SegmentSpec
    ) -> "tuple[SegmentSpec, Optional[SegmentSpec]]":
        """Split ``segment`` at the next counter-overflow boundary."""
        to_overflow = bank.uops_until_overflow(PMCEvent.UOPS_RETIRED)
        if to_overflow is None or to_overflow >= segment.uops:
            return segment, None
        boundary = int(to_overflow)
        if boundary <= 0:
            raise SimulationError(
                "pacing counter already at overflow outside the handler"
            )
        if boundary >= segment.uops:
            return segment, None
        return segment.split(boundary)
