"""The simulated Pentium-M core.

Combines the analytic :class:`~repro.cpu.timing.TimingModel` with the
:class:`~repro.cpu.dvfs.DVFSInterface` and translates executed workload
segments into the performance-monitoring event deltas the PMC bank
accumulates.  The core knows nothing about phases, predictors or power —
it only retires micro-ops at whatever operating point its DVFS registers
currently hold.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.cpu.dvfs import DVFSInterface
from repro.cpu.frequency import OperatingPoint
from repro.cpu.timing import SegmentExecution, TimingModel
from repro.pmc.events import PMCEvent
from repro.workloads.segments import SegmentSpec


class CoreExecution(NamedTuple):
    """Everything produced by running one segment on the core.

    Attributes:
        segment: The segment that was executed.
        point: Operating point it ran at.
        timing: Cycle/time accounting from the timing model.
        events: PMC event deltas produced (all observable events; the
            counter bank keeps only the configured ones).
    """

    segment: SegmentSpec
    point: OperatingPoint
    timing: SegmentExecution
    events: Dict[PMCEvent, float]


class PentiumM:
    """The simulated processor: timing plus DVFS state.

    Args:
        timing: The analytic timing model (defaults to the calibrated
            Pentium-M model).
        dvfs: The DVFS register interface (defaults to the 6-point
            SpeedStep table, starting at 1.5 GHz).
    """

    def __init__(
        self,
        timing: Optional[TimingModel] = None,
        dvfs: Optional[DVFSInterface] = None,
    ) -> None:
        self._timing = timing if timing is not None else TimingModel()
        self._dvfs = dvfs if dvfs is not None else DVFSInterface()

    @property
    def timing(self) -> TimingModel:
        """The core's timing model."""
        return self._timing

    @property
    def dvfs(self) -> DVFSInterface:
        """The DVFS mode-set register interface."""
        return self._dvfs

    @property
    def operating_point(self) -> OperatingPoint:
        """The operating point currently programmed."""
        return self._dvfs.current

    def execute(self, segment: SegmentSpec) -> CoreExecution:
        """Retire ``segment`` at the current operating point.

        Returns the timing accounting and the PMC event deltas the run
        produced.  Event deltas are exact analytic counts; the counter
        *interface* (configuration, overflow, restart) lives in the PMC
        bank.
        """
        point = self._dvfs.current
        timing = self._timing.execute(segment, point)
        events = {
            PMCEvent.UOPS_RETIRED: float(segment.uops),
            PMCEvent.BUS_TRAN_MEM: segment.memory_transactions,
            PMCEvent.INSTR_RETIRED: segment.instructions,
            PMCEvent.CPU_CLK_UNHALTED: timing.cycles,
        }
        return CoreExecution(segment, point, timing, events)
