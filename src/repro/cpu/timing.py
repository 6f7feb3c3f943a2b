"""Analytic timing model for the simulated Pentium-M core.

The model captures the two first-order effects the paper's Section 4
relies on:

1. *Core work scales with frequency.*  A segment's compute portion takes
   ``uops / upc_core`` cycles regardless of frequency, so its wall-clock
   time shrinks linearly as the clock speeds up.
2. *Memory does not.*  Each memory bus transaction costs a fixed number of
   nanoseconds (DRAM latency is set by the memory system, not the core
   clock), so its cost *in core cycles* grows with frequency.

Consequently the observed micro-ops-per-cycle (UPC) of a memory-bound
segment **rises** as frequency drops (the paper's Figure 7, left), while
``Mem/Uop`` — transactions divided by micro-ops, both frequency-independent
counts — is invariant (Figure 7, right).  The invariance is *emergent*
here: nothing in this module special-cases it.

An ``overlap`` factor models memory-level parallelism: the fraction of each
transaction's latency hidden under other useful work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.cpu.frequency import OperatingPoint
from repro.errors import ConfigurationError
from repro.workloads.segments import SegmentSpec

#: Default effective memory transaction latency in nanoseconds.  This is
#: the *exposed* latency per bus transaction after typical out-of-order
#: overlap on a Pentium-M class core; it calibrates the simulator so that
#: the most memory-bound SPEC points (mcf-like, Mem/Uop ~ 0.1) land near
#: UPC ~ 0.06-0.1 at 1.5 GHz, matching the paper's Figure 6 envelope.
DEFAULT_MEMORY_LATENCY_NS = 100.0


class SegmentExecution(NamedTuple):
    """The result of executing one segment at one operating point.

    Attributes:
        cycles: Total core cycles consumed.
        seconds: Wall-clock time consumed.
        core_cycles: Cycles spent doing useful core work.
        stall_cycles: Cycles spent stalled on memory transactions.
        upc: Observed micro-ops per cycle (frequency dependent).
        duty: Fraction of cycles doing core work; feeds the power model's
            activity factor.
    """

    cycles: float
    seconds: float
    core_cycles: float
    stall_cycles: float
    upc: float
    duty: float


@dataclass(frozen=True)
class TimingModel:
    """Frequency-aware analytic timing for workload segments.

    Args:
        memory_latency_ns: Exposed latency of one memory bus transaction,
            in nanoseconds.  Fixed in wall-clock terms: it does not scale
            with core frequency.
        overlap: Fraction of memory latency hidden under concurrent
            execution (memory-level parallelism), in ``[0, 1)``.
    """

    memory_latency_ns: float = DEFAULT_MEMORY_LATENCY_NS
    overlap: float = 0.0

    def __post_init__(self) -> None:
        if self.memory_latency_ns <= 0:
            raise ConfigurationError(
                f"memory latency must be > 0 ns, got {self.memory_latency_ns}"
            )
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigurationError(
                f"overlap must be in [0, 1), got {self.overlap}"
            )

    @property
    def exposed_latency_ns(self) -> float:
        """Per-transaction latency after platform overlap, in ns."""
        return self.memory_latency_ns * (1.0 - self.overlap)

    def segment_latency_ns(self, segment: SegmentSpec) -> float:
        """Per-transaction exposed latency for ``segment``, in ns.

        Platform overlap and the segment's own memory-level parallelism
        compose multiplicatively: each hides a fraction of what the other
        leaves exposed.
        """
        return self.exposed_latency_ns * (1.0 - segment.mem_overlap)

    def core_cycles(self, segment: SegmentSpec) -> float:
        """Cycles of pure core work for ``segment`` (frequency-free)."""
        return segment.uops / segment.upc_core

    def stall_cycles(self, segment: SegmentSpec, point: OperatingPoint) -> float:
        """Memory stall cycles for ``segment`` at ``point``.

        A transaction costs ``segment_latency_ns`` nanoseconds; at
        ``f`` GHz that is ``segment_latency_ns * f`` core cycles.
        """
        return (
            segment.memory_transactions
            * self.segment_latency_ns(segment)
            * point.frequency_ghz
        )

    def cycles(self, segment: SegmentSpec, point: OperatingPoint) -> float:
        """Total cycles to execute ``segment`` at ``point``."""
        return self.core_cycles(segment) + self.stall_cycles(segment, point)

    def seconds(self, segment: SegmentSpec, point: OperatingPoint) -> float:
        """Wall-clock seconds to execute ``segment`` at ``point``."""
        return self.cycles(segment, point) / point.frequency_hz

    def upc(self, segment: SegmentSpec, point: OperatingPoint) -> float:
        """Observed micro-ops per cycle at ``point``.

        This is the frequency-*dependent* metric the paper warns against
        using for phase classification under DVFS.
        """
        return segment.uops / self.cycles(segment, point)

    def execute(
        self, segment: SegmentSpec, point: OperatingPoint
    ) -> SegmentExecution:
        """Execute ``segment`` at ``point`` and return full accounting."""
        core = self.core_cycles(segment)
        stall = self.stall_cycles(segment, point)
        total = core + stall
        return SegmentExecution(
            total,
            total / point.frequency_hz,
            core,
            stall,
            segment.uops / total,
            core / total,
        )

    def slowdown(
        self,
        segment: SegmentSpec,
        point: OperatingPoint,
        reference: OperatingPoint,
    ) -> float:
        """Execution-time ratio of ``point`` relative to ``reference``.

        A value of 1.05 means running at ``point`` takes 5% longer than
        at ``reference``.  CPU-bound segments approach the frequency
        ratio; fully memory-bound segments approach 1.0 — this is the
        "CPU slack" that DVFS exploits.
        """
        return self.seconds(segment, point) / self.seconds(segment, reference)

    def max_upc_boundary(
        self, mem_per_uop: float, point: OperatingPoint, peak_upc: float = 2.0
    ) -> float:
        """Maximum achievable UPC at a given ``Mem/Uop`` level.

        Reproduces the "SPEC boundary" of the paper's Figure 6: even a
        perfectly parallel core (retiring ``peak_upc`` micro-ops per cycle
        between stalls) cannot exceed this observed UPC once memory time
        is accounted for.
        """
        if mem_per_uop < 0:
            raise ConfigurationError(
                f"mem_per_uop must be >= 0, got {mem_per_uop}"
            )
        cycles_per_uop = (
            1.0 / peak_upc
            + mem_per_uop * self.exposed_latency_ns * point.frequency_ghz
        )
        return 1.0 / cycles_per_uop
