"""Performance-monitoring event definitions.

The Pentium-M exposes two programmable performance counters plus the time
stamp counter (TSC).  The paper configures the two counters as
``UOPS_RETIRED`` (which also paces the PMI) and ``BUS_TRAN_MEM`` (memory
bus transactions).  This module names the events the simulated core can
produce; the counter bank selects among them.
"""

from __future__ import annotations

from enum import Enum, unique


@unique
class PMCEvent(Enum):
    """Countable events produced by the simulated core.

    Values are the event mnemonics used in the paper's configuration.
    """

    #: Retired micro-ops.  Used to pace the PMI at fixed uop granularity.
    UOPS_RETIRED = "UOPS_RETIRED"

    #: Memory bus transactions.  Numerator of the ``Mem/Uop`` phase metric.
    BUS_TRAN_MEM = "BUS_TRAN_MEM"

    #: Retired architectural instructions.  With UOPS_RETIRED, gives the
    #: paper's "concurrent execution" proxy (uops per instruction).
    INSTR_RETIRED = "INSTR_RETIRED"

    #: Unhalted core cycles.  With UOPS_RETIRED, gives UPC.
    CPU_CLK_UNHALTED = "CPU_CLK_UNHALTED"

    def __str__(self) -> str:
        return self.value

    # Members are singletons, so identity hashing is exact and skips
    # Enum's Python-level ``hash(self._name_)`` on every dict lookup.
    __hash__ = object.__hash__


#: Events a 2-counter Pentium-M configuration can monitor simultaneously
#: in the paper's setup (one counter is dedicated to pacing the PMI).
PAPER_COUNTER_CONFIG = (PMCEvent.UOPS_RETIRED, PMCEvent.BUS_TRAN_MEM)
