"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from runtime
simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters.

    Examples: a phase table whose bin edges are not monotonically
    increasing, a PMC programmed with an unknown event, or a DVFS request
    for a frequency the platform does not support.
    """


class SimulationError(ReproError):
    """The simulated machine reached an inconsistent state at runtime.

    This signals a bug in the caller's wiring of components (for example
    running a workload on a machine whose PMI handler was never
    registered) rather than bad input values.
    """
