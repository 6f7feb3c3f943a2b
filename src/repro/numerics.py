"""Tolerance-aware float comparison helpers.

Simulation quantities (watts, joules, seconds) are accumulated floats,
so exact ``==``/``!=`` comparisons on them are either redundant (the
value is exactly representable) or wrong (it is not).  The static
analysis layer (:mod:`repro.devtools.lint`, rule ``no-float-equality``)
forbids raw float equality inside ``core/`` and ``power/``; these
helpers are the sanctioned replacements, with one explicit absolute
tolerance shared across the simulator so that determinism-sensitive
guards behave identically everywhere.
"""

from __future__ import annotations

import math
from typing import Optional

#: Absolute tolerance below which an accumulated physical quantity
#: (seconds, joules, watts) is treated as zero.  Far below one PMI
#: interval (~0.07 s) or one handler dispatch (~3 us), far above
#: accumulated rounding noise.
ABSOLUTE_TOLERANCE = 1e-12


def is_zero(value: float, tolerance: float = ABSOLUTE_TOLERANCE) -> bool:
    """Whether ``value`` is zero to within an absolute tolerance."""
    return abs(value) <= tolerance


def approx_equal(
    a: float,
    b: float,
    rel_tolerance: float = 1e-9,
    abs_tolerance: float = ABSOLUTE_TOLERANCE,
) -> bool:
    """Tolerance-aware float equality (symmetric, like ``math.isclose``)."""
    return math.isclose(a, b, rel_tol=rel_tolerance, abs_tol=abs_tolerance)


def finite_float(value: object) -> Optional[float]:
    """``value`` as a finite float, or ``None`` when it is not one.

    Booleans, non-numbers, NaN, the infinities (``json`` reads ``1e400``
    as ``inf``) and integers too large for a float are all ``None``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None
