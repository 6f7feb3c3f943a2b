"""Float comparison helpers and the narrowing primitives for outside input.

Simulation quantities (watts, joules, seconds) are accumulated floats,
so exact ``==``/``!=`` comparisons on them are either redundant (the
value is exactly representable) or wrong (it is not).  The static
analysis layer (:mod:`repro.devtools.lint`, rule ``no-float-equality``)
forbids raw float equality inside ``core/`` and ``power/``; these
helpers are the sanctioned replacements, with one explicit absolute
tolerance shared across the simulator so that determinism-sensitive
guards behave identically everywhere.

Every payload that reaches the program from outside the process comes
in through the functions below: a wire request line, a checkpoint record,
a trace file, a workload trace, a model or bench artifact.
:func:`read_text_file` reads an outside file and :func:`decode_object`
decodes outside JSON text into one object; the ``as_*`` primitives then
narrow each field — a ``hello`` config field, a ``restore`` checkpoint
and the predictor or model state inside it, a trace event's fields.
Each returns the value as the type it names or raises
:class:`~repro.errors.ConfigurationError` naming ``label`` and the
offending value, cut by :func:`shown` to a bounded excerpt; the serving
layer answers that error as ``bad_request`` and the CLI as one ``error:``
line with exit status 2.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.errors import ConfigurationError

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


#: Longest excerpt of an outside value that an error message repeats.
SHOWN_CHARS = 64


def shown(value: object) -> str:
    """``repr(value)`` cut to :data:`SHOWN_CHARS`, its full length noted,
    so a message naming an outside value stays short.  A value too deep
    (or an int too long) to repr is named by its type."""
    try:
        text = repr(value)
    except (RecursionError, ValueError):
        return f"<{type(value).__name__} too large to show>"
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} chars)"


def read_text_file(path: Union[str, Path], label: str) -> str:
    """The text of an outside UTF-8 file.

    A file that cannot be read (missing, a directory, no permission) or
    is not UTF-8 raises ``ConfigurationError`` naming ``label`` and
    ``path``.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise ConfigurationError(
            f"cannot read {label} {path}: {reason}"
        ) from None


def decode_object(text: str, label: str) -> Dict[str, object]:
    """Outside JSON text decoded as one object (see :func:`as_dict`).

    Text that is not JSON, or JSON nested past the interpreter's
    recursion limit (which ``json`` raises as ``RecursionError``),
    raises ``ConfigurationError`` like any other bad input.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as error:
        raise ConfigurationError(
            f"invalid {label}: not valid JSON: {error}"
        ) from None
    return as_dict(value, label)


def as_dict(value: object, label: str) -> Dict[str, object]:
    """``value`` as a JSON object.  Its values are not narrowed."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{label} must be a JSON object, got {shown(value)}"
        )
    return value


def as_int(value: object, label: str, minimum: Optional[int] = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given.

    Booleans are not ints here: ``true`` is never a count or a phase id.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{label} must be an int, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"{label} must be >= {minimum}, got {shown(value)}"
        )
    return value


def as_opt_int(
    value: object, label: str, minimum: Optional[int] = None
) -> Optional[int]:
    """``value`` as an int (see :func:`as_int`), or ``None``."""
    return None if value is None else as_int(value, label, minimum)


def as_float(value: object, label: str) -> float:
    """``value`` as a finite float (see :func:`finite_float`)."""
    number = finite_float(value)
    if number is None:
        raise ConfigurationError(
            f"{label} must be a finite number, got {shown(value)}"
        )
    return number


def as_opt_float(value: object, label: str) -> Optional[float]:
    """``value`` as a finite float (see :func:`as_float`), or ``None``."""
    return None if value is None else as_float(value, label)


def as_bool(value: object, label: str) -> bool:
    """``value`` as a bool; ``0`` and ``1`` are not bools."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{label} must be a bool, got {shown(value)}")
    return value


def as_str(value: object, label: str) -> str:
    """``value`` as a string."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{label} must be a string, got {shown(value)}")
    return value


def as_list(
    value: object, label: str, length: Optional[int] = None
) -> Sequence[object]:
    """``value`` as a list or tuple, of exactly ``length`` items when
    ``length`` is given.  The items are not narrowed."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{label} must be a list, got {shown(value)}")
    if length is not None and len(value) != length:
        raise ConfigurationError(
            f"{label} must hold {length} items, got {shown(value)}"
        )
    return value
