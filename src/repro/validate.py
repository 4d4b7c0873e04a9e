"""One validation vocabulary for numeric parameters.

Five helpers, each ``(name, value) -> value``: the value comes back
unchanged, or a ``ValueError`` whose message starts with ``name`` and
ends with ``got {value!r}``.  All five refuse NaN, ±inf, a bool and
anything that is not a real number.  A NaN threshold does not fail on
its own — every comparison with NaN is false, so it switches its
detector off.

A dataclass config declares each field's check once, as
``field(default=..., metadata={"check": positive})``, and calls
:func:`check_fields` from ``__post_init__``; those declarations are the
list a boundary fuzzer walks.  Plain constructors call the helpers
inline.  Per-packet, per-event and per-sample guards stay hand-written:
they run millions of times, and a call there costs wall time.

This module imports nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields
from typing import Any, Callable, Optional

__all__ = [
    "finite",
    "positive",
    "non_negative",
    "probability",
    "int_in",
    "check_fields",
]

_INF = math.inf


def _is_finite(value: Any) -> bool:
    """A real number, not a bool, neither NaN nor ±inf, nor an int too
    large to be a float.  The helpers below test a float with one chained
    comparison first (NaN fails every comparison) and come here only for
    other types and for a refusal."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite(name: str, value: Any) -> Any:
    """``value``, if it is a finite real number."""
    if (type(value) is float and -_INF < value < _INF) or _is_finite(value):
        return value
    raise ValueError(f"{name} must be finite, got {value!r}")


def positive(name: str, value: Any) -> Any:
    """``value``, if it is finite and > 0."""
    if (type(value) is float and 0.0 < value < _INF) or (
        _is_finite(value) and value > 0
    ):
        return value
    raise ValueError(f"{name} must be finite and positive, got {value!r}")


def non_negative(name: str, value: Any) -> Any:
    """``value``, if it is finite and >= 0."""
    if (type(value) is float and 0.0 <= value < _INF) or (
        _is_finite(value) and value >= 0
    ):
        return value
    raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def probability(name: str, value: Any) -> Any:
    """``value``, if it is a finite number in [0, 1]."""
    if (type(value) is float and 0.0 <= value <= 1.0) or (
        _is_finite(value) and 0 <= value <= 1
    ):
        return value
    raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def int_in(lo: int, hi: Optional[int] = None) -> Callable[[str, Any], Any]:
    """The check for an int in ``lo..hi`` (no upper bound if ``hi`` is
    ``None``).  A bool, a float — even an integral one — and NaN are
    refused."""

    def check(name: str, value: Any) -> Any:
        integral = type(value) is int or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool)
        )
        if integral and value >= lo and (hi is None or value <= hi):
            return value
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an int {span}, got {value!r}")

    return check


#: Each dataclass's ``(field name, check)`` pairs, filled on first use.
_DECLARED: dict[type, tuple[tuple[str, Callable[[str, Any], Any]], ...]] = {}


def check_fields(instance: Any) -> None:
    """Run every ``metadata={"check": ...}`` a dataclass declares."""
    cls = type(instance)
    checks = _DECLARED.get(cls)
    if checks is None:
        checks = _DECLARED[cls] = tuple(
            (f.name, f.metadata["check"]) for f in fields(cls) if "check" in f.metadata
        )
    for name, check in checks:
        check(name, getattr(instance, name))
