"""Exception types shared across the package, and the rules for what a
public function takes, each returning the value it passed. A setting that
breaks its rule gets ConfigError naming it: ``_check_int`` for counts,
sizes, seeds and epochs, ``_check_real`` for continuous settings,
``_member`` for enum settings and ``_sequence`` for lists of settings. An
array that breaks ``_check_array`` gets InputError naming it. The CLI maps
the exceptions onto exit codes; library callers can catch the base class.
"""

import enum
import math
from collections.abc import Callable

import numpy as np


class DynLocRepError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DynLocRepError, ValueError):
    """A configuration value is invalid or inconsistent."""


class InputError(DynLocRepError, ValueError):
    """Runtime data violates a precondition (shape, finiteness, size)."""


class ParseError(DynLocRepError, ValueError):
    """A file could not be parsed; the message names the offending line."""


class NumericalError(DynLocRepError, ArithmeticError):
    """A numerical computation produced a non-finite result."""


# concrete types, not the numbers ABCs, whose isinstance costs 3x more: a step runs these rules
_INTEGERS = (int, np.integer)
_REALS = (float, int, np.floating, np.integer)
_FLOAT64 = np.dtype(np.float64)


def _check_int(name: str, value: object, low: float = float("-inf")) -> int:
    """``value``, an int or a NumPy integer (not a bool, and not a float such
    as 64.0) of at least ``low``; else ConfigError."""
    if not isinstance(value, _INTEGERS) or type(value) is bool:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _check_real(name: str, value: object, rule: str, ok: Callable[[float], bool]) -> float:
    """``value``, an int, a float or a NumPy real (not a bool) that is finite
    as a double and satisfies ``ok``, as ``rule`` states; else ConfigError."""
    try:  # isfinite converts to a double: a float32 inf is not finite, a huge int overflows
        if type(value) is not bool and isinstance(value, _REALS) and math.isfinite(value):
            if ok(value):
                return value
    except OverflowError:
        pass
    raise ConfigError(f"{name} must {rule}, got {value!r}")


def _member(name: str, kind: type[enum.Enum], value: object) -> enum.Enum:
    """``value``, a member of ``kind`` or its string value, as the member."""
    if isinstance(value, kind):
        return value
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(member.value for member in kind)
        raise ConfigError(f"{name} must be one of {allowed}, got {value!r}") from None


def _sequence(name: str, value: object, check: Callable[[object], object]) -> tuple:
    """``value``, a list or a tuple (so not a str), as the tuple of what
    ``check``, the rule of one entry, returns for each entry."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list or tuple, got {value!r}")
    return tuple(map(check, value))


def _check_array(name: str, value: object, shape: tuple, finite: bool = False) -> np.ndarray:
    """``value`` as a float64 array, ``value`` itself if it is one, once NumPy
    converts it, its axes match ``shape`` (an int is that length, a str any
    length, the same for every axis of that name, so ("n", "n") is a square)
    and, if ``finite``, every entry is finite; else InputError naming it."""
    try:
        array = np.asarray(value, dtype=_FLOAT64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an array of real numbers ({exc})") from None
    have = array.shape
    # a name stands for the length of the first axis that has it
    if have != shape and (len(have) != len(shape) or have != tuple(
        [have[shape.index(want)] if isinstance(want, str) else want for want in shape]
    )):
        text = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise InputError(f"{name} must have shape ({text}), got {have}")
    if finite and not np.isfinite(array).all():
        raise InputError(f"{name} contains non-finite values")
    return array
