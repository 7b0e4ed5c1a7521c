"""Exception types shared across the package, and the three rules for
settings, which raise ConfigError naming the setting: ``_check_int`` for
counts, sizes, seeds and epochs, ``_check_real`` for continuous settings
and ``_member`` for enum settings. The CLI maps the exceptions onto
process exit codes; library callers can catch the common base class.
"""

import enum
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
_INF = float("inf")


def _check_int(name: str, value: object, low: float = float("-inf")) -> None:
    """Raise ConfigError unless ``value`` is an int or a NumPy integer (not a
    bool, and not a float such as 64.0) of at least ``low``."""
    if not isinstance(value, _INTEGERS) or type(value) is bool:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def _check_real(name: str, value: object, rule: str, ok: Callable[[float], bool]) -> None:
    """Raise ConfigError unless ``value`` is an int, a float or a NumPy real
    (not a bool) that is finite and satisfies ``ok``, as ``rule`` states."""
    if type(value) is bool or not (isinstance(value, _REALS) and abs(value) < _INF and ok(value)):
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
