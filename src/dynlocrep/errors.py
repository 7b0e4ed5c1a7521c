"""Exception types shared across the package, and the integer rule.

The CLI maps these onto process exit codes; library callers can catch
the common base class.
"""

import numbers


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


def _check_int(name: str, value: object, low: float = float("-inf")) -> None:
    """Raise ConfigError unless ``value`` is an int or a NumPy integer (not a
    bool, and not a float such as 64.0) of at least ``low``: the one rule for
    every count, size and seed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
