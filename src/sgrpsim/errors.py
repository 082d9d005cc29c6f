"""Exception types shared across the package."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration document is malformed or fails validation."""


def config_number(where, value, kind=float):
    """``kind(value)``; a ConfigError naming ``where`` if the value is not one.

    An integer field accepts an integral number (``10.0``) but not ``2.5``,
    and no field accepts a JSON boolean.
    """
    what = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be {what}, got {value!r}") from None
    return out


def config_keys(cfg, what, *names):
    """``cfg[name]`` for each of ``names``; a missing one is "<what> needs key 'name'"."""
    try:
        return [cfg[name] for name in names]
    except KeyError as missing:
        raise ConfigError(f"{what} needs key {missing}") from None


def positive_int(name, value) -> int:
    """``int(value)``; a DomainError naming ``name`` unless it is an integer >= 1.

    An integral float counts (``2.0`` is 2), so every count, order and
    component number in the package follows one rule.
    """
    if not (1 <= value < math.inf and int(value) == value):
        raise DomainError(f"{name} must be a positive integer, got {value}")
    return int(value)
