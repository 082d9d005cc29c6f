"""Exception types shared across the package."""


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
