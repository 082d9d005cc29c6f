"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration document is malformed or fails validation."""


def config_number(where, value, kind=float):
    """``kind(value)``; a ConfigError naming ``where`` if the value is not one."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {what}, got {value!r}") from None
