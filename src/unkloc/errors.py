"""Shared exception type and the checks every config record uses."""

import sys


class ConfigError(ValueError):
    """Invalid configuration: bad family parameters, malformed config files,
    or preconditions (like threshold positivity) that make a run meaningless."""


def whole(name: str, value, low: int | None = None) -> int:
    """value as an int; a ConfigError naming it unless value is a whole
    number (at least low, when low is given) and not a boolean."""
    try:
        if not isinstance(value, bool) and int(value) == value and (low is None or value >= low):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    bound = "" if low is None else f" >= {low}"
    raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def number(name: str, value):
    """value, unchanged; a ConfigError naming it unless it is an int or a float and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def density(value, name: str = "n") -> int:
    """A sample density n as an int: a whole number >= 1 that a float can
    hold, as every formula in n (lam/n, n**(-1/3)) runs in floats."""
    n = whole(name, value, 1)
    if n > sys.float_info.max:  # an int compares exactly with a float
        raise ConfigError(f"{name} must be at most {sys.float_info.max:g}, the largest float; "
                          f"got an integer of {n.bit_length()} bits")
    return n


def refuse_unread(record: dict, what: str, reads: tuple[str, ...]) -> None:
    """A ConfigError naming every entry of record that is set (not null)
    but is not one of the keys in reads."""
    unread = sorted(key for key, value in record.items() if value is not None and key not in reads)
    if unread:
        raise ConfigError(f"{what} does not read {unread}")
