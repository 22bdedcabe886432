"""Exception taxonomy shared across the toolkit.

``ConfigError`` marks unusable configuration (bad values, missing files,
malformed JSON); ``DataError`` marks invalid data content (malformed rows,
duplicate keys, non-finite values, mismatched inputs).  The CLI maps them
to distinct exit codes.  ``is_number`` is the one type check that config
values pass before their range is checked.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Configuration file or parameter is unusable."""


class DataError(ValueError):
    """Data content failed validation."""


def is_number(value, kind: type) -> bool:
    """``value`` is a ``kind`` (numbers.Real or numbers.Integral) and not a bool,
    so config values are checked, never coerced from strings or floats."""
    return isinstance(value, kind) and not isinstance(value, bool)
