"""Exception taxonomy and the input rules shared across the toolkit.

``ConfigError`` marks unusable configuration (bad values, missing files,
malformed JSON); ``DataError`` marks invalid data content (malformed rows,
duplicate keys, non-finite values, mismatched inputs).  Both are
``ValueError``s; the CLI maps them to exit codes 1 and 2.  Each shared
input rule has one owner here: ``check_number`` (run parameters),
``check_choice`` (named options), ``read_lines`` (UTF-8 data files),
``parse_index`` and its column form ``all_indices`` (qubit and shot
tokens) and ``parse_pair`` (``a-b`` tokens).

The numeric-range rules live with the shot table: ``iqdata.IQShotTable``
raises DataError for an i or q value that is not finite or exceeds 2**400
in magnitude, so every later sum over a table stays finite, and for a pair,
qubit or shot index that is not an integer or lies outside int64 (with
``load_table``'s message).  ``dataset.DataSet`` and
``dataset.fit_readout_frame`` raise DataError for non-finite features.
"""

from __future__ import annotations

import numbers
import sys
from contextlib import suppress
from functools import lru_cache
from pathlib import Path


class ConfigError(ValueError):
    """Configuration file or parameter is unusable."""


class DataError(ValueError):
    """Data content failed validation."""


def check_number(name: str, value, low=None, *, integral: bool = True) -> None:
    """Raise ConfigError unless ``value`` is an integer (with ``integral=False``,
    a real that converts to a finite float64), not a bool, and ``>= low``.
    Values are checked, never coerced from strings, floats or bools.  A
    plain ``int`` at or above ``low`` passes without the ``numbers`` ABC
    tests (every seed derivation checks each entry); anything else takes
    them."""
    if integral and type(value) is int and (low is None or value >= low):
        return
    kind, what = (numbers.Integral, "an integer") if integral else (numbers.Real, "a finite number")
    if isinstance(value, bool) or not isinstance(value, kind) or not (
        integral or abs(value) <= sys.float_info.max  # False for nan, inf and huge ints
    ):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value!r}")


def check_choice(name: str, value, choices) -> None:
    """Raise ConfigError unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}")


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 text file; DataError if it does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def _ascii_digits(text: str) -> bool:
    """The index rule: ``text`` is one or more ASCII digits."""
    return text.isdigit() and text.isascii()


def parse_index(token: str) -> int:
    """The integer of a token of ASCII digits; DataError otherwise, so
    ``int``'s signs, spaces, underscores and non-ASCII digits never reach
    an index, nor its ValueError for more digits than it converts."""
    if not _ascii_digits(token):
        raise DataError(f"malformed index {token!r}: expected ASCII digits")
    try:
        return int(token)
    except ValueError as exc:
        raise DataError(f"malformed index of {len(token)} digits: too long to convert") from exc


def all_indices(tokens: list[str]) -> bool:
    """Whether every token would pass ``parse_index``: the column form of
    its rule, one test on the concatenation, which is ASCII digits exactly
    when every token is and none is empty."""
    return not tokens or (all(tokens) and _ascii_digits("".join(tokens)))


@lru_cache(maxsize=1024)  # a shot table repeats a few pair tokens on every row
def parse_pair(token: str) -> tuple[int, int]:
    """(a, b) from a pair token ``a-b`` of two ``parse_index`` tokens;
    DataError otherwise."""
    first, sep, second = token.partition("-")
    if sep:
        with suppress(DataError):
            return parse_index(first), parse_index(second)
    raise DataError(f"malformed pair {token!r}: expected <digits>-<digits>")
