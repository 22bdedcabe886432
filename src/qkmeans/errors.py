"""Exception taxonomy and the input rules shared across the toolkit.

``ConfigError`` marks unusable configuration (bad values, missing files,
malformed JSON); ``DataError`` marks invalid data content (malformed rows,
duplicate keys, non-finite values, mismatched inputs).  Both are
``ValueError``s; the CLI maps them to exit codes 1 and 2.  Each shared
input rule has one owner here: ``check_number`` (run parameters),
``check_choice`` (named options), ``read_lines`` and ``open_text`` (UTF-8
data files, whole or a piece at a time), ``parse_index`` (qubit and shot
tokens) and ``parse_pair`` (``a-b`` tokens).

The numeric-range rules live with the shot table: ``iqdata.IQShotTable``
raises DataError for an i or q value that is not finite or exceeds 2**400
in magnitude, so every later sum over a table stays finite, and for a pair,
qubit or shot index that is not an integer or lies outside int64 (with
``load_table``'s message).  ``dataset.DataSet`` and
``dataset.fit_readout_frame`` raise DataError for non-finite features.
"""

from __future__ import annotations

import codecs
import io
import numbers
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from functools import lru_cache
from pathlib import Path

# Bytes, then characters, that open_text and split_pieces read at a time.  A
# piece of 16,384 blank lines makes a list of 128 KiB; larger pieces save no
# measurable time on a 3.2 MiB table.
_PIECE = 2**14
# str.splitlines' line ends but "\r", which may open a "\r\n"
_LINE_ENDS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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
        integral or -sys.float_info.max <= value <= sys.float_info.max  # False for nan, inf and huge ints
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


@contextmanager
def open_text(path) -> Iterator[io.TextIOWrapper]:
    """The UTF-8 text file at ``path``, open with ``newline=""`` so that
    its line ends read as written.  Before any text is read, one pass
    decodes its bytes ``_PIECE`` at a time and raises ``read_lines``'
    DataError, with the same byte positions, if they do not decode."""
    with open(path, "rb") as raw:
        decoder = codecs.getincrementaldecoder("utf-8")()
        while True:
            start = raw.tell() - len(decoder.getstate()[0])  # file offset of the decoder's input
            piece = raw.read(_PIECE)
            try:
                decoder.decode(piece, final=not piece)
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text ({_whole_file_error(exc, start)})") from exc
            if not piece:
                break
        raw.seek(0)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as text:
            yield text


def _whole_file_error(exc: UnicodeDecodeError, start: int) -> str:
    """``str(exc)`` as it reads when the decoder's input begins at file
    offset ``start``: the text of the error that decoding the whole file
    raises."""
    first, last = start + exc.start, start + exc.end - 1
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {first}" if first == last
             else f"bytes in position {first}-{last}")
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def split_pieces(text: io.TextIOBase) -> Iterator[list[str]]:
    r"""The lines of the open file ``text``, with their line ends, split as
    ``str.splitlines(True)`` splits its whole text; one list per piece of
    about ``_PIECE`` characters read.  A line that a piece leaves open, or
    ends with a "\r" that the next piece may continue as "\r\n", moves on
    to the next piece, which is read at least as long, so a long line is
    joined in a number of steps that grows as its logarithm."""
    head = ""  # the line that the text read so far leaves open
    while piece := text.read(max(_PIECE, len(head))):
        lines = (head + piece).splitlines(True)
        head = "" if lines[-1][-1] in _LINE_ENDS else lines.pop()
        yield lines
    if head:
        yield [head]


def parse_index(token: str) -> int:
    """The integer of a token of ASCII digits; DataError otherwise, so
    ``int``'s signs, spaces, underscores and non-ASCII digits never reach
    an index, nor its ValueError for more digits than it converts."""
    if not (token.isdigit() and token.isascii()):
        raise DataError(f"malformed index {token!r}: expected ASCII digits")
    try:
        return int(token)
    except ValueError as exc:
        raise DataError(f"malformed index of {len(token)} digits: too long to convert") from exc


@lru_cache(maxsize=1024)  # a shot table repeats a few pair tokens on every row
def parse_pair(token: str) -> tuple[int, int]:
    """(a, b) from a pair token ``a-b`` of two ``parse_index`` tokens;
    DataError otherwise."""
    first, sep, second = token.partition("-")
    if sep:
        with suppress(DataError):
            return parse_index(first), parse_index(second)
    raise DataError(f"malformed pair {token!r}: expected <digits>-<digits>")
