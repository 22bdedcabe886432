"""Block-wise shot-table I/O against the row-by-row reference in
``table_io_reference``: the same table or the same DataError from every
file, read in pieces of any size, the same bytes from every table,
bit-exact round trips, and memory bounds that keep a whole-file line or
token list from coming back."""

from __future__ import annotations

import tracemalloc
from itertools import cycle

import numpy as np
import pytest
import table_io_reference as reference
from hypothesis import HealthCheck, example, given, settings, strategies as st
from test_parser_fuzz import shot_files

from qkmeans import errors, iqdata
from qkmeans.cli import main
from qkmeans.errors import DataError
from qkmeans.iqdata import (
    _BLOCK_ROWS,
    _COLUMNS,
    _HEADER,
    SCHEDULES,
    IQShotTable,
    crosstalk_demo_model,
    default_coupling_map,
    load_table,
    save_table,
    synthesize,
)

MiB = 2**20


def contents(table):
    """The device and every column's dtype and bytes (so -0.0 and 0.0 differ)."""
    return table.device, [(name, getattr(table, name).dtype.str, getattr(table, name).tobytes())
                          for name in _COLUMNS]


def outcome(load, path):
    """What ``load(path)`` gives: the DataError message, or the table's contents."""
    try:
        return contents(load(path))
    except DataError as exc:
        return str(exc)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shot_files)
def test_reader_matches_reference_on_fuzzed_files(tmp_path, content):
    path = tmp_path / "shots.csv"
    path.write_bytes(content)
    assert outcome(load_table, path) == outcome(reference.load_table, path)


@pytest.fixture(scope="module")
def long_rows(tmp_path_factory):
    """The data rows of a valid table a little over two blocks long, which
    both writers write byte for byte alike."""
    table = synthesize(crosstalk_demo_model(), default_coupling_map(), shots_per_schedule=72, seed=3)
    path, old = (tmp_path_factory.mktemp("long") / name for name in ("shots.csv", "reference.csv"))
    save_table(table, path)
    reference.save_table(table, old)
    assert path.read_bytes() == old.read_bytes()
    rows = path.read_text(encoding="utf-8").splitlines()[2:]
    assert len(rows) > 2 * _BLOCK_ROWS
    return rows


def _field(index, edit):
    # a row that an earlier edit cut short keeps its missing field missing
    def apply(fields):
        fields = list(fields)
        if index < len(fields):
            fields[index] = edit(fields[index])
        return fields
    return apply


FIELD_EDITS = [
    lambda fields: fields[:5],
    lambda fields: [*fields, "0"],
    _field(0, lambda token: token.replace("-", "_")),
    _field(0, lambda token: token + "-1"),
    _field(0, lambda token: "a" + token),
    _field(0, lambda token: f"{2**63}-1"),
    _field(2, lambda token: "02"),
    _field(2, lambda token: token + "1"),
    _field(2, lambda token: ""),
    *(
        _field(index, edit)
        for index in (1, 3)  # qubit, shot
        for edit in (
            lambda token: "+" + token, lambda token: "-" + token, lambda token: " " + token,
            lambda token: token + "_0", lambda token: token + "١", lambda token: "³",
            lambda token: "", lambda token: str(2**63), lambda token: str(2**64 + 7),
            # a uint64 past int64, a signed zero, a trailing space
            lambda token: str(2**64 - 1), lambda token: "-0", lambda token: token + " ",
        )
    ),
    *(
        _field(index, edit)
        for index in (4, 5)  # i, q
        for edit in (
            lambda token: "nan", lambda token: "-inf", lambda token: "1e999",
            lambda token: token + ".5", lambda token: "x", lambda token: "1.7976931348623157e308",
            lambda token: token + "_0", lambda token: " " + token,
            lambda token: "+1.5", lambda token: "1e+16",  # valid rows outside the C parser's characters
        )
    ),
    # a NUL after each kind of field: numpy drops trailing NULs from a string field
    *(_field(index, lambda token: token + "\0") for index in range(6)),
    # pairs longer than the C parser's pair field, whose cut prefixes parse too
    _field(0, lambda token: "1-" + "9" * 60),
    _field(0, lambda token: token.replace("-", "-" + "0" * 60)),
]
BLANK_RUN = "\n" * (2 * _BLOCK_ROWS)  # blank lines that fill at least one whole block
# the last three are comment lines that a comma count alone would take for rows
EXTRA_LINES = ["", "   ", BLANK_RUN, "# note", "# device: a", "#device:  b ", "  # device: c", "#",
               "# 0-1,0,00,0,1.0,2.0", "#,,,,,", "  #device: z,,,,,"]


@settings(max_examples=50, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(FIELD_EDITS)), max_size=2),
    extras=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(EXTRA_LINES)), max_size=4),
)
@example(edits=[(_BLOCK_ROWS - 1, FIELD_EDITS[0])], extras=[])
@example(edits=[(_BLOCK_ROWS, _field(2, lambda token: "02"))], extras=[(3, "# device: early")])
@example(edits=[(7, FIELD_EDITS[0]), (7, _field(5, lambda token: "x"))], extras=[])
@example(  # an index past int64 loses to a later malformed row, as in the reference
    edits=[(5, _field(1, lambda token: str(2**63))), (2 * _BLOCK_ROWS + 1, _field(5, lambda token: "x"))],
    extras=[],
)
@example(  # an index past int64 alone, in the third block
    edits=[(2 * _BLOCK_ROWS + 5, _field(1, lambda token: str(2**63)))], extras=[],
)
@example(  # a pair past int64 in a later block, after a malformed float in that block
    edits=[(_BLOCK_ROWS + 3, _field(4, lambda token: "x")),
           (_BLOCK_ROWS + 9, _field(0, lambda token: f"{2**63}-1"))],
    extras=[],
)
@example(  # an index that numpy reads as uint64, past int64, after a valid "+1.5" in its block
    edits=[(_BLOCK_ROWS + 3, _field(4, lambda token: "+1.5")),
           (_BLOCK_ROWS + 9, _field(3, lambda token: str(2**64 - 1)))],
    extras=[],
)
@example(  # a valid pair that the C parser's field would cut to another valid pair
    edits=[(_BLOCK_ROWS + 1, _field(0, lambda token: token.replace("-", "-" + "0" * 60)))], extras=[],
)
@example(edits=[(_BLOCK_ROWS + 5, _field(0, lambda token: token + "\0"))], extras=[])
@example(edits=[(_BLOCK_ROWS + 2, _field(1, lambda token: "-0"))], extras=[])  # uint64 refuses the sign
@example(edits=[(_BLOCK_ROWS + 4, _field(5, lambda token: "1e999"))], extras=[])  # inf from digits alone
@example(edits=[], extras=[(_BLOCK_ROWS + 7, BLANK_RUN)])
def test_reader_matches_reference_on_long_files(long_rows, tmp_path_factory, edits, extras):
    rows = list(long_rows)
    for position, edit in edits:
        position %= len(rows)
        rows[position] = ",".join(edit(rows[position].split(",")))
    for position, line in extras:
        rows.insert(position % (len(rows) + 1), line)
    path = tmp_path_factory.mktemp("edited") / "shots.csv"
    path.write_text("\n".join(["# device: chip", "pair,qubit,schedule,shot,i,q", *rows]) + "\n",
                    encoding="utf-8")
    assert outcome(load_table, path) == outcome(reference.load_table, path)


# every line end str.splitlines knows, with "\r\n" as one and "\r" before others
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
             "\r\r\n", "\n\r"]
# comment lines of two-, three- and four-byte characters, one naming the device
WIDE_LINES = ["# device: chïp €", "# ü𝄞", "  # 𝄞€é"]


def _in_pieces(piece, load, path):
    """outcome(load, path) with open_text and split_pieces reading ``piece``
    bytes, then characters, at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "_PIECE", piece)
        return outcome(load, path)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shot_files, st.integers(1, 16))
def test_reader_matches_reference_in_small_pieces(tmp_path, content, piece):
    path = tmp_path / "shots.csv"
    path.write_bytes(content)
    assert _in_pieces(piece, load_table, path) == outcome(reference.load_table, path)


@settings(max_examples=20, deadline=None)
@given(
    ends=st.lists(st.sampled_from(LINE_ENDS), min_size=1, max_size=4),
    extras=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(WIDE_LINES + EXTRA_LINES)),
                    max_size=4),
    edit=st.tuples(st.integers(0, 10**6), st.sampled_from(FIELD_EDITS)) | st.none(),
    piece=st.integers(1, 300),
)
def test_reader_matches_reference_on_long_files_in_small_pieces(long_rows, tmp_path_factory, ends,
                                                                 extras, edit, piece):
    rows = ["# device: chip", _HEADER, *long_rows]
    if edit is not None:
        position = 2 + edit[0] % len(long_rows)
        rows[position] = ",".join(edit[1](rows[position].split(",")))
    for position, line in extras:
        rows.insert(position % (len(rows) + 1), line)
    path = tmp_path_factory.mktemp("ends") / "shots.csv"
    path.write_bytes("".join(row + end for row, end in zip(rows, cycle(ends))).encode())
    assert _in_pieces(piece, load_table, path) == outcome(reference.load_table, path)


def _short_file(bad_row=False, bad_byte=False) -> bytes:
    """A few rows, each line ended by the next of LINE_ENDS, among comment
    lines of wide characters; with a malformed last row, or a byte that is
    not UTF-8 after the last wide character."""
    rows = [f"0-1,{shot % 2},{SCHEDULES[shot % 4]},{shot},{shot}.5,-2.5" for shot in range(12)]
    if bad_row:
        rows[-1] += ",0"
    lines = [WIDE_LINES[0], _HEADER, *rows[:4], WIDE_LINES[1], "", *rows[4:8], WIDE_LINES[2], *rows[8:]]
    content = "".join(line + end for line, end in zip(lines, cycle(LINE_ENDS))).encode()
    if bad_byte:
        cut = content.rindex("𝄞".encode()) + 4
        content = content[:cut] + b"\xff" + content[cut:]
    return content


@pytest.mark.parametrize("content", [_short_file(), _short_file(bad_row=True), _short_file(bad_byte=True)],
                         ids=["valid", "bad-row", "bad-byte"])
def test_reader_matches_reference_at_every_piece_boundary(tmp_path, content):
    r"""Every piece size up to the file's length, so that pieces end inside
    each "\r\n", inside each wide character and next to every line end."""
    path = tmp_path / "shots.csv"
    path.write_bytes(content)
    expected = outcome(reference.load_table, path)
    assert isinstance(expected, str) == (content != _short_file())
    for piece in range(1, len(content) + 1):
        assert _in_pieces(piece, load_table, path) == expected, piece


def test_utf8_error_comes_before_an_earlier_row_error(long_rows, tmp_path, capsys):
    """A malformed row on line 2 and a bad byte past the first piece: the
    file is still rejected as not UTF-8, as a whole-file decode rejects it."""
    rows = [_HEADER, long_rows[0].replace(",", ",x", 1), *long_rows[1:]]
    content = "\n".join(rows).encode()
    path = tmp_path / "iq_shots.csv"
    path.write_bytes(content)
    with pytest.raises(DataError, match="^line 2: malformed row"):
        load_table(path)
    cut = 3 * errors._PIECE // 2
    path.write_bytes(content[:cut] + b"\xff" + content[cut:])
    with pytest.raises(DataError, match="not UTF-8 text") as info:
        load_table(path)
    assert str(info.value) == outcome(reference.load_table, path)
    assert main(["crosstalk", "--data", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_reader_names_the_same_line_in_a_later_block(long_rows, tmp_path):
    rows = list(long_rows)
    rows[_BLOCK_ROWS + 10] = rows[_BLOCK_ROWS + 10].replace(",", ",+", 1)
    path = tmp_path / "shots.csv"
    path.write_text("\n".join(["pair,qubit,schedule,shot,i,q", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^line {_BLOCK_ROWS + 12}: malformed row"):
        load_table(path)


# every finite float a table accepts (|x| <= 2**400), with the edge cases drawn often
table_floats = st.floats(-(2.0**400), 2.0**400) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     2.0**400, -(2.0**400), 0.1]
)
indices = st.integers(0, 2**63 - 1)


@st.composite
def tables(draw, values=table_floats):
    pairs = draw(st.lists(st.tuples(indices, indices).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=3))
    rows = []
    for shot in draw(st.lists(indices, unique=True, max_size=20)):
        pair = draw(st.sampled_from(pairs))
        rows.append((*pair, draw(st.sampled_from(pair)), draw(st.sampled_from(SCHEDULES)),
                     shot, draw(values), draw(values)))
    columns = list(zip(*rows)) or [()] * len(_COLUMNS)
    return IQShotTable(device=draw(st.sampled_from(["", "chip", "a b"])),
                       **dict(zip(_COLUMNS, map(list, columns))))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
def test_writer_matches_reference_and_round_trips_bit_exact(tmp_path, table):
    path, old = tmp_path / "shots.csv", tmp_path / "reference.csv"
    save_table(table, path)
    reference.save_table(table, old)
    assert path.read_bytes() == old.read_bytes()
    assert outcome(load_table, path) == contents(table)


def test_writer_splits_a_long_slice_into_blocks_like_reference(tmp_path):
    """One (pair, qubit, schedule) slice of a little over two blocks."""
    n = 2 * _BLOCK_ROWS + 5
    values = np.random.default_rng(4).normal(size=(2, n))
    table = IQShotTable(device="chip", pair_first=[2] * n, pair_second=[7] * n, qubit=[7] * n,
                        schedule=["10"] * n, shot=np.arange(n)[::-1], i_value=values[0],
                        q_value=values[1])
    path, old = tmp_path / "shots.csv", tmp_path / "reference.csv"
    save_table(table, path)
    reference.save_table(table, old)
    assert path.read_bytes() == old.read_bytes()


class _Unbounded:
    """The columns and slice index the writers read, with no bound on the
    values, so the format is checked over the whole finite float range."""

    def __init__(self, table, i_value, q_value):
        names = (*_COLUMNS, "device", "_slices")
        self.__dict__.update({name: getattr(table, name) for name in names})
        self.i_value, self.q_value = np.array(i_value), np.array(q_value)

    def __len__(self):
        return len(self.pair_first)


@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables(), st.data())
def test_writer_formats_every_finite_float_as_reference(tmp_path, table, data):
    anywhere = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0])
    values = [st.lists(anywhere, min_size=len(table), max_size=len(table)) for _ in range(2)]
    unbounded = _Unbounded(table, *(data.draw(v) for v in values))
    path, old = tmp_path / "shots.csv", tmp_path / "reference.csv"
    save_table(unbounded, path)
    reference.save_table(unbounded, old)
    assert path.read_bytes() == old.read_bytes()


def test_large_table_memory(tmp_path):
    """tracemalloc peaks on the seed-1, 2048-shot crosstalk table (65,536
    rows, 64 blocks) that a whole-file line or token list would break."""
    table = synthesize(crosstalk_demo_model(), default_coupling_map(), shots_per_schedule=2048, seed=1)
    assert len(table) == 65_536
    path = tmp_path / "iq_shots.csv"
    tracemalloc.start()
    try:
        save_table(table, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_table(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= 4 * MiB, save_peak / MiB
    assert load_peak <= 9 * MiB, load_peak / MiB
    assert contents(back) == contents(table)


def test_empty_table_holds_no_line_buffers(tmp_path):
    """A header and 200,000 blank lines load a piece at a time, with a peak
    of a piece's lines and a block, not the file's 200,000 lines, as a
    0-row table that keeps nothing sized by the line count."""
    path = tmp_path / "iq_shots.csv"
    path.write_text("pair,qubit,schedule,shot,i,q" + "\n" * 200_001, encoding="utf-8")
    load_table(path)  # first-call caches are not the table's
    tracemalloc.start()
    try:
        table = load_table(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 0
    assert held <= MiB / 16, held / MiB
    assert peak <= MiB, peak / MiB


def test_blank_blocks_skip_the_text_parser(tmp_path, monkeypatch):
    """All-blank blocks after the header are dropped before any ``loadtxt``
    call: a header and 200,000 blank lines load as 0 rows without one."""
    path = tmp_path / "iq_shots.csv"
    path.write_text(_HEADER + "\n" * 200_001, encoding="utf-8")
    reads = []
    real = iqdata._read_rows
    monkeypatch.setattr(iqdata, "_read_rows", lambda *args, **kwargs: reads.append(1) or real(*args, **kwargs))
    assert len(load_table(path)) == 0
    assert reads == []
