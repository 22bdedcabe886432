"""Block-wise shot-table I/O against the row-by-row reference in
``table_io_reference``: the same table or the same DataError from every
file, the same bytes from every table, bit-exact round trips, and a memory
bound that keeps a whole-file token list from coming back."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import table_io_reference as reference
from hypothesis import HealthCheck, example, given, settings, strategies as st
from test_parser_fuzz import shot_files

from qkmeans.errors import DataError
from qkmeans.iqdata import (
    _BLOCK_ROWS,
    _COLUMNS,
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
        )
    ),
    *(
        _field(index, edit)
        for index in (4, 5)  # i, q
        for edit in (
            lambda token: "nan", lambda token: "-inf", lambda token: "1e999",
            lambda token: token + ".5", lambda token: "x", lambda token: "1.7976931348623157e308",
            lambda token: token + "_0", lambda token: " " + token,
        )
    ),
]
# the last three are comment lines that a comma count alone would take for rows
EXTRA_LINES = ["", "   ", "# note", "# device: a", "#device:  b ", "  # device: c", "#",
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
    rows, 64 blocks) that a whole-file token list would break."""
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
    assert load_peak <= 13 * MiB, load_peak / MiB
    assert contents(back) == contents(table)


def test_empty_table_holds_no_line_buffers(tmp_path):
    """A header and 200,000 blank lines load as a 0-row table that keeps none
    of the columns sized by the line count (about 10 MiB of them)."""
    path = tmp_path / "iq_shots.csv"
    path.write_text("pair,qubit,schedule,shot,i,q" + "\n" * 200_001, encoding="utf-8")
    load_table(path)  # first-call caches are not the table's
    tracemalloc.start()
    try:
        table = load_table(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 0
    assert held <= MiB / 16, held / MiB
