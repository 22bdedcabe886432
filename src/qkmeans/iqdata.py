"""Synthetic single-shot IQ readout data for coupled qubit pairs.

For every coupled pair (a, b) the generator runs the four two-qubit
preparation schedules "00", "01", "10", "11", written so that the
rightmost character is the state bit of the pair's first qubit.  This
module owns that convention (``schedule_name``) and the check that a pair
holds all four schedules (``IQShotTable.require_schedules``).  Each yields
``shots_per_schedule`` (I, Q) samples per qubit, drawn around that
qubit's ground or excited center with per-feature spread.

Readout crosstalk is injected through two effects controlled by the
ordered coupling strength ``kappa[(victim, aggressor)]``:

* a center shift of ``0.25 * kappa * (excited - ground)`` applied to the
  victim in schedules where the aggressor is excited, and
* a pair-wide latent component, one value per shot index shared by all
  schedules, mixed into the victim's noise with weight
  ``CROSSTALK_LATENT_GAIN * kappa``.  Shared across schedules it models
  slow shot-synchronous drift and is what makes excited-vs-ground
  schedule correlations measurable; the resulting Pearson coefficient is
  exactly lambda^2 / (1 + lambda^2) with lambda = gain * kappa.

For 32 shots and above, the per-pair noise table (16 independent columns
+ 1 latent) is orthonormalized against the constant vector and rescaled
to unit sample deviation, so sample means, variances and cross
correlations hit their nominal values exactly: kappa = 0 produces
exactly zero named correlations, not merely small ones.

Assembled per-qubit datasets go through a fitted ``ReadoutFrame`` before
clustering.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, count, islice

import numpy as np

from .dataset import DataSet, fit_readout_frame
from .errors import (
    ConfigError, DataError, check_choice, check_number, open_text, parse_index, parse_pair,
    split_pieces,
)
from .simulator import derive_seed

SCHEDULES = ("00", "01", "10", "11")
_SCHEDULE_ARRAY = np.array(sorted(SCHEDULES))  # a schedule's code is its index here
CROSSTALK_LATENT_GAIN = 1.8
EXCITED_SHIFT_FRACTION = 0.25
_ORTHOGONALIZE_MIN_SHOTS = 32
_NOISE_COLUMNS = 17  # 2 qubits x 4 schedules x 2 features, + 1 shared latent
_MAX_INDEX = 2**63 - 1  # qubit and shot indices are stored as int64
_INDEX_OVERFLOW = "pair, qubit or shot index outside the int64 range ({})"
# Largest |i| or |q| a shot table holds.  Within it a deviation from a mean
# is at most 2**401, so a product of two is at most 2**802, and a sum of
# fewer than 2**200 such products (a readout frame's covariance, a Pearson
# coefficient's moments) stays below 2**1002, far from the float64 limit
# near 2**1024: no table that fits in memory can overflow those sums.
_MAX_IQ_MAGNITUDE = 2.0**400
# IQShotTable columns, in CSV field order (the "pair" field holds the first two)
_COLUMNS = ("pair_first", "pair_second", "qubit", "schedule", "shot", "i_value", "q_value")
_DTYPES = (np.int64, np.int64, np.int64, "U2", np.int64, np.float64, np.float64)  # of _COLUMNS
# by the kind of a column's dtype: the dtype kinds a caller's column may have, and their name
_SOURCE_KINDS = {"i": ("iu", "integers"), "U": ("U", "strings"), "f": ("iuf", "real numbers")}


@dataclass(frozen=True)
class QubitReadoutSpec:
    """Ground/excited IQ centers and per-feature spread for one qubit."""

    ground_center: tuple[float, float]
    excited_center: tuple[float, float]
    cluster_stddev: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("ground_center", "excited_center", "cluster_stddev"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"malformed {name} {value!r}: expected two finite numbers")
            for v in value:
                check_number(f"malformed {name} {value!r}: each entry", v, integral=False)
            object.__setattr__(self, name, tuple(float(v) for v in value))
        if any(v <= 0 for v in self.cluster_stddev):
            raise ConfigError("cluster_stddev entries must be positive")


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit readout response plus ordered pairwise coupling strengths.

    ``crosstalk[(i, j)]`` perturbs qubit i when neighbor j is excited.
    ``device`` must read back from a saved shot table's ``# device:`` line.
    """

    device: str
    qubits: dict[int, QubitReadoutSpec]
    crosstalk: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.device, str) and self.device == self.device.strip()
                and len(self.device.splitlines()) <= 1):
            raise ConfigError(f"device must be a single-line string, not padded, got {self.device!r}")
        for (victim, aggressor), kappa in self.crosstalk.items():
            if victim == aggressor:
                raise ConfigError("crosstalk pairs must involve two distinct qubits")
            if victim not in self.qubits or aggressor not in self.qubits:
                raise ConfigError(f"crosstalk pair ({victim}, {aggressor}) not in model qubits")
            if not 0.0 <= kappa <= 1.0:
                raise ConfigError("coupling strength must lie in [0, 1]")

    def coupling_strength(self, victim: int, aggressor: int) -> float:
        return self.crosstalk.get((victim, aggressor), 0.0)


@dataclass(frozen=True)
class CouplingMap:
    device: str
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.device, str):
            raise ConfigError(f"device must be a string, got {self.device!r}")
        for edge in self.edges:
            if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
                raise ConfigError(f"malformed coupling edge {edge!r}: expected two qubit indices")
            for v in edge:
                check_number(f"malformed coupling edge {edge!r}: each qubit index", v)
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
            if a == b:
                raise ConfigError("coupling edges must connect distinct qubits")
            if a > b:
                raise ConfigError("coupling edges must list the lower qubit first")
            if a < 0 or b > _MAX_INDEX:
                raise ConfigError(f"coupling edge ({a}, {b}) has a qubit index outside [0, 2**63)")
        if len(set(edges)) != len(edges):
            raise ConfigError("duplicate coupling edge")
        object.__setattr__(self, "edges", edges)


def schedule_name(pos: int, own_bit: int, neighbor_bit: int) -> str:
    """Schedule string in which the qubit at pair position ``pos`` (0 for the
    pair's first qubit, 1 for its second) is in ``own_bit`` and its neighbor
    in ``neighbor_bit``; the rightmost character is the first qubit's bit."""
    first, second = (own_bit, neighbor_bit) if pos == 0 else (neighbor_bit, own_bit)
    return f"{second}{first}"


@dataclass(frozen=True)
class IQShotTable:
    """Column-oriented shot records, canonically ordered and key-unique.

    Keyed by (pair_first, pair_second, qubit, schedule, shot); a qubit
    belonging to two couplings appears once per pair, which is why the
    pair columns are part of the key.  A row's qubit is one of its pair's
    two distinct qubits.  Its i and q values are finite and at most 2**400
    in magnitude (``_MAX_IQ_MAGNITUDE``).  Its columns are 1-D, of equal
    length and of the kinds in ``_SOURCE_KINDS``, and its indices fit int64.
    Each (pair, qubit, schedule) run of the sorted rows is one slice, indexed
    once here.
    """

    device: str
    pair_first: np.ndarray
    pair_second: np.ndarray
    qubit: np.ndarray
    schedule: np.ndarray
    shot: np.ndarray
    i_value: np.ndarray
    q_value: np.ndarray
    _slices: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns = []
        for name, dtype in zip(_COLUMNS, _DTYPES):
            source = getattr(self, name)
            kinds, noun = _SOURCE_KINDS[np.dtype(dtype).kind]
            try:  # before the kind check, which would read [1, 2**63] as a float column
                given = np.asarray(source)
                if given.dtype.kind == "u" and given.max(initial=0) > _MAX_INDEX:
                    source = given.tolist()  # an unsigned cast would wrap; Python ints overflow
                column = np.asarray(source, dtype=str if dtype == "U2" else dtype)  # keeps "011" whole
            except (OverflowError, TypeError, ValueError) as exc:
                if isinstance(exc, OverflowError) and dtype is np.int64:
                    raise DataError(_INDEX_OVERFLOW.format(exc)) from exc
                raise DataError(f"column {name} must hold {noun} ({exc})") from exc
            if column.size and given.dtype.kind not in kinds:
                raise DataError(f"column {name} must hold {noun}, got {given.dtype}")
            if not columns and column.ndim != 1:
                raise DataError("column pair_first must be 1-D")
            if columns and column.shape != columns[0].shape:
                raise DataError(f"column {name} must match pair_first length")
            columns.append(column)
        pf, ps, qb, sched, shot, i_val, q_val = columns
        codes = np.searchsorted(_SCHEDULE_ARRAY, sched).astype(np.uint8)  # 4 for one past "11"
        bad = np.flatnonzero(_SCHEDULE_ARRAY.take(codes, mode="clip") != sched)
        if bad.size:
            raise DataError(f"invalid schedule string {str(sched[bad[0]])!r}")
        if not (np.all(np.isfinite(i_val)) and np.all(np.isfinite(q_val))):
            raise DataError("i/q values must be finite")
        if (max(i_val.max(initial=0), q_val.max(initial=0)) > _MAX_IQ_MAGNITUDE
                or min(i_val.min(initial=0), q_val.min(initial=0)) < -_MAX_IQ_MAGNITUDE):
            large = (np.abs(i_val) > _MAX_IQ_MAGNITUDE) | (np.abs(q_val) > _MAX_IQ_MAGNITUDE)
            j = np.flatnonzero(large)[0]
            raise DataError(
                "|i| and |q| must be at most 2**400 (about 2.6e120), "
                f"got i={float(i_val[j])!r}, q={float(q_val[j])!r}"
            )
        if min(col.min(initial=0) for col in (pf, ps, qb, shot)) < 0:
            raise DataError("pair, qubit and shot indices must be >= 0")
        bad = np.flatnonzero((pf == ps) | ((qb != pf) & (qb != ps)))
        if bad.size:
            j = bad[0]
            raise DataError(f"qubit {qb[j]} is not one of the distinct qubits of pair {pf[j]}-{ps[j]}")
        # the sort copies every column, so the table never holds a caller's array; the schedules
        # are sorted and compared as their codes, and come back as "U2" strings from them
        columns[3] = codes
        order = np.lexsort((shot, codes, qb, ps, pf))
        columns = [column[order] for column in columns]
        pf, ps, qb, codes, shot, _, _ = columns
        sched = columns[3] = _SCHEDULE_ARRAY[codes]
        n = len(pf)
        new_run = np.ones(n, dtype=bool)  # row j opens a (pair, qubit, schedule) run
        new_run[1:] = (
            (pf[1:] != pf[:-1]) | (ps[1:] != ps[:-1])
            | (qb[1:] != qb[:-1]) | (codes[1:] != codes[:-1])
        )
        same = ~new_run[1:] & (shot[1:] == shot[:-1])
        if np.any(same):
            j = int(np.flatnonzero(same)[0])
            raise DataError(
                "duplicate shot key "
                f"(pair {pf[j]}-{ps[j]}, qubit {qb[j]}, schedule {sched[j]}, shot {shot[j]})"
            )
        starts = np.flatnonzero(new_run)
        stops = np.append(starts[1:], n).tolist()
        keys = zip(pf[starts].tolist(), ps[starts].tolist(),
                   qb[starts].tolist(), sched[starts].tolist())
        slices = {key: slice(a, b) for key, a, b in zip(keys, starts.tolist(), stops)}
        for name, column in zip(_COLUMNS, columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_slices", slices)

    def __len__(self) -> int:
        return int(self.pair_first.shape[0])

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Distinct (pair_first, pair_second) couples, in sorted order."""
        return tuple(dict.fromkeys(key[:2] for key in self._slices))

    def require_schedules(self, pair: tuple[int, int]) -> None:
        """Raise DataError unless both qubits of ``pair`` have rows in all
        four schedules."""
        for qubit in pair:
            missing = [s for s in SCHEDULES if (pair[0], pair[1], qubit, s) not in self._slices]
            if missing:
                raise DataError(f"pair {pair} qubit {qubit} is missing schedules {missing}")

    def values(self, pair: tuple[int, int], qubit: int, schedule: str, feature: str) -> np.ndarray:
        """Shot-ordered I or Q samples for one (pair, qubit, schedule) slice,
        as a read-only view of the column."""
        check_choice("feature", feature, ("i", "q"))
        rows = self._slices.get((pair[0], pair[1], qubit, schedule), slice(0, 0))
        column = self.i_value if feature == "i" else self.q_value
        return column[rows]


def _noise_columns(rng: np.random.Generator, shots: int) -> np.ndarray:
    """(shots, 17) noise table; exactly whitened when enough shots."""
    raw = rng.standard_normal((shots, _NOISE_COLUMNS))
    if shots < _ORTHOGONALIZE_MIN_SHOTS:
        return raw
    basis = np.column_stack([np.ones(shots), raw])
    q, _ = np.linalg.qr(basis)
    return q[:, 1:] * np.sqrt(shots - 1.0)


def synthesize(
    model: ReadoutModel,
    coupling: CouplingMap,
    shots_per_schedule: int = 1024,
    seed: int = 0,
) -> IQShotTable:
    """Generate the full shot table for every coupled pair; pure in ``seed``."""
    check_number("shots_per_schedule", shots_per_schedule, 1)
    check_number("seed", seed, 0)
    for a, b in coupling.edges:
        if a not in model.qubits or b not in model.qubits:
            raise ConfigError(f"readout model does not cover coupling ({a}, {b})")
    shots = shots_per_schedule
    rows = [[np.empty(0, dtype) for dtype in _DTYPES]]  # then one per (pair, qubit, schedule)
    shot_idx = np.arange(shots, dtype=np.int64)
    for a, b in coupling.edges:
        rng = np.random.default_rng(derive_seed(seed, a, b))
        noise = _noise_columns(rng, shots)
        latent = noise[:, 16]
        for pos, (q, neighbor) in enumerate(((a, b), (b, a))):
            spec = model.qubits[q]
            kappa = model.coupling_strength(q, neighbor)
            lam = CROSSTALK_LATENT_GAIN * kappa
            ground = np.asarray(spec.ground_center)
            excited = np.asarray(spec.excited_center)
            stddev = np.asarray(spec.cluster_stddev)
            shift = EXCITED_SHIFT_FRACTION * kappa * (excited - ground)
            for own_bit, neighbor_bit in ((0, 0), (0, 1), (1, 0), (1, 1)):
                sched = schedule_name(pos, own_bit, neighbor_bit)
                s_idx = SCHEDULES.index(sched)
                center = excited if own_bit else ground
                offset = shift if neighbor_bit else np.zeros(2)
                base = noise[:, pos * 8 + s_idx * 2 : pos * 8 + s_idx * 2 + 2]
                samples = center + stddev * (base + lam * latent[:, None]) + offset
                row = (a, b, q, sched, shot_idx, samples[:, 0], samples[:, 1])
                rows.append([np.broadcast_to(np.asarray(v, dtype), shots)  # views: no copy
                             for v, dtype in zip(row, _DTYPES)])
    return IQShotTable(model.device, *map(np.concatenate, zip(*rows)))


def assemble_datasets(
    table: IQShotTable, qubit: int, pair: tuple[int, int]
) -> tuple[DataSet, DataSet]:
    """(single, both) labeled datasets for one qubit of one coupled pair.

    single: the two schedules with the neighbor in ground (2 * shots
    points); both: all four schedules (4 * shots points), each in table
    (schedule string) order.  Labels are the qubit's own state bit.
    Features pass through a freshly fitted ReadoutFrame.
    """
    pair = (int(pair[0]), int(pair[1]))
    if qubit not in pair:
        raise DataError(f"qubit {qubit} is not part of pair {pair}")
    table.require_schedules(pair)
    pos = pair.index(qubit)

    def gather(neighbor_bits: tuple[int, ...]) -> DataSet:
        feats, labels = [], []
        for sched, own_bit in sorted(
            (schedule_name(pos, own_bit, neighbor_bit), own_bit)
            for own_bit in (0, 1) for neighbor_bit in neighbor_bits
        ):
            i_vals = table.values(pair, qubit, sched, "i")
            q_vals = table.values(pair, qubit, sched, "q")
            feats.append(np.column_stack([i_vals, q_vals]))
            labels.append(np.full(i_vals.shape[0], own_bit, dtype=np.int64))
        raw = np.concatenate(feats)
        return DataSet(fit_readout_frame(raw).apply(raw), np.concatenate(labels))

    return gather((0,)), gather((0, 1))


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------

_HEADER = "pair,qubit,schedule,shot,i,q"
# Rows formatted or parsed per step.  Speed is flat from 256 to 4,096 rows;
# at 1,024 a block's strings take a few hundred KB, so neither a file's lines
# nor a table's token list is built whole: a load holds one block of lines.
_BLOCK_ROWS = 1024
# The characters of a data row that save_table writes when |i| and |q| are below
# 1e16 (repr turns to "1e+16" there).  A block of only these goes to numpy's C
# parser, which reads such a token as float() and parse_index do; it reads
# "+", whitespace, NUL, "#" and non-ASCII digits more loosely than they do.
_ALPHABET = b"0123456789,-.e\n"
# One data row as _parse_block reads it.  uint64 refuses a "-" sign; a pair
# token that fills its field may have been cut (one of two int64 indices takes
# at most 39); "U3" keeps "011" whole.
_PAIR_WIDTH = 40
_ROW = np.dtype([("pair", f"U{_PAIR_WIDTH}"), ("qubit", "u8"), ("schedule", "U3"), ("shot", "u8"),
                 ("i", "f8"), ("q", "f8")])
# ... and as _convert_rows reads it: Python strings and ints, uncut and unbounded
_CHECKED_ROW = np.dtype([("pair", "O"), ("qubit", "O"), ("schedule", "U3"), ("shot", "O"),
                         ("i", "f8"), ("q", "f8")])


def save_table(table: IQShotTable, path) -> None:
    """Write ``table`` as CSV, slice by slice through its index: each
    slice's ``pair,qubit,schedule`` text is formatted once, and at most
    ``_BLOCK_ROWS`` rows go to one write.  Floats are written with
    ``repr``, so ``load_table`` reads them back bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# device: {table.device}\n{_HEADER}\n")
        for (first, second, qubit, schedule), rows in table._slices.items():
            key = f"{first}-{second},{qubit},{schedule},"
            for start in range(rows.start, rows.stop, _BLOCK_ROWS):
                block = slice(start, min(start + _BLOCK_ROWS, rows.stop))
                fields = zip(map(str, table.shot[block].tolist()),
                             map(repr, table.i_value[block].tolist()),
                             map(repr, table.q_value[block].tolist()))
                fh.write(key + ("\n" + key).join(map(",".join, fields)) + "\n")


def _read_rows(texts: list[str], dtype: np.dtype, converters=None) -> np.ndarray:
    """The rows of the stripped lines ``texts`` read by numpy's C text parser."""
    return np.loadtxt(texts, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1,
                      encoding=None, converters=converters)  # encoding=None: converters get str


def _run_starts(column: np.ndarray) -> np.ndarray:
    """Indices at which a run of equal entries of ``column`` starts."""
    return np.flatnonzero(np.append(True, column[1:] != column[:-1]))


def _columns(rows: np.ndarray, starts: np.ndarray) -> list:
    """Table columns of ``rows``, whose pair tokens change only at ``starts``:
    ``parse_pair`` runs once per run.  Each is a copy, so no view keeps the
    rows alive.  An index past int64 raises OverflowError here, except in a
    uint64 column, where the cast would wrap: ``_parse_block`` bounds those
    first."""
    firsts, seconds = zip(*map(parse_pair, rows["pair"][starts].tolist()))
    counts = np.diff(np.append(starts, len(rows)))
    columns = [np.repeat(np.array(firsts, np.int64), counts),
               np.repeat(np.array(seconds, np.int64), counts),
               rows["qubit"], rows["schedule"], rows["shot"], rows["i"], rows["q"]]
    return [column.astype(dtype) for column, dtype in zip(columns, _DTYPES)]


def _parse_block(texts: list[str]):
    """Columns of the stripped lines ``texts`` when every one is blank or a
    valid data row of ``_ALPHABET``'s characters, read by one ``loadtxt``
    call into ``_ROW``, which skips blank lines as the row rules do; None
    when the block has another character, no data row, a field that does not
    convert, an index past int64, a pair token that fills its field, a
    schedule outside ``SCHEDULES`` or a non-finite value.  It never raises,
    so a block that fails goes to the row checks."""
    if "\n".join(texts).encode().translate(None, _ALPHABET):
        return None
    try:
        with warnings.catch_warnings():
            # an all-blank block's UserWarning, and numpy 1.24's DeprecationWarning
            # for an index token it reads through float, end the call instead
            warnings.simplefilter("error")
            rows = _read_rows(texts, _ROW)
        pair, schedule = rows["pair"], rows["schedule"]
        starts = _run_starts(pair)
        if not (max(rows["qubit"].max(), rows["shot"].max()) <= _MAX_INDEX
                and max(map(len, pair[starts].tolist())) < _PAIR_WIDTH
                and set(schedule[_run_starts(schedule)].tolist()) <= set(SCHEDULES)
                and np.isfinite(rows["i"]).all() and np.isfinite(rows["q"]).all()):
            return None
        return _columns(rows, starts)
    except (ValueError, Warning, OverflowError):  # DataError is a ValueError
        return None


def _convert_rows(texts: list[str]) -> list:
    """Columns of data rows that have each passed ``_check_row`` but not
    ``_parse_block``: the same read, with Python's ``int`` and ``float`` as
    the index and value converters, so every such row converts, and an
    index past int64 raises OverflowError."""
    rows = _read_rows(texts, _CHECKED_ROW, {1: int, 3: int, 4: float, 5: float})
    return _columns(rows, _run_starts(rows["pair"]))


def _check_row(lineno: int, text: str) -> None:
    """Raise the DataError of data row ``text``, on line ``lineno``, if it
    is not a valid row: 6 fields, a pair, two indices, finite i and q values
    and a schedule in ``SCHEDULES``."""
    parts = text.split(",")
    if len(parts) != 6:
        raise DataError(f"line {lineno}: expected 6 fields, got {len(parts)}")
    try:
        parse_pair(parts[0]), parse_index(parts[1]), parse_index(parts[3])
        values = float(parts[4]), float(parts[5])
    except ValueError as exc:
        raise DataError(f"line {lineno}: malformed row ({exc})") from exc
    if not all(map(math.isfinite, values)):
        raise DataError(f"line {lineno}: non-finite i/q value")
    if parts[2] not in SCHEDULES:
        raise DataError(f"line {lineno}: invalid schedule {parts[2]!r}")


def _device(comment: str, device: str) -> str:
    """The device that the stripped comment line ``comment`` names, if it is
    a ``# device:`` line; ``device`` otherwise."""
    body = comment.lstrip("#").strip()
    return body[len("device:"):].strip() if body.startswith("device:") else device


def load_table(path) -> IQShotTable:
    """Read a shot table written by ``save_table``.

    The file is read in pieces (``errors.open_text``, which raises a UTF-8
    error before any row error), so a load holds one piece and one block of
    lines at a time, and its memory peaks at about the table, the sorted
    copy of its columns and one block.  Lines are stripped and blank ones
    skipped.  Comment lines may appear anywhere, and the last ``# device:``
    line names the device.  The header is the first other line; the lines
    up to it are read one by one.  The lines after it go ``_BLOCK_ROWS`` at
    a time to ``_parse_block``, one ``loadtxt`` call, unless all are blank.
    A block that it does not read has its comment and blank lines taken out,
    and its data rows go to ``_parse_block`` again.  Where that fails,
    ``_check_row`` raises the first bad row's DataError, and rows that pass
    it (a "+1.5", say) go to ``_convert_rows``.  An index outside int64
    raises DataError once every later row has passed its checks.
    """
    device, lineno, overflow = "", 0, None
    blocks = [[np.empty(0, dtype) for dtype in _DTYPES]]  # then each block's columns
    with open_text(path) as text:
        lines = map(str.strip, chain.from_iterable(split_pieces(text)))
        for lineno, line in enumerate(lines, 1):  # up to the header
            if line.startswith("#"):
                device = _device(line, device)
            elif line == _HEADER:
                break
            elif line:
                raise DataError(f"line {lineno}: expected header {_HEADER!r}, got {line!r}")
        for first in count(lineno + 1, _BLOCK_ROWS):
            texts = list(islice(lines, _BLOCK_ROWS))
            if not texts:
                break
            if not any(texts):  # all blank
                continue
            try:
                block = _parse_block(texts)  # most blocks: data rows only
                if block is None:
                    rows = []
                    for lineno, line in enumerate(texts, first):
                        if line.startswith("#"):
                            device = _device(line, device)
                        elif line:
                            rows.append((lineno, line))
                    if not rows:
                        continue
                    data = [line for _, line in rows]
                    block = _parse_block(data)
                    if block is None:
                        for lineno, line in rows:
                            _check_row(lineno, line)
                        block = _convert_rows(data)
                blocks.append(block)
            except OverflowError as exc:  # a later bad row still names its line first
                overflow = overflow or exc
    if overflow is not None:
        raise DataError(_INDEX_OVERFLOW.format(overflow)) from overflow
    columns = list(map(np.concatenate, zip(*blocks)))
    del blocks  # before the table sorts copies of its columns
    return IQShotTable(device, *columns)


# ---------------------------------------------------------------------------
# config parsing and the packaged presets (a five-qubit linear chain)
# ---------------------------------------------------------------------------


def packaged_config(name: str) -> dict:
    """Parsed JSON of the packaged file ``configs/<name>``."""
    text = resources.files("qkmeans").joinpath("configs", name).read_text(encoding="utf-8")
    return json.loads(text)


def default_coupling_map() -> CouplingMap:
    """Linear chain 0-1-2-3-4 (``configs/coupling_map.json``)."""
    return coupling_from_dict(packaged_config("coupling_map.json"))


def default_readout_model() -> ReadoutModel:
    """The no-crosstalk preset (``configs/default_model.json``).

    Calibrated so per-qubit half-separation/sigma gives 10-fold k-means
    fidelities inside the 0.95..0.995 target band, with no crosstalk."""
    return model_from_dict(packaged_config("default_model.json"))


def crosstalk_demo_model() -> ReadoutModel:
    """The default model plus bidirectional coupling on pairs (1,2), (2,3)
    (``configs/crosstalk_model.json``)."""
    return model_from_dict(packaged_config("crosstalk_model.json"))


# Parse failures of user JSON; ConfigError (a ValueError) raised by the
# dataclass checks passes through with its own message.
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError, OverflowError)


def model_from_dict(payload: dict) -> ReadoutModel:
    try:
        qubits = {
            parse_index(q): QubitReadoutSpec(
                ground_center=spec["ground_center"],
                excited_center=spec["excited_center"],
                cluster_stddev=spec.get("cluster_stddev", (1.0, 1.0)),
            )
            for q, spec in payload["qubits"].items()
        }
        crosstalk = {}
        for key, kappa in payload.get("crosstalk", {}).items():
            check_number(f"crosstalk strength for {key!r}", kappa, integral=False)
            crosstalk[parse_pair(key)] = float(kappa)
        return ReadoutModel(
            device=payload.get("device", ""), qubits=qubits, crosstalk=crosstalk
        )
    except ConfigError:
        raise
    except _MALFORMED as exc:
        raise ConfigError(f"malformed readout model config: {exc}") from exc


def coupling_from_dict(payload: dict) -> CouplingMap:
    try:
        return CouplingMap(
            device=payload.get("device", ""),
            edges=tuple(tuple(edge) for edge in payload["edges"]),
        )
    except ConfigError:
        raise
    except _MALFORMED as exc:
        raise ConfigError(f"malformed coupling map config: {exc}") from exc
