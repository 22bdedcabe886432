"""The row-by-row shot-table writer and reader that ``iqdata.save_table``
and ``iqdata.load_table`` replaced, kept verbatim as the reference their
block-wise versions must match byte for byte and error for error."""

from __future__ import annotations

import math

from qkmeans.errors import DataError, parse_index, parse_pair, read_lines
from qkmeans.iqdata import _COLUMNS, _HEADER, SCHEDULES, IQShotTable


def save_table(table: IQShotTable, path) -> None:
    lines = [f"# device: {table.device}", _HEADER]
    for row in range(len(table)):
        lines.append(
            f"{table.pair_first[row]}-{table.pair_second[row]},"
            f"{table.qubit[row]},{table.schedule[row]},{table.shot[row]},"
            f"{repr(float(table.i_value[row]))},{repr(float(table.q_value[row]))}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> IQShotTable:
    device = ""
    rows: dict[str, list] = {k: [] for k in _COLUMNS}
    header_seen = False
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if body.startswith("device:"):
                device = body[len("device:"):].strip()
            continue
        if not header_seen:
            if text != _HEADER:
                raise DataError(f"line {lineno}: expected header {_HEADER!r}, got {text!r}")
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != 6:
            raise DataError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            first, second = parse_pair(parts[0])
            rows["pair_first"].append(first)
            rows["pair_second"].append(second)
            rows["qubit"].append(parse_index(parts[1]))
            rows["schedule"].append(parts[2])
            rows["shot"].append(parse_index(parts[3]))
            rows["i_value"].append(float(parts[4]))
            rows["q_value"].append(float(parts[5]))
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed row ({exc})") from exc
        if not (math.isfinite(rows["i_value"][-1]) and math.isfinite(rows["q_value"][-1])):
            raise DataError(f"line {lineno}: non-finite i/q value")
        if rows["schedule"][-1] not in SCHEDULES:
            raise DataError(f"line {lineno}: invalid schedule {rows['schedule'][-1]!r}")
    try:
        return IQShotTable(device=device, **rows)
    except OverflowError as exc:
        raise DataError(f"pair, qubit or shot index outside the int64 range ({exc})") from exc
