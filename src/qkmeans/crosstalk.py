"""Pearson-correlation crosstalk analysis for coupled qubit pairs.

``iqdata`` owns the schedule convention (``schedule_name``) and the
all-four-schedules check; the analysis also needs at least 2 shots per
schedule, equally many in each.

For a coupled pair (a, b) the analysis builds 8 signal arrays — own
state {0, 1} x qubit {a, b} x feature {real, imag} — each the
concatenation of the neighbor-ground schedule followed by the
neighbor-excited schedule, labeled ``{state}_{qubit}_{real|imag}``.
``heatmap_lines`` computes their full 8x8 correlation matrix, the
heatmap grid.

The 8 *named* coefficients correlate, for each pair qubit q and each own
state j, q's feature X in the schedule where its neighbor is excited
(ES) against q's feature Y where the neighbor stays in ground (GS),
shots paired by index, for (X, Y) = (I, Q) and (Q, I):

    r_j(ES_q_X, GS_q_Y)

Row labels are pair-relative ("a" = first qubit of the couple, "b" =
second) so the 8 forms line up across pairs in the table block.  A
report holds the 8 values as a tuple of floats in the row order of
``named_form_labels()``; one table fixes that order for the analysis,
the block writer and the block parser.

A pair is flagged when the largest finite named |r| reaches
``threshold`` or when either qubit's single-schedule vs all-schedule
mean fidelity differ by at least ``fidelity_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, check_number, parse_pair
from .iqdata import SCHEDULES, IQShotTable, schedule_name

FEATURE_NAMES = {"i": "real", "q": "imag"}
# pearson rescales deviations outside this range to unit size first: their
# squares, or the product of the two variances, would lose bits in the
# subnormal range or overflow.  IQ data stays far inside it, so its
# correlations keep the unscaled formula's exact bits.
_SAFE_SPREAD = (1e-60, 1e60)
# (pair slot, own state, ES feature, GS feature) of each named coefficient,
# in row order.
_NAMED_FORMS = tuple(
    (slot, state, es_feat, gs_feat)
    for slot in ("a", "b")
    for state in (0, 1)
    for es_feat, gs_feat in (("i", "q"), ("q", "i"))
)


def pearson(a, b) -> float:
    """Sample Pearson correlation; NaN when either array has zero variance."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("pearson needs two equal-length 1-D arrays")
    if x.size < 2:
        raise ValueError("pearson needs at least two samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx, sy = float(np.max(np.abs(dx))), float(np.max(np.abs(dy)))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    if not (_SAFE_SPREAD[0] <= min(sx, sy) and max(sx, sy) <= _SAFE_SPREAD[1]):
        dx, dy = dx / sx, dy / sy
    vx = float(np.sum(dx * dx))
    vy = float(np.sum(dy * dy))
    return float(np.clip(np.sum(dx * dy) / np.sqrt(vx * vy), -1.0, 1.0))


@dataclass(frozen=True)
class CrosstalkFlag:
    pair: tuple[int, int]
    evidence: tuple[str, ...]


@dataclass(frozen=True)
class CorrelationReport:
    """Per-pair analysis output: the 8 named coefficients in
    ``named_form_labels()`` order."""

    pair: tuple[int, int]
    named_coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.named_coefficients) != len(_NAMED_FORMS):
            raise ValueError(f"a report holds {len(_NAMED_FORMS)} named coefficients")

    def max_named_abs(self) -> float:
        """Largest finite |named coefficient|; NaN if none are finite."""
        values = np.asarray(self.named_coefficients, dtype=np.float64)
        finite = values[np.isfinite(values)]
        return float(np.max(np.abs(finite))) if finite.size else float("nan")


def named_form_labels() -> tuple[str, ...]:
    """The 8 pair-relative coefficient labels in canonical row order."""
    return tuple(
        f"r{state}(ES_{slot}_{es_feat.upper()}, GS_{slot}_{gs_feat.upper()})"
        for slot, state, es_feat, gs_feat in _NAMED_FORMS
    )


def _checked_pair(table: IQShotTable, pair: tuple[int, int]) -> tuple[int, int]:
    """``pair`` as ints once its schedules hold equal counts of >= 2 shots."""
    pair = (int(pair[0]), int(pair[1]))
    table.require_schedules(pair)
    counts = {(q, s): table.values(pair, q, s, "i").size for q in pair for s in SCHEDULES}
    if len(set(counts.values())) != 1:
        raise DataError(f"pair {pair} has unequal shot counts across schedules: {counts}")
    if min(counts.values()) < 2:
        raise DataError(f"pair {pair} needs at least 2 shots per schedule for correlations")
    return pair


def analyze_pair(table: IQShotTable, pair: tuple[int, int]) -> CorrelationReport:
    """Named coefficients for one coupled pair."""
    pair = _checked_pair(table, pair)
    named = []
    for slot, own_state, es_feat, gs_feat in _NAMED_FORMS:
        pos = "ab".index(slot)
        es = table.values(pair, pair[pos], schedule_name(pos, own_state, 1), es_feat)
        gs = table.values(pair, pair[pos], schedule_name(pos, own_state, 0), gs_feat)
        named.append(pearson(es, gs))
    return CorrelationReport(pair=pair, named_coefficients=tuple(named))


def flag_crosstalk(
    reports: Sequence[CorrelationReport],
    fidelities: Mapping[tuple[tuple[int, int], int, str], float] | None = None,
    threshold: float = 0.1,
    fidelity_gap: float = 0.02,
) -> tuple[CrosstalkFlag, ...]:
    """Flag pairs by correlation magnitude or single-vs-both fidelity gap.

    ``fidelities`` maps (pair, qubit, "single"|"both") to a mean fidelity,
    with both kinds for every qubit of every pair; pass None (or {}) to
    flag on correlations alone.
    """
    check_number("threshold", threshold, 0.0, integral=False)
    check_number("fidelity_gap", fidelity_gap, 0.0, integral=False)
    fidelities = dict(fidelities or {})
    report_pairs = [r.pair for r in reports]
    if fidelities:
        score_pairs = {key[0] for key in fidelities}
        if score_pairs != set(report_pairs):
            raise DataError(
                f"pair mismatch between correlation reports {sorted(report_pairs)} "
                f"and fidelity tables {sorted(score_pairs)}"
            )
    flags: list[CrosstalkFlag] = []
    for report in reports:
        evidence: list[str] = []
        peak = report.max_named_abs()
        if np.isfinite(peak) and peak >= threshold:
            evidence.append(f"max named |r| = {peak:.4f} >= threshold {threshold:g}")
        if fidelities:
            for qubit in report.pair:
                single = fidelities.get((report.pair, qubit, "single"))
                both = fidelities.get((report.pair, qubit, "both"))
                if single is None or both is None:
                    raise DataError(f"fidelity tables lack qubit {qubit}'s single or both row "
                                    f"for pair {report.pair}")
                gap = abs(single - both)
                if gap >= fidelity_gap:
                    evidence.append(
                        f"qubit {qubit} single/both fidelity gap = {gap:.4f} "
                        f">= {fidelity_gap:g}"
                    )
        if evidence:
            flags.append(CrosstalkFlag(pair=report.pair, evidence=tuple(evidence)))
    return tuple(flags)


# ---------------------------------------------------------------------------
# text serialization (heatmap grids, named-coefficient block)
# ---------------------------------------------------------------------------


def heatmap_lines(table: IQShotTable, pair: tuple[int, int]) -> list[str]:
    """The pair's delimited 8x8 grid with axis labels, one header + 8 rows."""
    pair = _checked_pair(table, pair)
    arrays: list[np.ndarray] = []
    labels: list[str] = []
    for own_state in (0, 1):
        for pos, qubit in enumerate(pair):
            for feature in ("i", "q"):
                ground = table.values(pair, qubit, schedule_name(pos, own_state, 0), feature)
                excited = table.values(pair, qubit, schedule_name(pos, own_state, 1), feature)
                arrays.append(np.concatenate([ground, excited]))
                labels.append(f"{own_state}_{qubit}_{FEATURE_NAMES[feature]}")

    matrix = np.eye(8)
    for r in range(8):
        for c in range(r + 1, 8):
            value = pearson(arrays[r], arrays[c])
            matrix[r, c] = value
            matrix[c, r] = value

    lines = ["label," + ",".join(labels)]
    for label, row in zip(labels, matrix):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    return lines


def named_block_lines(reports: Sequence[CorrelationReport]) -> list[str]:
    """Table-shaped block: 8 form rows, one value column per pair."""
    header = "form," + ",".join(f"{a}-{b}" for a, b in (r.pair for r in reports))
    lines = [header]
    for row_idx, label in enumerate(named_form_labels()):
        values = [repr(float(report.named_coefficients[row_idx])) for report in reports]
        lines.append(f'"{label}",' + ",".join(values))
    return lines


def parse_named_block(lines: Sequence[str]) -> list[CorrelationReport]:
    """Rebuild reports from a coefficient block."""
    rows = [line.strip() for line in lines if line.strip() and not line.startswith("#")]
    if not rows:
        raise DataError("named-coefficient block is empty")
    header = rows[0].split(",")
    if header[0] != "form":
        raise DataError("named-coefficient block must start with a 'form' header")
    pairs: list[tuple[int, int]] = []
    for token in header[1:]:
        pairs.append(parse_pair(token))
        if pairs.count(pairs[-1]) > 1:
            raise DataError(f"pair column {token!r} appears twice")
    expected = named_form_labels()
    if len(rows) != 1 + len(expected):
        raise DataError(f"expected {len(expected)} coefficient rows, got {len(rows) - 1}")
    values = np.empty((len(expected), len(pairs)))
    for r, line in enumerate(rows[1:]):
        label, _, rest = line.partition('",')
        label = label.lstrip('"')
        if label != expected[r]:
            raise DataError(f"row {r + 1}: expected form {expected[r]!r}, got {label!r}")
        parts = rest.split(",")
        if len(parts) != len(pairs):
            raise DataError(f"row {r + 1}: expected {len(pairs)} values")
        try:
            values[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"row {r + 1}: malformed value ({exc})") from exc
    return [
        CorrelationReport(pair=pair, named_coefficients=tuple(float(v) for v in values[:, c]))
        for c, pair in enumerate(pairs)
    ]
