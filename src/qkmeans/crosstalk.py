"""Pearson-correlation crosstalk analysis for coupled qubit pairs.

``iqdata`` owns the schedule convention (``schedule_name``) and the
all-four-schedules check; the analysis also needs at least 2 shots per
schedule, equally many in each.

For a coupled pair (a, b) one gather after those checks yields 8 signals
— own state {0, 1} x qubit {a, b} x feature {real, imag} — each the
neighbor-ground then the neighbor-excited schedule, labeled
``{state}_{qubit}_{real|imag}``; ``analyze_pair`` and ``heatmap_lines``
both read it.  The heatmap grid is their full 8x8 correlation matrix.

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
# (pair slot, own state, ES feature, GS feature) of each named coefficient,
# in row order.
_NAMED_FORMS = tuple(
    (slot, state, es_feat, gs_feat)
    for slot in ("a", "b")
    for state in (0, 1)
    for es_feat, gs_feat in (("i", "q"), ("q", "i"))
)


def pearson(a, b) -> float:
    """Sample Pearson correlation; NaN when either array has zero spread (all
    values equal).  Deviations are scaled by a power of two into [0.5, 1),
    which is exact: the unscaled formula's bits wherever that loses none."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise DataError("pearson needs two equal-length 1-D arrays")
    if x.size < 2:
        raise DataError("pearson needs at least two samples")
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    dx = x - x.mean()
    dy = y - y.mean()
    dx = np.ldexp(dx, -np.frexp(np.max(np.abs(dx)))[1])
    dy = np.ldexp(dy, -np.frexp(np.max(np.abs(dy)))[1])
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
            raise DataError(f"a report holds {len(_NAMED_FORMS)} named coefficients")

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


def _signals(table: IQShotTable, pair: tuple[int, int]) -> tuple[tuple[int, int], dict]:
    """``pair`` as ints and its 8 signals, ``{(own_state, pos, feature):
    (neighbor-ground, neighbor-excited)}`` in heatmap order, once its
    schedules hold equal counts of >= 2 shots."""
    pair = (int(pair[0]), int(pair[1]))
    table.require_schedules(pair)
    counts = {(q, s): table.values(pair, q, s, "i").size for q in pair for s in SCHEDULES}
    if len(set(counts.values())) != 1:
        raise DataError(f"pair {pair} has unequal shot counts across schedules: {counts}")
    if min(counts.values()) < 2:
        raise DataError(f"pair {pair} needs at least 2 shots per schedule for correlations")
    return pair, {
        (own_state, pos, feature): tuple(
            table.values(pair, pair[pos], schedule_name(pos, own_state, neighbor), feature)
            for neighbor in (0, 1)
        )
        for own_state in (0, 1) for pos in (0, 1) for feature in ("i", "q")
    }


def analyze_pair(table: IQShotTable, pair: tuple[int, int]) -> CorrelationReport:
    """Named coefficients for one coupled pair."""
    pair, signals = _signals(table, pair)
    named = tuple(
        pearson(signals[own_state, "ab".index(slot), es_feat][1],
                signals[own_state, "ab".index(slot), gs_feat][0])
        for slot, own_state, es_feat, gs_feat in _NAMED_FORMS
    )
    return CorrelationReport(pair=pair, named_coefficients=named)


def flag_crosstalk(
    reports: Sequence[CorrelationReport],
    fidelities: Mapping[tuple[tuple[int, int], int, str], float] | None = None,
    threshold: float = 0.1,
    fidelity_gap: float = 0.02,
) -> tuple[CrosstalkFlag, ...]:
    """Flag pairs by correlation magnitude or single-vs-both fidelity gap.

    ``fidelities`` maps (pair, qubit, "single"|"both") to a mean fidelity,
    with both kinds for every qubit of every pair; pass None (or {}) to
    flag on correlations alone.  A zero-spread signal's NaN coefficients
    (a symmetric NaN in the heatmap) are skipped by ``max_named_abs``, so
    such a pair can be flagged only by the fidelity-gap rule.
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
    pair, signals = _signals(table, pair)
    arrays = [np.concatenate(halves) for halves in signals.values()]
    labels = [f"{state}_{pair[pos]}_{FEATURE_NAMES[feature]}" for state, pos, feature in signals]

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
    rows = [text for text in map(str.strip, lines) if text and not text.startswith("#")]
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
