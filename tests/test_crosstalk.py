"""Correlation analysis and crosstalk-flagging tests."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qkmeans.crosstalk import (
    CorrelationReport,
    CrosstalkFlag,
    analyze_pair,
    flag_crosstalk,
    heatmap_lines,
    named_block_lines,
    named_form_labels,
    parse_named_block,
    pearson,
)
from qkmeans.errors import DataError
from qkmeans.iqdata import (
    CROSSTALK_LATENT_GAIN,
    CouplingMap,
    IQShotTable,
    crosstalk_demo_model,
    default_coupling_map,
    default_readout_model,
    schedule_name,
    synthesize,
)

FIXTURE = Path(__file__).parent / "data" / "reference_named_coefficients.csv"

float_arrays = st.lists(
    st.floats(-1000.0, 1000.0), min_size=3, max_size=40
).filter(lambda xs: max(xs) > min(xs))

# pearson rescales deviations outside this range to unit size first: their
# squares, or the product of the two variances, would lose bits in the
# subnormal range or overflow.  IQ data stays far inside it, so its
# correlations keep the unscaled formula's exact bits.
_SAFE_SPREAD = (1e-60, 1e60)


def reference_pearson(a, b) -> float:
    """The ``pearson`` that divided deviations outside ``_SAFE_SPREAD`` by
    their spread, kept verbatim as the reference its power-of-two scaling
    must match bit for bit wherever the unscaled formula loses no bits."""
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


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@st.composite
def signal_pairs(draw, values=st.floats(-1000.0, 1000.0), exponents=st.integers(-60, 57)):
    """Two equal-length signals of 2 to 300 values, each scaled by its own
    power of ten."""
    n = draw(st.integers(2, 300))
    return tuple(draw(arrays(np.float64, n, elements=values)) * 10.0 ** draw(exponents)
                 for _ in range(2))


class TestPearson:
    def test_worked_example(self):
        # covariance 5, variances 2 and 38/3 -> r = 15 / sqrt(228)
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
            15.0 / np.sqrt(228.0), abs=1e-12
        )

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.normal(size=30)
            b = rng.normal(size=30) + 0.5 * a
            assert pearson(a, b) == pytest.approx(
                scipy.stats.pearsonr(a, b).statistic, abs=1e-12
            )

    def test_perfect_and_inverse(self):
        a = np.array([1.0, 2.0, 5.0])
        assert pearson(a, 2 * a + 3) == pytest.approx(1.0)
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_zero_variance_is_nan(self):
        assert np.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert np.isnan(pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_subnormal_and_huge_spreads_keep_precision(self):
        a = np.array([1.0, 2.0, 4.0])
        b = np.array([1.0, 2.5, 3.5])
        base = pearson(a, b)
        for scale_a, scale_b in ((1e-200, 1.0), (1e-160, 1e-160), (1e200, 1e-200), (1e300, 1e300)):
            assert pearson(scale_a * a, scale_b * b) == pytest.approx(base, abs=1e-12)
        # deviations near 1e-159 square into the subnormal range and lose bits
        tiny = np.array([0.0, 0.0, 2.320684972860438e-159])
        noisy = tiny + np.random.default_rng(0).normal(size=3)
        assert pearson(tiny, 0.5 * noisy) == pytest.approx(pearson(tiny, noisy), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson(np.ones((2, 2)), np.ones((2, 2)))

    @given(signal_pairs())
    @settings(max_examples=150)
    def test_matches_reference_inside_its_safe_range(self, signals):
        # inside _SAFE_SPREAD the reference is the unscaled formula, which
        # loses bits when a product of two deviations is subnormal; with every
        # nonzero deviation at least 1e-90, no product in either version is
        for signal in signals:
            deviations = np.abs(signal - signal.mean())
            assume(_SAFE_SPREAD[0] <= deviations.max() <= _SAFE_SPREAD[1])
            assume(np.all((deviations == 0) | (deviations >= 1e-90)))
            assume(signal.min() < signal.max())
        assert bits(pearson(*signals)) == bits(reference_pearson(*signals))

    def test_keeps_bits_the_unscaled_formula_loses(self):
        # each signal's spread is inside _SAFE_SPREAD, but the reference's
        # products near 1e-320 are subnormal and keep only ~11 bits
        x = np.array([1.3e-60, 1.3e-60, -1.3e-60, -1.3e-60])
        y = np.array([1.0, -1.0, 1.37e-260, 0.0])
        dx, dy = ([Fraction(v) for v in s - s.mean()] for s in (x, y))
        den = math.sqrt(float(sum(a * a for a in dx) * sum(b * b for b in dy)))
        exact = float(sum(a * b for a, b in zip(dx, dy)) / Fraction(den))
        assert reference_pearson(x, y) != pytest.approx(exact, rel=1e-6, abs=0)
        assert pearson(x, y) == pytest.approx(exact, rel=1e-12, abs=0)
        assert pearson(x * 2.0**300, y * 2.0**-100) == pearson(x, y)

    @given(
        signal_pairs(
            values=st.floats(-1e100, 1e100).map(lambda v: v if abs(v) >= 1e-100 else 0.0),
            exponents=st.just(0),
        ),
        st.integers(-200, 200),
        st.integers(-200, 200),
    )
    @settings(max_examples=80)
    def test_exact_under_power_of_two_scaling(self, signals, a, b):
        # values of 0 or 1e-100..1e100 in magnitude keep every mean and
        # deviation normal after scaling by 2**-200..2**200, so they scale exactly
        x, y = signals
        assert bits(pearson(x * 2.0**a, y * 2.0**b)) == bits(pearson(x, y))

    def test_constant_signal_is_nan_even_when_its_mean_rounds(self):
        # the mean of three 0.1s is 0.1 + 2**-56, so the reference's
        # deviations are not zero and it returned 0.0
        assert reference_pearson([0.1] * 3, [1.0, 2.0, 3.0]) == 0.0
        assert np.isnan(pearson([0.1] * 3, [1.0, 2.0, 3.0]))
        assert np.isnan(pearson([1.0, 2.0, 4.0], [0.1] * 3))

    @given(float_arrays, float_arrays)
    @settings(max_examples=50)
    def test_symmetric(self, a, b):
        size = min(len(a), len(b))
        a = np.array(a[:size])
        b = np.array(b[:size])
        ra = pearson(a, b)
        rb = pearson(b, a)
        if np.isnan(ra):
            assert np.isnan(rb)
        else:
            assert ra == pytest.approx(rb, abs=1e-12)
            assert -1.0 <= ra <= 1.0

    @given(float_arrays, st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
    @settings(max_examples=50)
    def test_affine_invariance(self, a, scale, shift):
        a = np.array(a)
        rng = np.random.default_rng(0)
        b = a + rng.normal(size=a.size)
        base = pearson(a, b)
        if np.isnan(base):
            return
        assert pearson(a, scale * b + shift) == pytest.approx(base, abs=1e-9)
        assert pearson(a, -scale * b + shift) == pytest.approx(-base, abs=1e-9)


TOY_COUPLING = CouplingMap(device="synthetic-5q-chain", edges=((1, 2),))


def parse_grid(lines):
    """(axis labels, 8x8 matrix) of a ``heatmap_lines`` grid."""
    header = lines[0].split(",")
    assert header[0] == "label"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == header[1:]
    return tuple(header[1:]), np.array([[float(v) for v in row[1:]] for row in rows])


class TestAnalyzePair:
    def test_labels_and_shape(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 128, seed=0)
        report = analyze_pair(table, (1, 2))
        assert report.pair == (1, 2)
        labels, matrix = parse_grid(heatmap_lines(table, (1, 2)))
        assert matrix.shape == (8, 8)
        assert labels == (
            "0_1_real", "0_1_imag", "0_2_real", "0_2_imag",
            "1_1_real", "1_1_imag", "1_2_real", "1_2_imag",
        )
        assert len(report.named_coefficients) == len(named_form_labels()) == 8
        assert all(type(value) is float for value in report.named_coefficients)

    def test_matrix_is_exactly_symmetric_with_unit_diagonal(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 96, seed=1)
        _, matrix = parse_grid(heatmap_lines(table, (1, 2)))
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), np.ones(8))
        assert np.all(np.abs(matrix) <= 1.0)

    def test_coupled_pair_named_values_hit_latent_sharing_exactly(self):
        # every sample is stddev * (eps + lam * latent) around its center,
        # with eps and latent exactly orthonormal columns, so each named
        # coefficient equals lam^2 / (1 + lam^2) to machine precision
        model = crosstalk_demo_model()
        table = synthesize(model, TOY_COUPLING, 512, seed=2)
        report = analyze_pair(table, (1, 2))
        lam = CROSSTALK_LATENT_GAIN * 0.3
        expected = lam * lam / (1.0 + lam * lam)
        for label, value in zip(named_form_labels(), report.named_coefficients):
            assert value == pytest.approx(expected, abs=1e-12), label

    def test_uncoupled_pair_named_values_are_exact_nulls(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 256, seed=3)
        report = analyze_pair(table, (1, 2))
        for value in report.named_coefficients:
            assert abs(value) < 1e-12

    def test_named_values_scale_with_kappa(self):
        values = {}
        for kappa in (0.2, 0.25, 0.3):
            model = crosstalk_demo_model()
            model = type(model)(
                device=model.device,
                qubits=model.qubits,
                crosstalk={(1, 2): kappa, (2, 1): kappa},
            )
            table = synthesize(model, TOY_COUPLING, 128, seed=4)
            report = analyze_pair(table, (1, 2))
            lam = CROSSTALK_LATENT_GAIN * kappa
            values[kappa] = report.max_named_abs()
            assert values[kappa] == pytest.approx(
                lam * lam / (1.0 + lam * lam), abs=1e-12
            )
        assert values[0.2] < values[0.25] < values[0.3]

    def test_missing_schedule_rejected(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 16, seed=0)
        keep = table.schedule != "01"
        partial = IQShotTable(
            device=table.device,
            pair_first=table.pair_first[keep],
            pair_second=table.pair_second[keep],
            qubit=table.qubit[keep],
            schedule=table.schedule[keep],
            shot=table.shot[keep],
            i_value=table.i_value[keep],
            q_value=table.q_value[keep],
        )
        for analysis in (analyze_pair, heatmap_lines):
            with pytest.raises(DataError, match="missing schedules"):
                analysis(partial, (1, 2))

    def test_unequal_shot_counts_rejected(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 16, seed=0)
        drop = (table.qubit == 1) & (table.schedule == "00") & (table.shot == 0)
        uneven = IQShotTable(
            device=table.device,
            pair_first=table.pair_first[~drop],
            pair_second=table.pair_second[~drop],
            qubit=table.qubit[~drop],
            schedule=table.schedule[~drop],
            shot=table.shot[~drop],
            i_value=table.i_value[~drop],
            q_value=table.q_value[~drop],
        )
        for analysis in (analyze_pair, heatmap_lines):
            with pytest.raises(DataError, match="unequal shot counts"):
                analysis(uneven, (1, 2))

    def test_single_shot_per_schedule_rejected(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 1, seed=0)
        for analysis in (analyze_pair, heatmap_lines):
            with pytest.raises(DataError, match="at least 2 shots"):
                analysis(table, (1, 2))


class TestFlagging:
    def _reports(self):
        model = crosstalk_demo_model()
        table = synthesize(model, default_coupling_map(), 256, seed=5)
        return [analyze_pair(table, pair) for pair in table.pairs()]

    def test_flags_only_coupled_pairs(self):
        flags = flag_crosstalk(self._reports())
        assert [f.pair for f in flags] == [(1, 2), (2, 3)]
        for flag in flags:
            assert any("max named |r|" in e for e in flag.evidence)

    def test_threshold_is_respected(self):
        flags = flag_crosstalk(self._reports(), threshold=0.5)
        assert flags == ()

    def test_fidelity_gap_rule(self):
        reports = self._reports()
        fidelities = {}
        for report in reports:
            for qubit in report.pair:
                fidelities[(report.pair, qubit, "single")] = 0.99
                fidelities[(report.pair, qubit, "both")] = 0.99
        # open a gap on an *uncoupled* pair's qubit
        fidelities[((0, 1), 0, "both")] = 0.96
        flags = flag_crosstalk(reports, fidelities, threshold=0.99)
        assert [f.pair for f in flags] == [(0, 1)]
        assert "fidelity gap" in flags[0].evidence[0]

    def test_gap_below_cut_is_quiet(self):
        reports = self._reports()
        fidelities = {}
        for report in reports:
            for qubit in report.pair:
                fidelities[(report.pair, qubit, "single")] = 0.990
                fidelities[(report.pair, qubit, "both")] = 0.981
        flags = flag_crosstalk(reports, fidelities, threshold=0.99)
        assert flags == ()

    def test_qubit_missing_a_fidelity_kind_rejected(self):
        reports = self._reports()
        fidelities = {
            (report.pair, qubit, kind): 0.99
            for report in reports for qubit in report.pair for kind in ("single", "both")
        }
        del fidelities[((1, 2), 2, "both")]
        with pytest.raises(DataError, match=r"qubit 2's single or both row for pair \(1, 2\)"):
            flag_crosstalk(reports, fidelities)

    def test_pair_mismatch_rejected(self):
        reports = self._reports()
        fidelities = {((9, 10), 9, "single"): 0.5}
        with pytest.raises(DataError, match="pair mismatch"):
            flag_crosstalk(reports, fidelities)

    def test_all_nan_report_never_flags(self):
        report = CorrelationReport(pair=(0, 1), named_coefficients=(float("nan"),) * 8)
        assert np.isnan(report.max_named_abs())
        assert flag_crosstalk([report]) == ()

    def test_parsed_block_flags_the_same_pairs(self):
        reports = self._reports()
        parsed = parse_named_block(named_block_lines(reports))
        for threshold in (0.1, 0.5):
            assert flag_crosstalk(parsed, threshold=threshold) == flag_crosstalk(
                reports, threshold=threshold
            )
        assert [f.pair for f in flag_crosstalk(parsed)] == [(1, 2), (2, 3)]


class TestSerialization:
    def test_heatmap_lines_round_trip_values(self):
        table = synthesize(default_readout_model(), TOY_COUPLING, 64, seed=6)
        lines = heatmap_lines(table, (1, 2))
        assert len(lines) == 9
        labels, matrix = parse_grid(lines)
        # repr() round trip is exact: each off-diagonal cell is the Pearson r
        # of two labeled signals, each its ground schedule then its excited one
        signals = []
        for label in labels:
            own_state, qubit, feature = label.split("_")
            pos = (1, 2).index(int(qubit))
            signals.append(np.concatenate([
                table.values((1, 2), int(qubit), schedule_name(pos, int(own_state), neighbor),
                             {"real": "i", "imag": "q"}[feature])
                for neighbor in (0, 1)
            ]))
        for r in range(8):
            for c in range(8):
                expected = 1.0 if r == c else pearson(signals[r], signals[c])
                assert matrix[r, c] == expected

    def test_named_block_round_trip(self):
        model = crosstalk_demo_model()
        table = synthesize(model, default_coupling_map(), 64, seed=7)
        reports = [analyze_pair(table, pair) for pair in table.pairs()]
        lines = named_block_lines(reports)
        parsed = parse_named_block(lines)
        assert len(parsed) == len(reports)
        for before, after in zip(reports, parsed):
            assert after.pair == before.pair
            # repr() round trip is exact
            assert after.named_coefficients == before.named_coefficients

    def test_reference_fixture_parses_and_flags(self):
        reports = parse_named_block(FIXTURE.read_text().splitlines())
        assert [r.pair for r in reports] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        flags = flag_crosstalk(reports)
        assert [f.pair for f in flags] == [(1, 2), (2, 3)]

    def test_indented_comment_lines_are_skipped(self):
        lines = FIXTURE.read_text().splitlines()
        commented = ["  # note", lines[0], "\t# another", *lines[1:], "   #"]
        assert parse_named_block(commented) == parse_named_block(lines)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(DataError):
            parse_named_block(["shape,0-1", '"x",0.1'])

    def test_parse_rejects_bad_pair_token(self):
        with pytest.raises(DataError):
            parse_named_block(["form,zero-one"] + ['"x",0.0'] * 8)

    def test_parse_rejects_out_of_order_forms(self):
        lines = named_block_lines(
            parse_named_block(FIXTURE.read_text().splitlines())
        )
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(DataError, match="expected form"):
            parse_named_block(lines)

    def test_parse_rejects_wrong_row_count(self):
        lines = FIXTURE.read_text().splitlines()[:-1]
        with pytest.raises(DataError, match="coefficient rows"):
            parse_named_block(lines)

    def test_parse_rejects_malformed_value(self):
        lines = FIXTURE.read_text().replace("0.0311", "zero").splitlines()
        with pytest.raises(DataError, match="malformed value"):
            parse_named_block(lines)


ZEROS = (0.0,) * 8


class TestReportValidation:
    def test_named_coefficient_count_checked(self):
        for named in ((), ZEROS[:7], ZEROS + (0.0,)):
            with pytest.raises(ValueError, match="8 named coefficients"):
                CorrelationReport(pair=(0, 1), named_coefficients=named)

    def test_nan_entries_allowed_when_symmetric(self):
        # qubit 1's I values are constant, so every correlation with its two
        # real-part signals is nan, on both sides of the diagonal
        table = synthesize(default_readout_model(), TOY_COUPLING, 32, seed=8)
        flat = IQShotTable(
            device=table.device,
            pair_first=table.pair_first,
            pair_second=table.pair_second,
            qubit=table.qubit,
            schedule=table.schedule,
            shot=table.shot,
            i_value=np.where(table.qubit == 1, 0.25, table.i_value),
            q_value=table.q_value,
        )
        labels, matrix = parse_grid(heatmap_lines(flat, (1, 2)))
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), np.ones(8))
        flat_rows = [k for k, label in enumerate(labels) if label.endswith("_1_real")]
        assert flat_rows == [0, 4]
        off_diagonal = ~np.eye(8, dtype=bool)
        for k in flat_rows:
            assert np.all(np.isnan(matrix[k][off_diagonal[k]]))
        others = [k for k in range(8) if k not in flat_rows]
        assert np.all(np.isfinite(matrix[np.ix_(others, others)]))
