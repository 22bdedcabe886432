"""Scoring and cross-validation tests with brute-force oracles."""

from __future__ import annotations

import importlib.util
import itertools
import timeit
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from qkmeans import clustering
from qkmeans.clustering import DISTANCE_MODES, FitConfig
from qkmeans.dataset import DataSet
from qkmeans.distance import BatchConfig
from qkmeans.errors import DataError
from qkmeans.metrics import (
    HALF_WIDTH_KINDS,
    METRIC_NAMES,
    ScoreReport,
    _max_matching,
    assignment_fidelity,
    contingency_table,
    cross_validate,
    fowlkes_mallows,
    score_labels,
    stratified_folds,
    table_row,
)
from qkmeans.simulator import derive_seed

from conftest import make_blobs
from test_clustering import assert_same_fit, fit_or_error, reference_fit


def oracle_fidelity(pred, truth) -> float:
    """Exhaustive relabeling search, independent of the library code."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    size = int(max(pred.max(), truth.max())) + 1
    best = 0.0
    for perm in itertools.permutations(range(size)):
        mapped = np.asarray(perm)[pred]
        best = max(best, float(np.mean(mapped == truth)))
    return best


def oracle_fm(pred, truth) -> float:
    """Direct O(n^2) co-membership pair count."""
    n = len(pred)
    tp = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            tp += same_p and same_t
            fp += same_p and not same_t
            fn += same_t and not same_p
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    return float(tp / np.sqrt((tp + fp) * (tp + fn)))


label_lists = st.lists(st.integers(0, 4), min_size=2, max_size=25)


def reference_stratified_folds(labels, n_splits: int, seed: int) -> list[np.ndarray]:
    """The per-index loop that ``stratified_folds`` replaced, kept verbatim
    after its argument checks as the reference its folds must equal."""
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts = np.unique(labels, return_counts=True)
    for value, size in zip(classes, counts):
        if size < n_splits:
            raise DataError(f"class {value} has {size} samples; need >= n_splits={n_splits}")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(n_splits)]
    for offset, value in enumerate(classes):
        shuffled = rng.permutation(np.flatnonzero(labels == value))
        for i, idx in enumerate(shuffled):
            buckets[(i + offset) % n_splits].append(int(idx))
    return [np.sort(np.asarray(bucket, dtype=np.int64)) for bucket in buckets]


def reference_assignment_fidelity(predicted, truth) -> float:
    """The numpy-division ``assignment_fidelity`` and the pair-count
    ``fowlkes_mallows`` below, kept verbatim as the references the
    contingency-table forms must match bit for bit."""
    from scipy.optimize import linear_sum_assignment

    table = contingency_table(predicted, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / table.sum())


def _pairs_together(counts: np.ndarray):
    return counts * (counts - 1) // 2


def reference_fowlkes_mallows(predicted, truth) -> float:
    """Pairwise precision/recall geometric mean; 0 when undefined."""
    table = contingency_table(predicted, truth)
    if table.sum() < 2:
        raise ValueError("need at least two points")
    true_positive = int(_pairs_together(table).sum())
    together_pred = int(_pairs_together(table.sum(axis=1)).sum())
    together_true = int(_pairs_together(table.sum(axis=0)).sum())
    if together_pred == 0 or together_true == 0:
        return 0.0
    return float(true_positive / np.sqrt(together_pred * together_true))


class TestContingency:
    def test_known_table(self):
        table = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(table, [[1, 1], [0, 2]])

    def test_table_is_square_over_joint_range(self):
        table = contingency_table([0, 0], [3, 3])
        assert table.shape == (4, 4)
        assert table[0, 3] == 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table([0, 1], [0])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            contingency_table([0, -1], [0, 0])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            contingency_table([0.5, 1.0], [0, 1])


class TestSparseLabels:
    """Past label 255 the table counts ranks among the labels in use, so
    memory follows those labels, not their values."""

    @pytest.mark.parametrize(
        ("score", "pred", "truth", "expected"),
        [
            (assignment_fidelity, [0, 10**5, 10**5], [0, 1, 1], 1.0),
            (fowlkes_mallows, [0, 10**12, 10**12], [10**12] * 3, 1 / np.sqrt(3.0)),
        ],
    )
    def test_huge_label_values_cost_no_memory(self, score, pred, truth, expected):
        score(pred, truth)  # first-call caches are not the score's
        tracemalloc.start()
        try:
            value = score(pred, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(expected, rel=1e-15)
        assert peak <= 2**16, peak

    @given(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=60),
    )
    def test_scores_equal_those_of_the_rank_compacted_labels(self, values, pairs):
        values = np.sort(np.array(values, dtype=np.int64))
        ranks = np.array(pairs) % values.size  # rank r stands for the r-th smallest value
        pred, truth = ranks[:, 0], ranks[:, 1]
        for score in (assignment_fidelity, fowlkes_mallows):
            assert score(values[pred], values[truth]) == score(pred, truth)


class TestAssignmentFidelity:
    def test_perfect(self):
        assert assignment_fidelity([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_label_permutation_is_free(self):
        assert assignment_fidelity([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0

    def test_known_mixed_value(self):
        # best mapping gets 3 of 4 points right
        assert assignment_fidelity([0, 0, 0, 1], [0, 0, 1, 1]) == 0.75

    def test_hungarian_path_matches_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred = rng.integers(0, 6, size=24)
            truth = rng.integers(0, 6, size=24)
            # 6 clusters exceeds the exhaustive cutoff inside the library
            assert assignment_fidelity(pred, truth) == pytest.approx(
                oracle_fidelity(pred, truth), abs=1e-12
            )

    @given(label_lists, label_lists)
    @settings(max_examples=60)
    def test_matches_oracle(self, pred, truth):
        size = min(len(pred), len(truth))
        pred = np.array(pred[:size])
        truth = np.array(truth[:size])
        assert assignment_fidelity(pred, truth) == pytest.approx(
            oracle_fidelity(pred, truth), abs=1e-12
        )

    @given(label_lists)
    def test_self_fidelity_is_one(self, labels):
        assert assignment_fidelity(labels, labels) == 1.0

    @given(label_lists, label_lists)
    @settings(max_examples=40)
    def test_at_least_identity_accuracy(self, pred, truth):
        # the identity relabeling is one of the candidates, so fidelity can
        # never fall below plain accuracy
        size = min(len(pred), len(truth))
        pred = np.array(pred[:size])
        truth = np.array(truth[:size])
        accuracy = float(np.mean(pred == truth))
        fid = assignment_fidelity(pred, truth)
        assert accuracy - 1e-12 <= fid <= 1.0


class TestFowlkesMallows:
    def test_perfect(self):
        assert fowlkes_mallows([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0

    def test_known_value(self):
        # contingency [[2,1],[0,1]]: TP=1, pred pairs=3, true pairs=2
        expected = 1.0 / np.sqrt(6.0)
        assert fowlkes_mallows([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(expected)

    def test_zero_when_no_pairs_in_prediction(self):
        assert fowlkes_mallows([0, 1, 2, 3], [0, 0, 1, 1]) == 0.0

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fowlkes_mallows([0], [0])

    @given(label_lists, label_lists)
    @settings(max_examples=60)
    def test_matches_oracle(self, pred, truth):
        size = min(len(pred), len(truth))
        pred = np.array(pred[:size])
        truth = np.array(truth[:size])
        assert fowlkes_mallows(pred, truth) == pytest.approx(
            oracle_fm(pred, truth), abs=1e-12
        )

    @given(label_lists, label_lists)
    @settings(max_examples=40)
    def test_symmetric(self, pred, truth):
        size = min(len(pred), len(truth))
        pred = np.array(pred[:size])
        truth = np.array(truth[:size])
        assert fowlkes_mallows(pred, truth) == pytest.approx(
            fowlkes_mallows(truth, pred), abs=1e-12
        )


class TestAgainstReference:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=200))
    @settings(max_examples=200)
    def test_scores_match_the_reference_bit_for_bit(self, pairs):
        pred, truth = (np.array(column) for column in zip(*pairs))
        for score, reference in (
            (assignment_fidelity, reference_assignment_fidelity),
            (fowlkes_mallows, reference_fowlkes_mallows),
        ):
            value = score(pred, truth)
            assert type(value) is float
            assert value.hex() == reference(pred, truth).hex()

    @pytest.mark.parametrize(
        ("pred", "truth"),
        [
            (np.zeros(100_000, int), np.zeros(100_000, int)),
            (np.arange(140_000) % 2, np.arange(140_000) % 2),
        ],
    )
    def test_fm_has_no_size_limit(self, pred, truth):
        # the product of the two pair counts is at least 2**64 here, past
        # what np.sqrt takes as an integer
        assert fowlkes_mallows(pred, truth) == 1.0


def brute_force_matched(table) -> int:
    """Largest total over every way to give each row its own column, the
    table padded with zeros to a square."""
    side = max(len(table), len(table[0]))
    square = [list(row) + [0] * (side - len(row)) for row in table]
    square += [[0] * side] * (side - len(table))
    return max(
        sum(square[r][c] for r, c in enumerate(perm))
        for perm in itertools.permutations(range(side))
    )


@st.composite
def count_tables(draw, max_side: int):
    """Count tables of 1 to ``max_side`` rows and columns: mostly small
    counts, so ties are common, and some rows and columns all zero."""
    n_rows, n_cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cell = st.sampled_from([0, 0, 0, 1, 1, 2, 3]) | st.integers(0, 40)
    table = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                          min_size=n_rows, max_size=n_rows))
    for r in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
        table[r] = [0] * n_cols
    for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
        for row in table:
            row[c] = 0
    return table


def wide(table):
    """The table, or its transpose when it has more rows than columns."""
    return table if len(table) <= len(table[0]) else [list(col) for col in zip(*table)]


needs_scipy = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="the reference solver is SciPy's"
)


class TestMaxMatching:
    @given(data=st.data(), table=count_tables(max_side=7))
    @settings(max_examples=200)
    def test_matched_count_equals_brute_force(self, data, table):
        expected = brute_force_matched(table)
        assert _max_matching(wide(table)) == expected
        n = sum(map(sum, table))
        if n == 0:
            return
        # the same table as labelings, with sparse label values: cell [r][c]
        # becomes that many points labeled (row_labels[r], col_labels[c])
        def distinct_labels(size):
            return data.draw(st.lists(st.integers(0, 600), min_size=size, max_size=size,
                                      unique=True))

        row_labels, col_labels = distinct_labels(len(table)), distinct_labels(len(table[0]))
        cells = [(row_labels[r], col_labels[c]) for r, row in enumerate(table)
                 for c, count in enumerate(row) for _ in range(count)]
        pred, truth = (np.array(column) for column in zip(*cells))
        assert assignment_fidelity(pred, truth) == expected / n

    @needs_scipy
    @given(count_tables(max_side=12))
    @settings(max_examples=200)
    def test_matched_count_equals_linear_sum_assignment(self, table):
        from scipy.optimize import linear_sum_assignment

        array = np.array(table)
        rows, cols = linear_sum_assignment(array, maximize=True)
        assert _max_matching(wide(table)) == int(array[rows, cols].sum())

    @needs_scipy
    @given(st.lists(st.tuples(st.integers(0, 5) | st.sampled_from([17, 500]),
                              st.integers(0, 5) | st.sampled_from([17, 500])),
                    min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_fidelity_matches_the_reference_on_sparse_labels(self, pairs):
        pred, truth = (np.array(column) for column in zip(*pairs))
        value = assignment_fidelity(pred, truth)
        assert value.hex() == reference_assignment_fidelity(pred, truth).hex()

    def test_cost_follows_occupied_labels_not_label_range(self):
        # a 501 x 501 table with two occupied rows and columns: the cost must
        # follow those two, not the 501 the label range spans
        pred, truth = np.array([0, 500, 500]), np.array([0, 1, 1])
        assert assignment_fidelity(pred, truth) == 1.0
        best = min(timeit.repeat(lambda: assignment_fidelity(pred, truth), number=1, repeat=20))
        assert best < 1e-3


class TestScoreDispatch:
    def test_routes(self):
        assert score_labels("fidelity", [0, 1], [0, 1]) == 1.0
        assert score_labels("fm", [0, 0], [1, 1]) == 1.0

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            score_labels("accuracy", [0, 1], [0, 1])


class TestStratifiedFolds:
    def test_partition_covers_everything_once(self):
        labels = np.repeat([0, 1], 50)
        folds = stratified_folds(labels, 5, seed=3)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_class_balance_within_one(self):
        labels = np.repeat([0, 1], 1024)
        folds = stratified_folds(labels, 10, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes[0] >= 204 and sizes[-1] <= 206
        for fold in folds:
            per_class = np.bincount(labels[fold], minlength=2)
            assert abs(int(per_class[0]) - int(per_class[1])) <= 2

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2], 20)
        a = stratified_folds(labels, 4, seed=9)
        b = stratified_folds(labels, 4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_small_class_rejected(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(ValueError):
            stratified_folds(labels, 2, seed=0)

    def test_requires_two_splits(self):
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_names_first_short_class_in_sorted_order(self):
        labels = np.repeat([3, 2, 1, 0], [1, 2, 5, 5])
        with pytest.raises(DataError, match=r"^class 2 has 2 samples; need >= n_splits=3$"):
            stratified_folds(labels, 3, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_splits=st.integers(2, 8), seed=st.integers(0, 2**64 - 1))
    def test_matches_reference_loop(self, data, n_splits, seed):
        # class sizes from one short of n_splits up, so some cases take the error path
        values = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
        sizes = data.draw(
            st.lists(st.integers(n_splits - 1, 40), min_size=len(values), max_size=len(values))
        )
        labels = np.asarray(data.draw(st.permutations(np.repeat(values, sizes).tolist())))
        try:
            expected = reference_stratified_folds(labels, n_splits, seed)
        except DataError as err:
            with pytest.raises(DataError) as caught:
                stratified_folds(labels, n_splits, seed)
            assert str(caught.value) == str(err)
            return
        folds = stratified_folds(labels, n_splits, seed)
        assert len(folds) == len(expected)
        for got, want in zip(folds, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_huge_split_count_fails_before_allocating(self):
        # one empty bucket per split made before the class check would
        # take ~6 MB here; the check runs first and needs almost nothing
        labels = np.repeat([0, 1, 2, 3], 5)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="need >= n_splits=100000"):
                stratified_folds(labels, 10**5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestScoreReport:
    def test_range_checked(self):
        with pytest.raises(ValueError):
            ScoreReport(metric="FowlkesMallows", per_fold=(1.5,))

    def test_metric_name_checked(self):
        with pytest.raises(ValueError):
            ScoreReport(metric="fidelity", per_fold=(1.0,))

    def test_half_width_kind_checked(self):
        with pytest.raises(ValueError):
            ScoreReport(metric="AssignmentFidelity", per_fold=(1.0,), half_width_kind="iqr")

    @pytest.mark.parametrize(
        ("per_fold", "kind", "mean", "half_width"),
        [
            # one fold has no spread
            ((0.75,), "std", 0.75, 0.0),
            ((0.75,), "sem95", 0.75, 0.0),
            # two folds: sample std |a - b| / sqrt(2) = 0.25 / sqrt(2)
            ((0.5, 0.75), "std", 0.625, 0.25 / np.sqrt(2.0)),
            ((0.5, 0.75), "sem95", 0.625, 1.96 * 0.25 / 2.0),
        ],
    )
    def test_mean_and_half_width_follow_per_fold(self, per_fold, kind, mean, half_width):
        report = ScoreReport(
            metric="AssignmentFidelity", per_fold=per_fold, half_width_kind=kind
        )
        assert report.mean == mean
        assert report.half_width == pytest.approx(half_width, rel=1e-15)
        assert type(report.mean) is float and type(report.half_width) is float

    def test_table_row_format(self):
        report = ScoreReport(metric="AssignmentFidelity", per_fold=(0.97, 0.98))
        # mean 0.975, half-width 0.01 / sqrt(2) = 0.00707...
        assert table_row("q0", "single", report) == "q0, single, 0.975 ±0.0071"


@st.composite
def fold_cases(draw):
    """A labeled cloud of 8 to 60 points, on a lattice (so ties and duplicate
    points are common) or normal, each class at least as large as the 2 to
    5 splits, and a fit config with K from 1 to 3."""
    n_splits = draw(st.integers(2, 5))
    n = draw(st.integers(max(8, 2 * n_splits), 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        features = rng.integers(-4, 5, size=(n, 2)) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    else:
        features = rng.normal(size=(n, 2)) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    first = draw(st.integers(n_splits, n - n_splits))
    labels = rng.permutation(np.repeat([0, 1], [first, n - first]))
    batch = BatchConfig(max_circuits_per_job=draw(st.sampled_from([1, 7, 900])),
                        shots_per_circuit=draw(st.sampled_from([7, 64])), seed=draw(st.integers(0, 99)))
    config = FitConfig(n_clusters=draw(st.integers(1, 3)), max_iter=draw(st.integers(1, 8)),
                       tol=draw(st.sampled_from([0.0, 1e-4])), batch=batch)
    return (DataSet(features, labels), config, n_splits, draw(st.sampled_from(sorted(METRIC_NAMES))),
            draw(st.integers(0, 2**32 - 1)))


def masked_fold_loop(X, config, n_splits, metric, seed):
    """``cross_validate``'s folds split with boolean masks: per fold the
    train and test sets, the fit config, the model, the predicted labels and
    the score."""
    folds = []
    for fold_idx, test_idx in enumerate(stratified_folds(X.labels, n_splits, seed)):
        in_train = np.ones(X.n_points, dtype=bool)
        in_train[test_idx] = False
        train = DataSet(X.features[in_train], X.labels[in_train])
        test = DataSet(X.features[test_idx], X.labels[test_idx])
        base = derive_seed(seed, fold_idx)
        fold_config, predict_seed = replace(config, seed=derive_seed(base, 0)), 0
        if config.distance_mode == "quantum_sampled":
            fold_config = replace(fold_config, batch=replace(config.batch, seed=derive_seed(base, 1)))
            predict_seed = derive_seed(base, 2)
        model = clustering.fit(train, fold_config)
        predicted = clustering.predict(model, test, fold_config.distance_mode, fold_config.batch, predict_seed)
        folds.append((train, test, fold_config, model, predicted, score_labels(metric, predicted, test.labels)))
    return folds


def same_data(a: DataSet, b: DataSet) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.features, b.features), (a.labels, b.labels)))


class TestFoldSplit:
    """``cross_validate`` splits each fold by index; every fold's sets,
    model, predicted labels and score must be those of boolean masks."""

    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    @settings(max_examples=100, deadline=None)
    @given(case=fold_cases())
    def test_matches_masked_fold_loop(self, mode, case):
        X, config, n_splits, metric, seed = case
        config = replace(config, distance_mode=mode)
        try:
            expected = masked_fold_loop(X, config, n_splits, metric, seed)
        except DataError as err:  # a center at the origin has no quantum state
            event("a fit raised DataError")
            with pytest.raises(DataError) as caught:
                cross_validate(X, config, n_splits, metric, seed)
            assert str(caught.value) == str(err)
            return
        fits, predictions = [], []
        real_fit, real_predict = clustering.fit, clustering.predict

        def fit(train, fold_config):
            fits.append((train, fold_config, real_fit(train, fold_config)))
            return fits[-1][2]

        def predict(model, test, *args, **kwargs):
            predictions.append((test, real_predict(model, test, *args, **kwargs)))
            return predictions[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "fit", fit)
            patch.setattr(clustering, "predict", predict)
            report = cross_validate(X, config, n_splits, metric, seed)
        assert len(fits) == len(predictions) == len(report.per_fold) == len(expected)
        for (train, fold_config, model), (test, predicted), score, want in zip(
                fits, predictions, report.per_fold, expected):
            want_train, want_test, want_config, want_model, want_predicted, want_score = want
            assert same_data(train, want_train) and same_data(test, want_test)
            assert fold_config == want_config
            assert_same_fit(model, want_model)
            assert predicted.dtype == want_predicted.dtype
            np.testing.assert_array_equal(predicted, want_predicted)
            assert score == want_score
            if mode != "quantum_sampled":
                assert_same_fit(model, fit_or_error(reference_fit, train, fold_config))


class TestCrossValidate:
    def test_easy_blobs_score_one(self):
        X = make_blobs(21, n=80)
        config = FitConfig(n_clusters=2, distance_mode="classical_euclidean")
        report = cross_validate(X, config, n_splits=4, metric="fidelity", seed=1)
        assert report.per_fold == (1.0, 1.0, 1.0, 1.0)
        assert report.mean == 1.0
        assert report.half_width == 0.0
        assert report.metric == "AssignmentFidelity"

    def test_deterministic(self):
        X = make_blobs(22, n=60)
        config = FitConfig(
            n_clusters=2,
            distance_mode="quantum_sampled",
            batch=BatchConfig(shots_per_circuit=64),
        )
        a = cross_validate(X, config, n_splits=3, metric="fm", seed=7)
        b = cross_validate(X, config, n_splits=3, metric="fm", seed=7)
        assert a == b
        assert a.metric == "FowlkesMallows"

    @pytest.mark.parametrize(
        ("mode", "per_fold"),
        [("classical_euclidean", [0]), ("quantum_exact", [0]), ("quantum_sampled", [0, 1, 2])],
    )
    def test_batch_and_predict_seeds_derived_only_when_sampled(self, mode, per_fold, monkeypatch):
        from qkmeans import metrics

        derived = []
        real = metrics.derive_seed
        monkeypatch.setattr(metrics, "derive_seed", lambda *args: derived.append(args) or real(*args))
        config = FitConfig(n_clusters=2, distance_mode=mode, batch=BatchConfig(shots_per_circuit=64))
        cross_validate(make_blobs(25, n=40), config, n_splits=3, seed=5)
        # per fold: the fold base derive_seed(5, f), then derive_seed(base, i) for each i
        assert [args[1] for args in derived] == [
            index for fold in range(3) for index in [fold, *per_fold]
        ]

    def test_sem95_relates_to_std(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(60, 2)) * 3.0
        labels = (feats[:, 0] > 0).astype(np.int64)
        X = DataSet(feats, labels)
        config = FitConfig(n_clusters=2, distance_mode="classical_euclidean")
        std_rep = cross_validate(X, config, n_splits=5, seed=2, half_width="std")
        sem_rep = cross_validate(X, config, n_splits=5, seed=2, half_width="sem95")
        assert std_rep.per_fold == sem_rep.per_fold
        assert sem_rep.half_width == pytest.approx(
            1.96 * std_rep.half_width / np.sqrt(5)
        )

    def test_rejects_unknown_metric(self):
        X = make_blobs(23, n=40)
        with pytest.raises(ValueError):
            cross_validate(X, FitConfig(n_clusters=2), metric="accuracy")

    def test_rejects_unknown_half_width(self):
        X = make_blobs(24, n=40)
        with pytest.raises(ValueError):
            cross_validate(X, FitConfig(n_clusters=2), half_width="mad")

    def test_metric_names_frozen(self):
        assert METRIC_NAMES == {
            "fidelity": "AssignmentFidelity",
            "fm": "FowlkesMallows",
        }
        assert HALF_WIDTH_KINDS == ("std", "sem95")
