"""Clustering quality scores and cross-validated benchmarking.

Assignment fidelity is permutation-maximized accuracy: the best fraction
of points a cluster->class relabeling can get right.  It is found by an
exact maximum-weight matching on the contingency table's occupied rows and
columns, for every cluster count: shortest augmenting paths with row and
column potentials (Kuhn, Naval Res. Logist. Q. 1955; Jonker & Volgenant,
Computing 1987), in Python ints, so no SciPy is loaded.

Fowlkes-Mallows is TP / sqrt((TP + FP) * (TP + FN)) over co-membership
pairs, TP the pairs grouped together in both labelings.  Both scores are
read off the contingency table alone.

``cross_validate`` runs a stratified shuffled k-fold: class indices are
shuffled once, dealt round-robin to folds (stagger offset per class so
remainders spread), each fold scored on a model fitted to the rest.  The
"±" half-width defaults to the sample standard deviation across folds;
``half_width="sem95"`` switches to a 1.96*std/sqrt(n) normal-theory CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import clustering
from .dataset import DataSet
from .errors import DataError, check_choice, check_number
from .simulator import derive_seed

METRIC_NAMES = {"fidelity": "AssignmentFidelity", "fm": "FowlkesMallows"}
HALF_WIDTH_KINDS = ("std", "sem95")
# label values a contingency table indexes directly: 2**16 cells at most
_MAX_LABEL_VALUES = 2**8


@dataclass(frozen=True)
class ScoreReport:
    """Cross-validation outcome for one dataset and metric; ``mean`` and
    ``half_width`` are computed from ``per_fold``."""

    metric: str
    per_fold: tuple[float, ...]
    half_width_kind: str = "std"

    def __post_init__(self) -> None:
        check_choice("metric", self.metric, sorted(METRIC_NAMES.values()))
        if not self.per_fold:
            raise DataError("per_fold must not be empty")
        if any(not 0.0 <= v <= 1.0 for v in self.per_fold):
            raise DataError("per-fold scores must lie in [0, 1]")
        check_choice("half_width_kind", self.half_width_kind, HALF_WIDTH_KINDS)

    @property
    def mean(self) -> float:
        return sum(self.per_fold) / len(self.per_fold)

    @property
    def half_width(self) -> float:
        n = len(self.per_fold)
        std = float(np.std(self.per_fold, ddof=1)) if n > 1 else 0.0
        return std if self.half_width_kind == "std" else float(1.96 * std / np.sqrt(n))


def table_row(label: str, kind: str, report: ScoreReport) -> str:
    """One benchmark-table line: ``<qubit>, <single|both>, <mean> ±<half_width>``."""
    return f"{label}, {kind}, {report.mean:.3f} ±{report.half_width:.4f}"


def _as_label_array(values, name: str) -> tuple[np.ndarray, int]:
    """The labels as int64, and the largest of them."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError(f"{name} must be a non-empty 1-D label sequence")
    if arr.dtype.kind not in "iu":
        raise DataError(f"{name} must contain integers")
    arr = arr.astype(np.int64, copy=False)
    # viewed unsigned, a negative label reads 2**63 or more, so one reduction
    # both checks the sign and finds the largest label
    top = int(arr.view(np.uint64).max())
    if top >= 2**63:
        raise DataError(f"{name} labels must be nonnegative")
    return arr, top


def contingency_table(predicted, truth) -> np.ndarray:
    """Square count matrix: entry [c, t] = points with cluster c and class t.
    Past 2**16 cells (a label above 255), c and t are instead ranks among
    the labels in use, so the table's size follows those labels, not their
    values; no score reads anything but its occupied rows and columns."""
    pred, top_pred = _as_label_array(predicted, "predicted")
    true, top_true = _as_label_array(truth, "truth")
    if pred.shape != true.shape:
        raise DataError("predicted and truth must have equal length")
    size = max(top_pred, top_true) + 1
    if size > _MAX_LABEL_VALUES:
        ranks = np.unique(np.concatenate((pred, true)), return_inverse=True)[1]
        pred, true = np.split(ranks, 2)
        size = int(ranks.max()) + 1
    flat = np.bincount(pred * size + true, minlength=size * size)
    return flat.reshape(size, size)


def _max_matching(weights: list) -> int:
    """Largest total weight of a matching of rows to distinct columns, for a
    table with no more rows than columns.  Shortest augmenting paths with
    potentials: u[r] + v[c] >= weights[r][c] holds throughout, with equality
    on matched cells, so each search grows the matching by one row."""
    cols = len(weights[0])
    # the first dual: each row's potential is its largest weight, and a row
    # takes the first column holding that weight that no earlier row took
    u = [max(row) for row in weights]
    v = [0] * (cols + 1)
    owner = [-1] * (cols + 1)  # owner[c]: the row matched to column c
    waiting = []
    for r, row in enumerate(weights):
        for c, weight in enumerate(row):
            if weight == u[r] and owner[c] < 0:
                owner[c] = r
                break
        else:
            waiting.append(r)
    for start in waiting:
        # column `cols` is the search root, standing for the unmatched row
        owner[cols] = start
        col = cols
        slack = [math.inf] * cols
        via = [cols] * cols
        tree = [cols]
        free = list(range(cols))
        while owner[col] >= 0:
            r = owner[col]
            row, ur = weights[r], u[r]
            delta = math.inf
            for c in free:
                reduced = ur + v[c] - row[c]
                if reduced < slack[c]:
                    slack[c] = reduced
                    via[c] = col
                if slack[c] < delta:
                    delta, nearest = slack[c], c
            for c in tree:
                u[owner[c]] -= delta
                v[c] += delta
            for c in free:
                slack[c] -= delta
            free.remove(nearest)
            tree.append(nearest)
            col = nearest
        while col != cols:
            owner[col] = owner[via[col]]
            col = via[col]
    return sum(weights[r][c] for c, r in enumerate(owner[:cols]) if r >= 0)


def assignment_fidelity(predicted, truth) -> float:
    """Best accuracy over all cluster-to-class relabelings, in [0, 1]: the
    maximum-weight matching of the contingency table (Kuhn 1955; Jonker &
    Volgenant 1987) over n.  Counts are integers, so every optimal matching
    has the same total, and the result is that total over n as Python ints.
    The solve sees only occupied rows and columns: its cost follows the
    labels in use, not the largest label value."""
    table = contingency_table(predicted, truth)
    weights = [col for col in zip(*table[table.any(axis=1)].tolist()) if any(col)]
    if len(weights) > len(weights[0]):
        weights = list(zip(*weights))
    return _max_matching(weights) / sum(map(sum, weights))


def fowlkes_mallows(predicted, truth) -> float:
    """Pairwise precision/recall geometric mean; 0 when undefined (a
    labeling with no co-clustered pair).  With n points, cells n_ct and
    row and column sums a_c, b_t, it is
    (Σ n_ct² − n) / sqrt((Σ a_c² − n)(Σ b_t² − n)), each term twice a pair
    count, in Python ints: no size overflows."""
    table = contingency_table(predicted, truth)
    n = int(table.sum())
    if n < 2:
        raise DataError("need at least two points")
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    pred_pairs, true_pairs = int(np.vdot(rows, rows)) - n, int(np.vdot(cols, cols)) - n
    if pred_pairs == 0 or true_pairs == 0:
        return 0.0
    return (int(np.vdot(table, table)) - n) / math.sqrt(pred_pairs * true_pairs)


def score_labels(metric: str, predicted, truth) -> float:
    check_choice("metric", metric, sorted(METRIC_NAMES))
    if metric == "fidelity":
        return assignment_fidelity(predicted, truth)
    return fowlkes_mallows(predicted, truth)


def stratified_folds(labels: np.ndarray, n_splits: int, seed: int) -> list[np.ndarray]:
    """Shuffled per-class round-robin split; returns test-index arrays."""
    labels, _ = _as_label_array(labels, "labels")
    check_number("n_splits", n_splits, 2)
    check_number("seed", seed, 0)
    classes, counts = np.unique(labels, return_counts=True)
    # checked before any bucket exists, so a huge n_splits costs no memory
    for value, size in zip(classes, counts):
        if size < n_splits:
            raise DataError(f"class {value} has {size} samples; need >= n_splits={n_splits}")
    rng = np.random.default_rng(seed)
    fold = np.empty(labels.size, dtype=np.int64)
    # shuffled member i of class number `offset` goes to fold (i + offset) % n_splits
    for offset, value in enumerate(classes):
        members = rng.permutation(np.flatnonzero(labels == value))
        fold[members] = (np.arange(members.size) + offset) % n_splits
    ordered = np.argsort(fold, kind="stable")  # by fold, then by index
    return np.split(ordered, np.cumsum(np.bincount(fold, minlength=n_splits))[:-1])


def cross_validate(
    X: DataSet,
    config: clustering.FitConfig,
    n_splits: int = 10,
    metric: str = "fidelity",
    seed: int = 0,
    half_width: str = "std",
) -> ScoreReport:
    """Stratified k-fold fit/predict/score; deterministic given ``seed``.

    Per fold f the derived seeds are: fold base = derive_seed(seed, f) and
    fit seed = derive(base, 0).  Sampled mode also derives the batch seed
    derive(base, 1) and the predict sampling seed derive(base, 2); the
    other modes read neither, so they derive neither and keep
    ``config.batch`` as given.
    """
    check_choice("metric", metric, sorted(METRIC_NAMES))
    check_choice("half_width", half_width, HALF_WIDTH_KINDS)
    folds = stratified_folds(X.labels, n_splits, seed)
    scores = []
    for fold_idx, test_idx in enumerate(folds):
        mask = np.ones(X.n_points, dtype=bool)
        mask[test_idx] = False
        train, test = (DataSet(X.features.take(rows, axis=0), X.labels.take(rows))
                       for rows in (np.flatnonzero(mask), test_idx))
        base = derive_seed(seed, fold_idx)
        fold_config = replace(config, seed=derive_seed(base, 0))
        predict_seed = 0
        if config.distance_mode == "quantum_sampled":
            fold_config = replace(fold_config, batch=replace(config.batch, seed=derive_seed(base, 1)))
            predict_seed = derive_seed(base, 2)
        model = clustering.fit(train, fold_config)
        predicted = clustering.predict(
            model,
            test,
            distance_mode=fold_config.distance_mode,
            batch=fold_config.batch,
            seed=predict_seed,
        )
        scores.append(score_labels(metric, predicted, test.labels))
    return ScoreReport(
        metric=METRIC_NAMES[metric],
        per_fold=tuple(float(s) for s in scores),
        half_width_kind=half_width,
    )
