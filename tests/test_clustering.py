"""Lloyd-loop clustering tests (quantum and classical modes)."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkmeans import clustering, distance
from qkmeans.clustering import (
    DISTANCE_MODES,
    ClusterModel,
    FitConfig,
    _repair_empty_clusters,
    classical_kmeans_oracle,
    predict,
    qkmeans_plusplus_init,
)
from qkmeans.dataset import DataSet
from qkmeans.distance import (
    BatchConfig,
    BatchStats,
    DistanceRequest,
    distance_matrix,
    encode_matrix,
    estimate_distances,
    quantum_distance,
)
from qkmeans.errors import DataError
from qkmeans.simulator import derive_seed, row_sums

from conftest import make_blobs


def unlabeled(features) -> DataSet:
    feats = np.asarray(features, dtype=np.float64)
    return DataSet(feats, np.zeros(len(feats), dtype=np.int64))


def seed_with_first_pick(n_points: int, wanted: int) -> int:
    """Smallest seed whose uniform draw over ``n_points`` lands on ``wanted``."""
    return next(
        s
        for s in range(10_000)
        if int(np.random.default_rng(s).integers(n_points)) == wanted
    )


class TestInit:
    def test_greedy_seeding_picks_farthest_point(self):
        # From (0, 1), the SwapTest metric puts (1, 0) at the maximum
        # distance sqrt(2) while (0.99, 0.01) stays strictly closer, so the
        # second center must be (1, 0).
        X = unlabeled([[0.0, 1.0], [1.0, 0.0], [0.99, 0.01]])
        seed = seed_with_first_pick(3, 0)
        centers = qkmeans_plusplus_init(X, 2, "quantum_exact", seed=seed)
        np.testing.assert_array_equal(centers[0], [0.0, 1.0])
        np.testing.assert_array_equal(centers[1], [1.0, 0.0])

    def test_centers_are_distinct_data_points(self):
        X = make_blobs(0, n=40)
        centers = qkmeans_plusplus_init(X, 4, "classical_euclidean", seed=3)
        assert centers.shape == (4, 2)
        matches = [
            np.flatnonzero((X.features == c).all(axis=1)).size for c in centers
        ]
        assert all(m >= 1 for m in matches)
        assert np.unique(centers, axis=0).shape[0] == 4

    def test_quantum_and_classical_seeding_agree_on_rays(self):
        # For points on clearly separated rays the farthest-point choice is
        # the same under both metrics.
        X = unlabeled([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.1, 0.9]])
        seed = seed_with_first_pick(4, 0)
        q = qkmeans_plusplus_init(X, 2, "quantum_exact", seed=seed)
        c = qkmeans_plusplus_init(X, 2, "classical_euclidean", seed=seed)
        np.testing.assert_array_equal(q, c)

    def test_requires_enough_points(self):
        X = unlabeled([[0.0, 1.0]])
        with pytest.raises(ValueError):
            qkmeans_plusplus_init(X, 2)


class TestFitExamples:
    def test_distinct_points_become_their_own_centers(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0], [-2.0, 5.0]])
        X = unlabeled(pts)
        model = clustering.fit(X, FitConfig(n_clusters=4, distance_mode="quantum_exact"))
        assert model.converged
        assert model.n_iter == 1
        assert sorted(map(tuple, model.cluster_centers)) == sorted(map(tuple, pts))
        # every cluster is a singleton
        assert sorted(np.bincount(model.labels)) == [1, 1, 1, 1]

    def test_one_dimensional_pairs(self):
        X = unlabeled([[0.0], [1.0], [10.0], [11.0]])
        model = classical_kmeans_oracle(X, 2, seed=5)
        assert model.converged
        assert sorted(model.cluster_centers[:, 0]) == [0.5, 10.5]
        assert model.labels[0] == model.labels[1]
        assert model.labels[2] == model.labels[3]
        assert model.labels[0] != model.labels[2]

    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(20, 3))
        model = classical_kmeans_oracle(unlabeled(feats), 1)
        np.testing.assert_allclose(
            model.cluster_centers[0], feats.mean(axis=0), atol=1e-12
        )
        assert model.converged

    def test_duplicates_act_as_weights(self):
        # Fitting replicated points must follow the same trajectory as a
        # weighted Lloyd run on the unique points from the same init.
        unique = np.array([[0.0, 0.0], [1.0, 0.5], [8.0, 9.0], [9.0, 8.5]])
        weights = np.array([3, 1, 2, 1])
        dup = np.repeat(unique, weights, axis=0)
        X = unlabeled(dup)
        config = FitConfig(
            n_clusters=2, distance_mode="classical_euclidean", seed=2
        )
        model = clustering.fit(X, config)

        centers = qkmeans_plusplus_init(X, 2, "classical_euclidean", seed=2)
        for _ in range(config.max_iter):
            d = np.linalg.norm(unique[:, None, :] - centers[None, :, :], axis=2)
            lab = np.argmin(d, axis=1)
            new = centers.copy()
            for c in range(2):
                mask = lab == c
                if mask.any():
                    new[c] = np.average(unique[mask], axis=0, weights=weights[mask])
            shift = float(np.sum(np.abs(new - centers)))
            centers = new
            if shift < config.tol:
                break
        np.testing.assert_allclose(model.cluster_centers, centers, atol=1e-9)
        # replicated rows of one unique point always share a label
        grouped = np.split(model.labels, np.cumsum(weights)[:-1])
        assert all(np.unique(g).size == 1 for g in grouped)

    def test_blob_recovery_all_modes(self):
        X = make_blobs(3, n=60)
        for mode in ("classical_euclidean", "quantum_exact", "quantum_sampled"):
            config = FitConfig(
                n_clusters=2,
                distance_mode=mode,
                seed=1,
                batch=BatchConfig(shots_per_circuit=4096, seed=1),
            )
            model = clustering.fit(X, config)
            # perfect two-blob recovery up to label order
            flips = int(np.sum(model.labels != X.labels))
            assert min(flips, 60 - flips) == 0, mode


class TestFitMechanics:
    def test_tie_breaks_to_lowest_center_index(self):
        # centers on one ray encode to bitwise-identical states, so every
        # quantum distance ties and argmin must pick the lower index
        model = ClusterModel(
            cluster_centers=np.array([[1.0, 1.0], [2.0, 2.0]]),
            labels=np.array([], dtype=np.int64),
            center_shifts=(),
            converged=True,
        )
        pts = unlabeled([[3.0, 3.0], [0.5, 2.0], [9.0, 1.0]])
        out = predict(model, pts, "quantum_exact")
        np.testing.assert_array_equal(out, [0, 0, 0])
        # classical tie on exact midpoint behaves the same way
        mid = predict(
            ClusterModel(
                cluster_centers=np.array([[0.0], [2.0]]),
                labels=np.array([], dtype=np.int64),
                center_shifts=(),
                converged=True,
            ),
            unlabeled([[1.0]]),
            "classical_euclidean",
        )
        np.testing.assert_array_equal(mid, [0])

    def test_inertia_history_matches_iterations(self):
        X = make_blobs(4, n=50)
        model = classical_kmeans_oracle(X, 2, seed=0)
        assert model.n_iter == len(model.center_shifts) > 0
        assert model.center_shifts[-1] < 1e-4
        assert all(v >= 0.0 for v in model.center_shifts)

    def test_max_iter_stops_without_convergence(self):
        rng = np.random.default_rng(12)
        X = unlabeled(rng.normal(size=(40, 2)) * 5.0)
        config = FitConfig(
            n_clusters=3, max_iter=1, distance_mode="classical_euclidean", seed=0
        )
        model = clustering.fit(X, config)
        assert model.n_iter == 1
        assert not model.converged

    def test_batch_history_tracks_iterations(self):
        X = make_blobs(5, n=20)
        config = FitConfig(
            n_clusters=2,
            distance_mode="quantum_exact",
            batch=BatchConfig(max_circuits_per_job=7),
            seed=0,
        )
        model = clustering.fit(X, config)
        assert len(model.batch_history) == model.n_iter
        for stats in model.batch_history:
            assert stats.circuits_executed == 20 * 2
            assert stats.jobs_submitted == 6  # ceil(40 / 7)

    def test_classical_mode_has_empty_batch_history(self):
        model = classical_kmeans_oracle(make_blobs(6, n=20), 2)
        assert model.batch_history == ()

    def test_sampled_mode_is_reproducible(self):
        X = make_blobs(7, n=24)
        config = FitConfig(
            n_clusters=2,
            distance_mode="quantum_sampled",
            batch=BatchConfig(shots_per_circuit=128, seed=5),
            seed=5,
        )
        a = clustering.fit(X, config)
        b = clustering.fit(X, config)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.cluster_centers, b.cluster_centers)
        assert a.center_shifts == b.center_shifts

    def test_validates_dataset_size(self):
        X = unlabeled([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            clustering.fit(X, FitConfig(n_clusters=3))

    def test_fit_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(n_clusters=0)
        with pytest.raises(ValueError):
            FitConfig(n_clusters=2, distance_mode="manhattan")
        with pytest.raises(ValueError):
            FitConfig(n_clusters=2, max_iter=0)

    def test_cluster_model_validation(self):
        with pytest.raises(ValueError):
            ClusterModel(
                cluster_centers=np.ones((2, 2)),
                labels=np.array([0, 5]),
                center_shifts=(0.0,),
                converged=True,
            )


class TestEmptyClusterRepair:
    def test_farthest_point_moves_to_empty_cluster(self):
        labels = np.array([0, 0, 0])
        dists = np.array([[0.1, 9.0], [0.5, 9.0], [0.3, 9.0]])
        repaired = _repair_empty_clusters(labels, dists, 2)
        np.testing.assert_array_equal(repaired, [0, 1, 0])

    def test_multiple_empties_filled_in_ascending_order(self):
        labels = np.array([0, 0, 0, 0])
        dists = np.array(
            [[0.1, 9.0, 9.0], [0.4, 9.0, 9.0], [0.2, 9.0, 9.0], [0.3, 9.0, 9.0]]
        )
        repaired = _repair_empty_clusters(labels, dists, 3)
        # farthest point (index 1) fills cluster 1, next (index 3) cluster 2
        np.testing.assert_array_equal(repaired, [0, 1, 0, 2])

    def test_donor_must_keep_a_member(self):
        labels = np.array([0])
        dists = np.array([[0.0, 1.0]])
        repaired = _repair_empty_clusters(labels, dists, 2)
        np.testing.assert_array_equal(repaired, [0])

    def test_no_empties_is_identity(self):
        labels = np.array([0, 1])
        dists = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = _repair_empty_clusters(labels, dists, 2)
        np.testing.assert_array_equal(out, labels)


class TestPredict:
    def test_assigns_nearest_center(self):
        X = make_blobs(9, n=40)
        model = classical_kmeans_oracle(X, 2, seed=1)
        again = predict(model, X, distance_mode="classical_euclidean")
        np.testing.assert_array_equal(again, model.labels)

    def test_quantum_predict_on_center_rows(self):
        X = make_blobs(10, n=30)
        config = FitConfig(n_clusters=2, distance_mode="quantum_exact", seed=4)
        model = clustering.fit(X, config)
        centers = DataSet(
            model.cluster_centers, np.zeros(2, dtype=np.int64)
        )
        assert list(predict(model, centers, "quantum_exact")) == [0, 1]

    def test_rejects_feature_mismatch(self):
        X = make_blobs(11, n=20)
        model = classical_kmeans_oracle(X, 2)
        bad = unlabeled(np.ones((4, 3)))
        with pytest.raises(ValueError):
            predict(model, bad, "classical_euclidean")


@st.composite
def small_datasets(draw):
    n = draw(st.integers(3, 12))
    f = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(3, n)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, f)) * draw(st.floats(0.5, 20.0))
    return unlabeled(feats), k


class TestModelInvariants:
    @given(small_datasets())
    @settings(max_examples=40)
    def test_fit_invariants_classical(self, case):
        X, k = case
        model = clustering.fit(
            X, FitConfig(n_clusters=k, distance_mode="classical_euclidean", seed=0)
        )
        assert model.labels.shape == (X.n_points,)
        assert model.labels.min() >= 0 and model.labels.max() < k
        max_iter = FitConfig(n_clusters=k).max_iter
        assert 1 <= model.n_iter <= max_iter
        assert model.converged or model.n_iter == max_iter
        assert np.all(np.isfinite(model.cluster_centers))
        if model.converged:
            assert model.center_shifts[-1] < 1e-4
        # every cluster ends non-empty when possible (repair guarantee)
        assert np.unique(model.labels).size == min(k, X.n_points)

    @given(small_datasets())
    @settings(max_examples=10)
    def test_fit_invariants_quantum(self, case):
        X, k = case
        model = clustering.fit(
            X,
            FitConfig(
                n_clusters=k,
                distance_mode="quantum_sampled",
                batch=BatchConfig(shots_per_circuit=32, max_circuits_per_job=11),
                seed=0,
            ),
        )
        assert model.labels.shape == (X.n_points,)
        assert model.labels.min() >= 0 and model.labels.max() < k
        assert len(model.batch_history) == model.n_iter


SHOT_GRID = [1, 7, 128, 1024, 8192, 2**20, 2**31, 2**53]
# directions whose overlaps are exactly 1 (p1 = 0), 0 (p1 = 1) or equal for
# two centers (equidistant points), plus arbitrary ones
DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (-2.0, 0.0), (0.0, 3.0)]
directions = st.sampled_from(DIRECTIONS) | st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).filter(
    lambda v: max(abs(v[0]), abs(v[1])) > 1e-3)


@st.composite
def sampled_cases(draw):
    """Points, centers drawn from the points or the directions (so duplicate
    centers are common), a shot count from ``SHOT_GRID`` and a seed."""
    points = draw(st.lists(directions, min_size=1, max_size=12))
    centers = draw(st.lists(st.sampled_from(points) | directions, min_size=1, max_size=4))
    return (np.array(points), np.array(centers), draw(st.sampled_from(SHOT_GRID)),
            draw(st.integers(0, 2**63 - 1)))


def reference_keys(points, centers, distance_mode: str, batch: BatchConfig):
    """(N, K) keys that rise with the distance, and stats, with the formulas
    ``fit`` used before it encoded its points once per fit: raw points through
    ``distance_matrix`` (every sampled count inverted; a sampled distance
    ranks as its clipped count does), -<x|y>**2 of the raw points' encoded
    rows, or the Euclidean sum in ``row_sums``' tree."""
    if distance_mode == "classical_euclidean":
        diff = points[:, None, :] - centers[None, :, :]
        return np.sqrt(row_sums(np.moveaxis(diff * diff, 2, 0))), None
    dists, stats = distance_matrix(points, centers, batch, sampled=distance_mode == "quantum_sampled")
    if distance_mode == "quantum_exact":
        overlap = row_sums(encode_matrix(points).T[:, :, None] * encode_matrix(centers).T[:, None, :])
        return -overlap * overlap, stats
    return dists, stats


def reference_init(X: DataSet, n_clusters: int, distance_mode: str, seed: int,
                   batch: BatchConfig) -> np.ndarray:
    """Farthest-point seeding from ``reference_keys``."""
    chosen = [int(np.random.default_rng(seed).integers(X.n_points))]
    nearest = np.full(X.n_points, np.inf)
    for round_idx in range(1, n_clusters):
        config = replace(batch, seed=derive_seed(batch.seed, 0, round_idx))
        newest = X.features[chosen[-1]][None, :]
        nearest = np.minimum(nearest, reference_keys(X.features, newest, distance_mode, config)[0][:, 0])
        masked = nearest.copy()
        masked[chosen] = -np.inf
        chosen.append(int(np.argmax(masked)))
    return X.features[chosen]


def reference_fit(X: DataSet, config: FitConfig) -> ClusterModel:
    """Lloyd iterations as ``fit`` ran them with raw points on every step
    and one masked mean per center."""
    k, batch = config.n_clusters, config.batch
    centers = reference_init(X, k, config.distance_mode, config.seed, batch)
    shifts, history = [], []
    for iteration in range(config.max_iter):
        step_batch = replace(batch, seed=derive_seed(batch.seed, 1, iteration))
        keys, stats = reference_keys(X.features, centers, config.distance_mode, step_batch)
        labels = np.argmin(keys, axis=1)
        if stats is not None:
            history.append(stats)
        if np.bincount(labels, minlength=k).min() == 0:
            labels = _repair_empty_clusters(labels, keys, k)
        new_centers = np.stack([X.features[labels == c].mean(axis=0) for c in range(k)])
        shifts.append(float(np.sum(np.abs(new_centers - centers))))
        centers = new_centers
        if shifts[-1] < config.tol:
            break
    return ClusterModel(centers, labels, tuple(shifts), shifts[-1] < config.tol, tuple(history))


class TestSampledLabelsFromBrackets:
    """Sampled labels come from count brackets, inverting only the points in
    doubt; they must be those of the fully inverted distances."""

    @settings(max_examples=150, deadline=None)
    @given(sampled_cases())
    def test_step_predict_and_init_match_full_inversion(self, case):
        points, centers, shots, seed = case
        n, k = len(points), len(centers)
        batch = BatchConfig(shots_per_circuit=shots, max_circuits_per_job=5, seed=seed % 1000)
        full, full_stats = distance_matrix(points, centers, replace(batch, seed=seed), sampled=True)
        labels, stats, dists = clustering._nearest(encode_matrix(points).T, centers.T, "quantum_sampled",
                                                   batch, lambda: seed)
        np.testing.assert_array_equal(labels, np.argmin(full, axis=1))
        assert stats == full_stats == BatchStats(-(-n * k // 5), n * k)
        # the clipped counts an empty-cluster repair reads are the distances' counts
        assert distance.distance_from_p0((shots - dists()) / shots).tobytes() == full.tobytes()
        model = ClusterModel(centers, np.zeros(n, dtype=np.int64), (), False)
        np.testing.assert_array_equal(predict(model, unlabeled(points), "quantum_sampled", batch, seed),
                                      np.argmin(full, axis=1))
        # exact labels rank -<x|y>**2: each attains the least distance, and is
        # its argmin wherever no two distances tie for it
        exact = distance_matrix(points, centers)[0]
        untied = np.sum(exact == exact.min(axis=1, keepdims=True), axis=1) == 1
        step = clustering._nearest(encode_matrix(points).T, centers.T, "quantum_exact", batch, None)[0]
        for exact_labels in (step, predict(model, unlabeled(points), "quantum_exact")):
            assert np.all(exact[np.arange(n), exact_labels] == exact.min(axis=1))
            np.testing.assert_array_equal(exact_labels[untied], np.argmin(exact, axis=1)[untied])
        for n_clusters in range(2, min(n, 4) + 1):
            np.testing.assert_array_equal(
                qkmeans_plusplus_init(unlabeled(points), n_clusters, "quantum_sampled", seed % 97, batch),
                reference_init(unlabeled(points), n_clusters, "quantum_sampled", seed % 97, batch))


# From (1, 0), both centers are at distance exactly sqrt(2): p0 rounds to
# 1/2 for either overlap.  The second overlaps (1, 0) twice as much.
TIE_POINT, TIE_CENTERS = np.array([[1.0, 0.0]]), np.array([[1e-10, 1.0], [2e-10, 1.0]])


class TestTieRule:
    """Exact labels rank -<x|y>**2, so where two distances round to one value
    but the overlaps differ, the truly nearer center wins, not the lower index."""

    def test_step_and_predict_take_the_larger_overlap(self):
        dists = distance_matrix(TIE_POINT, TIE_CENTERS)[0]
        assert dists[0, 0] == dists[0, 1] == np.sqrt(2.0)
        model = ClusterModel(TIE_CENTERS, np.zeros(2, dtype=np.int64), (), False)
        assert predict(model, unlabeled(TIE_POINT), "quantum_exact").tolist() == [1]
        step = clustering._nearest(encode_matrix(TIE_POINT).T, TIE_CENTERS.T, "quantum_exact",
                                   BatchConfig(), None)
        assert step[0].tolist() == [1]

    def test_seeding_takes_the_smaller_best_overlap(self):
        # both later points are sqrt(2) from the first center; the last overlaps it least
        X = unlabeled(np.vstack([TIE_POINT, TIE_CENTERS[::-1]]))
        centers = qkmeans_plusplus_init(X, 2, "quantum_exact", seed=seed_with_first_pick(3, 0))
        np.testing.assert_array_equal(centers, X.features[[0, 2]])

    def test_repair_takes_the_smaller_overlap_with_its_center(self):
        points = np.vstack([TIE_CENTERS[::-1], TIE_POINT])
        twins = np.array([[1.0, 0.0], [1.0, 0.0]])  # center 1 ties center 0 everywhere, so it is empty
        labels, _, keys = clustering._nearest(encode_matrix(points).T, twins.T, "quantum_exact",
                                              BatchConfig(), None)
        assert labels.tolist() == [0, 0, 0]
        assert _repair_empty_clusters(labels, keys(), 2).tolist() == [0, 1, 0]


class TestDistancesOnlyWhereReturned:
    """A p0 becomes a distance only in the calls that return one."""

    def test_fit_init_predict_and_repair_compute_none(self, monkeypatch):
        def refuse(p0):
            raise AssertionError("a label computed a distance")

        repairs = []
        real_repair = clustering._repair_empty_clusters
        monkeypatch.setattr(clustering, "_repair_empty_clusters",
                            lambda *args: repairs.append(1) or real_repair(*args))
        monkeypatch.setattr(distance, "distance_from_p0", refuse)
        X = make_blobs(14, n=40)
        # as in test_empty_cluster_repair_matches_reference: K = 3 leaves a cluster empty
        shadowed = unlabeled([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        batch = BatchConfig(shots_per_circuit=64, seed=3)
        for mode in ("quantum_exact", "quantum_sampled"):
            model = clustering.fit(X, FitConfig(n_clusters=2, distance_mode=mode, batch=batch, seed=1))
            predict(model, X, mode, batch, seed=5)
            qkmeans_plusplus_init(X, 3, mode, seed=2, batch=batch)
            repairs.clear()
            clustering.fit(shadowed, FitConfig(n_clusters=3, distance_mode=mode, batch=batch,
                                               seed=seed_with_first_pick(4, 0)))
            assert repairs

    def test_returned_distances_reach_it(self, monkeypatch):
        calls = []
        real = distance.distance_from_p0
        monkeypatch.setattr(distance, "distance_from_p0", lambda p0: calls.append(1) or real(p0))
        x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        for sampled in (False, True):
            shots = 64 if sampled else None
            for call in (lambda: distance_matrix(x[None], y[None], sampled=sampled),
                         lambda: estimate_distances([DistanceRequest(x, y)], sampled=sampled),
                         lambda: quantum_distance(x, y, shots=shots)):
                calls.clear()
                call()
                assert calls == [1]


@st.composite
def lloyd_cases(draw):
    """A dataset of repeated rows (so ties and duplicate points are common)
    with F in {1, 2, 3, 16}, and a fit config in any mode with K from 1 to 4;
    sampled fits run at a few shots."""
    f = draw(st.sampled_from([1, 2, 3, 16]))
    # At F = 1 the two summation orders differ in a center's last bits, which
    # can break a later tie the other way, so one Lloyd step is compared, on
    # positive values, which keep every center off zero.
    row = st.lists(st.integers(1 if f == 1 else -6, 6), min_size=f, max_size=f).filter(any)
    base = np.array(draw(st.lists(row, min_size=1, max_size=8))) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=4, max_size=40))
    batch = BatchConfig(max_circuits_per_job=draw(st.sampled_from([1, 5, 900])),
                        shots_per_circuit=draw(st.sampled_from([1, 7, 64])), seed=draw(st.integers(0, 99)))
    config = FitConfig(n_clusters=draw(st.integers(1, 4)), max_iter=1 if f == 1 else draw(st.integers(1, 8)),
                       tol=draw(st.sampled_from([0.0, 1e-4])), batch=batch, seed=draw(st.integers(0, 99)),
                       distance_mode=draw(st.sampled_from(DISTANCE_MODES)))
    return unlabeled(base[picks]), config


def fit_or_error(fit, X: DataSet, config: FitConfig) -> ClusterModel | str:
    try:
        return fit(X, config)
    except DataError as error:  # a center at the origin has no quantum state
        return str(error)


def assert_same_fit(model: ClusterModel | str, reference: ClusterModel | str) -> None:
    if isinstance(model, str) or isinstance(reference, str):
        assert model == reference
        return
    np.testing.assert_array_equal(model.labels, reference.labels)
    if model.cluster_centers.shape[1] == 1:
        # numpy sums a one-column mean pairwise; fit sums every center in order
        np.testing.assert_allclose(model.cluster_centers, reference.cluster_centers, rtol=1e-12, atol=0.0)
        return
    assert model.cluster_centers.tobytes() == reference.cluster_centers.tobytes()
    assert model.center_shifts == reference.center_shifts
    assert model.converged == reference.converged
    assert model.batch_history == reference.batch_history


class TestReferenceLloyd:
    """``fit`` encodes its points once and takes centers from one bincount;
    its fits must be those of the per-step formulas it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(lloyd_cases())
    # the repair's two donors are both 0 from their center, at overlaps**2 of 1 and 1 + 4e-16
    @example(case=(unlabeled([[0.0, 3.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 3.0, 3.0]]),
                   FitConfig(n_clusters=3, max_iter=1, tol=0.0, seed=0)))
    def test_fit_matches_reference(self, case):
        X, config = case
        assert_same_fit(fit_or_error(clustering.fit, X, config), fit_or_error(reference_fit, X, config))

    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    def test_empty_cluster_repair_matches_reference(self, mode, monkeypatch):
        # K = 3 on three copies of one point and one other point: the third
        # center is a copy the first center shadows, so its cluster is empty
        X = unlabeled([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        config = FitConfig(n_clusters=3, distance_mode=mode, seed=seed_with_first_pick(4, 0),
                           batch=BatchConfig(shots_per_circuit=64, seed=3))
        repairs = []
        real_repair = clustering._repair_empty_clusters
        monkeypatch.setattr(clustering, "_repair_empty_clusters",
                            lambda *args: repairs.append(1) or real_repair(*args))
        model = clustering.fit(X, config)
        assert repairs
        assert_same_fit(model, reference_fit(X, config))

    def test_points_are_encoded_once_per_fit(self, monkeypatch):
        """A quantum_exact fit encodes its N points once, for init and the
        Lloyd loop, and only the K centers on each Lloyd step."""
        X = make_blobs(12, n=60)
        sizes = []
        real = distance._unit_columns

        def counting(columns):  # the one encoder: encode_matrix's rows go through it too
            sizes.append(columns.shape[1])
            return real(columns)

        monkeypatch.setattr(distance, "_unit_columns", counting)
        model = clustering.fit(X, FitConfig(n_clusters=2, distance_mode="quantum_exact", seed=1))
        assert model.n_iter > 1
        assert sizes == [60] + [2] * model.n_iter


class TestExtremeMagnitudes:
    """Scaling the data by a power of two scales every center by it and
    changes no label, however far the squared norms leave the float range."""

    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    @pytest.mark.parametrize("power", [-700, -600, 600, 700])
    def test_fit_is_scale_invariant(self, mode, power):
        X = make_blobs(13, n=40)
        config = FitConfig(n_clusters=2, tol=0.0, max_iter=5, distance_mode=mode,
                           batch=BatchConfig(shots_per_circuit=256, seed=2), seed=3)
        base = clustering.fit(X, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = clustering.fit(unlabeled(np.ldexp(X.features, power)), config)
        np.testing.assert_array_equal(scaled.labels, base.labels)
        assert scaled.cluster_centers.tobytes() == np.ldexp(base.cluster_centers, power).tobytes()


def slice_tree(values) -> float:
    """The pairwise tree over one (F,) vector in Python floats: adjacent
    pairs level by level, an odd level's last entry paired with 0.0."""
    values = [float(v) for v in values]
    while len(values) > 1:
        values = [a + b for a, b in zip(values[0::2], values[1::2] + [0.0])]
    return values[0]


class TestFeatureMajorClassical:
    """Classical distances run along the point axis of (F, K, N) arrays;
    their feature sums must add in ``row_sums``' tree, as overlaps do."""

    @pytest.mark.parametrize("scale", [1.0, 1e155, 1e-160])
    def test_row_sums_match_each_slice_tree(self, scale):
        # scale 1e155 overflows every square sum, 1e-160 makes squares subnormal
        rng = np.random.default_rng(23)
        for f in range(1, 301):
            k, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            values = rng.normal(size=(f, k, n)) * np.exp(rng.normal(size=(f, k, n)) * 3.0)
            values[rng.random(values.shape) < 0.1] = -0.0
            values[:, 0, 0] = 0.0
            values[:, 0, 1] = -0.0
            with np.errstate(over="ignore", under="ignore"):
                for rows in (values, np.square(values * scale)):
                    summed = row_sums(rows)
                    assert summed.shape == (k, n)
                    for i, j in np.ndindex(k, n):
                        assert summed[i, j].tobytes() == np.float64(slice_tree(rows[:, i, j])).tobytes(), f
                    # a block of points sums as it does within the whole array
                    start = int(rng.integers(n))
                    assert row_sums(rows[:, :, start:]).tobytes() == summed[:, start:].tobytes(), f

    @pytest.mark.parametrize("f", [1, 2, 3, 7, 8, 9, 16, 64, 129, 300])
    def test_distances_match_row_major_formula(self, f):
        rng = np.random.default_rng(f)
        points, centers = rng.normal(size=(50, f)), rng.normal(size=(3, f))
        diff = points[:, None, :] - centers
        expected = np.sqrt(np.sum(diff * diff, axis=-1))
        dists, stats = clustering._pairwise(clustering._columns(points, "classical_euclidean"),
                                            clustering._columns(centers, "classical_euclidean"),
                                            "classical_euclidean", BatchConfig())
        assert dists.T.tobytes() == np.sqrt(row_sums(np.moveaxis(diff * diff, -1, 0))).tobytes()
        if f in (1, 2, 3, 8):  # numpy's order is the tree's up to three features and at eight
            assert dists.T.tobytes() == expected.tobytes()
        np.testing.assert_allclose(dists.T, expected, rtol=1e-14, atol=0.0)
        assert stats is None

    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    def test_predict_on_no_points(self, mode):
        model = ClusterModel(np.eye(2), np.zeros(2, dtype=np.int64), (), False)
        labels = predict(model, DataSet(np.empty((0, 2)), np.empty(0, dtype=np.int64)), mode)
        assert labels.dtype == np.int64 and labels.shape == (0,)
