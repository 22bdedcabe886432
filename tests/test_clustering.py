"""Lloyd-loop clustering tests (quantum and classical modes)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkmeans import clustering
from qkmeans.clustering import (
    ClusterModel,
    FitConfig,
    _repair_empty_clusters,
    classical_kmeans_oracle,
    predict,
    qkmeans_plusplus_init,
)
from qkmeans.dataset import DataSet
from qkmeans.distance import BatchConfig, BatchStats, distance_matrix
from qkmeans.simulator import derive_seed

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


def inverted_init(X: DataSet, n_clusters: int, seed: int, batch: BatchConfig) -> np.ndarray:
    """Farthest-point seeding from fully inverted sampled distances."""
    chosen = [int(np.random.default_rng(seed).integers(X.n_points))]
    nearest = np.full(X.n_points, np.inf)
    for round_idx in range(1, n_clusters):
        config = replace(batch, seed=derive_seed(batch.seed, 0, round_idx))
        newest = X.features[chosen[-1]][None, :]
        nearest = np.minimum(nearest, distance_matrix(X.features, newest, config, sampled=True)[0][:, 0])
        masked = nearest.copy()
        masked[chosen] = -np.inf
        chosen.append(int(np.argmax(masked)))
    return X.features[chosen]


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
        labels, stats, dists = clustering._nearest(points, centers, "quantum_sampled", batch, lambda: seed)
        np.testing.assert_array_equal(labels, np.argmin(full, axis=1))
        assert stats == full_stats == BatchStats(-(-n * k // 5), n * k)
        np.testing.assert_array_equal(dists(), full)  # what an empty-cluster repair reads
        model = ClusterModel(centers, np.zeros(n, dtype=np.int64), (), False)
        np.testing.assert_array_equal(predict(model, unlabeled(points), "quantum_sampled", batch, seed),
                                      np.argmin(full, axis=1))
        for n_clusters in range(2, min(n, 4) + 1):
            np.testing.assert_array_equal(
                qkmeans_plusplus_init(unlabeled(points), n_clusters, "quantum_sampled", seed % 97, batch),
                inverted_init(unlabeled(points), n_clusters, seed % 97, batch))
