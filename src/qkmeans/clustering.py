"""Lloyd-style k-means over quantum (SwapTest) or Euclidean distances.

One loop serves three distance modes:

* ``quantum_exact``    — SwapTest circuits, exact ancilla marginals
* ``quantum_sampled``  — SwapTest circuits, finite-shot estimates
* ``classical_euclidean`` — plain Euclidean metric (the baseline)

Iteration structure: assign every point to its nearest center (argmin,
ties to the lowest center index), average the assigned raw feature rows
to get new centers, stop when the L1 sum of center movement drops below
``tol``.  Quantum modes apply the amplitude encoding to points and
centers at every distance evaluation; centers always live in the
original feature space.

Initialization is always greedy farthest-point seeding ("qkmeans++",
``qkmeans_plusplus_init``): the first center is a uniformly drawn data
point, each next center the point with the greatest distance to its
nearest chosen center (measured in the same distance mode), ties to the
lowest index.

Empty clusters are repaired deterministically: ascending over empty
cluster ids, reassign the not-yet-stolen point with the largest distance
to its own center, considering only donor clusters that keep at least
one member.  A fit needs N >= K points, so the repair leaves no cluster
empty.

Seed discipline: ``config.seed`` drives initialization; quantum shot
noise for init round r uses ``derive_seed(batch.seed, 0, r)`` and for
Lloyd iteration i uses ``derive_seed(batch.seed, 1, i)``, so runs are
reproducible and init/iteration streams never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .dataset import DataSet
from .distance import BatchConfig, BatchStats, _farthest_point, _nearest_center, distance_matrix
from .errors import DataError, check_choice, check_number
from .simulator import derive_seed

DISTANCE_MODES = ("quantum_exact", "quantum_sampled", "classical_euclidean")


@dataclass(frozen=True)
class FitConfig:
    n_clusters: int
    max_iter: int = 30
    tol: float = 1e-4
    distance_mode: str = "quantum_exact"
    batch: BatchConfig = field(default_factory=BatchConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_clusters", 1), ("max_iter", 1), ("seed", 0)):
            check_number(name, getattr(self, name), low)
        check_number("tol", self.tol, 0.0, integral=False)
        check_choice("distance_mode", self.distance_mode, DISTANCE_MODES)


@dataclass(frozen=True)
class ClusterModel:
    """Fitted model. ``center_shifts`` holds the per-iteration L1 center
    shift (Algorithm-style convergence values), one entry per executed
    iteration; ``batch_history`` holds the per-iteration backend stats for
    quantum modes (initialization circuits are not included)."""

    cluster_centers: np.ndarray
    labels: np.ndarray
    center_shifts: tuple[float, ...]
    converged: bool
    batch_history: tuple[BatchStats, ...] = ()

    def __post_init__(self) -> None:
        centers = np.asarray(self.cluster_centers, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if not np.all(np.isfinite(centers)):
            raise DataError("cluster centers must be finite")
        if labels.size and (labels.min() < 0 or labels.max() >= centers.shape[0]):
            raise DataError("labels must lie in [0, n_clusters)")
        object.__setattr__(self, "cluster_centers", centers)
        object.__setattr__(self, "labels", labels)

    @property
    def n_iter(self) -> int:
        return len(self.center_shifts)


def _pairwise(points, centers, distance_mode: str,
              batch: BatchConfig) -> tuple[np.ndarray, BatchStats | None]:
    """(N, K) distances in an unsampled mode; stats only for quantum_exact."""
    if distance_mode == "classical_euclidean":
        diff = points[:, None, :] - centers[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2)), None
    return distance_matrix(points, centers, config=batch)


def _nearest(points, centers, distance_mode: str, batch: BatchConfig, shot_seed: Callable[[], int]):
    """Each point's nearest center (ties to the lowest index), the stats
    (quantum modes only) and a callable giving the (N, K) distances behind
    the labels.  ``shot_seed()`` gives the shot-noise seed; only sampled
    mode calls it."""
    if distance_mode != "quantum_sampled":
        dists, stats = _pairwise(points, centers, distance_mode, batch)
        return np.argmin(dists, axis=1), stats, lambda: dists
    batch = replace(batch, seed=shot_seed())
    labels, stats = _nearest_center(points, centers, batch)
    return labels, stats, lambda: distance_matrix(points, centers, config=batch, sampled=True)[0]


def qkmeans_plusplus_init(X: DataSet, n_clusters: int, distance_mode: str = "quantum_exact",
                          seed: int = 0, batch: BatchConfig | None = None) -> np.ndarray:
    """Greedy farthest-point seeding; returns a (K, F) center matrix."""
    check_choice("distance_mode", distance_mode, DISTANCE_MODES)
    check_number("n_clusters", n_clusters, 1)
    check_number("seed", seed, 0)
    n = X.n_points
    if n < n_clusters:
        raise DataError(f"need at least n_clusters={n_clusters} points, got {n}")
    batch = batch or BatchConfig()
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    nearest, rounds = np.full(n, np.inf), []  # rounds: sampled mode's bracketed counts
    for round_idx in range(1, n_clusters):
        newest = X.features[chosen[-1]][None, :]
        if distance_mode == "quantum_sampled":
            round_batch = replace(batch, seed=derive_seed(batch.seed, 0, round_idx))
            chosen.append(_farthest_point(rounds, X.features, newest, round_batch, chosen))
            continue
        nearest = np.minimum(nearest, _pairwise(X.features, newest, distance_mode, batch)[0][:, 0])
        masked = nearest.copy()
        masked[chosen] = -np.inf
        chosen.append(int(np.argmax(masked)))
    return X.features[np.asarray(chosen)].copy()


def _repair_empty_clusters(labels: np.ndarray, dists: np.ndarray, n_clusters: int) -> np.ndarray:
    """Hand the farthest-from-its-center point to each empty cluster."""
    counts = np.bincount(labels, minlength=n_clusters)
    empties = np.flatnonzero(counts == 0)
    labels = labels.copy()
    dist_to_own = dists[np.arange(labels.size), labels]
    for k in empties:
        donors = counts[labels] > 1
        if not np.any(donors):
            continue
        j = int(np.argmax(np.where(donors, dist_to_own, -np.inf)))
        counts[labels[j]] -= 1
        labels[j] = k
        counts[k] = 1
        dist_to_own[j] = -np.inf
    return labels


def fit(X: DataSet, config: FitConfig) -> ClusterModel:
    """Run Lloyd iterations until the centers move less than ``tol`` (L1)."""
    k = config.n_clusters
    centers = qkmeans_plusplus_init(X, k, config.distance_mode, config.seed, config.batch)

    labels = np.zeros(X.n_points, dtype=np.int64)
    shifts: list[float] = []
    batch_history: list[BatchStats] = []
    converged = False
    for iteration in range(config.max_iter):
        labels, stats, dists = _nearest(X.features, centers, config.distance_mode, config.batch,
                                        partial(derive_seed, config.batch.seed, 1, iteration))
        if stats is not None:
            batch_history.append(stats)
        if np.bincount(labels, minlength=k).min() == 0:
            labels = _repair_empty_clusters(labels, dists(), k)
        # init needs N >= K, so the repair leaves every cluster a member
        new_centers = np.stack([X.features[labels == c].mean(axis=0) for c in range(k)])
        shift = float(np.sum(np.abs(new_centers - centers)))
        shifts.append(shift)
        centers = new_centers
        if shift < config.tol:
            converged = True
            break
    return ClusterModel(cluster_centers=centers, labels=labels, center_shifts=tuple(shifts),
                        converged=converged, batch_history=tuple(batch_history))


def predict(model: ClusterModel, X: DataSet, distance_mode: str = "quantum_exact",
            batch: BatchConfig | None = None, seed: int = 0) -> np.ndarray:
    """Assign each point of ``X`` to its nearest fitted center."""
    check_choice("distance_mode", distance_mode, DISTANCE_MODES)
    if X.n_features != model.cluster_centers.shape[1]:
        raise DataError("feature dimension does not match the fitted model")
    batch = batch or BatchConfig()
    labels, _, _ = _nearest(X.features, model.cluster_centers, distance_mode, batch, lambda: seed)
    return labels.astype(np.int64)


def classical_kmeans_oracle(X: DataSet, n_clusters: int, seed: int = 0) -> ClusterModel:
    """Euclidean baseline sharing every rule (init, ties, update) with fit."""
    config = FitConfig(n_clusters=n_clusters, distance_mode="classical_euclidean", seed=seed)
    return fit(X, config)
