"""Lloyd-style k-means over quantum (SwapTest) or Euclidean distances.

One loop serves three distance modes:

* ``quantum_exact``    — SwapTest circuits, exact ancilla marginals
* ``quantum_sampled``  — SwapTest circuits, finite-shot estimates
* ``classical_euclidean`` — plain Euclidean metric (the baseline)

Iteration structure: assign every point to its nearest center, average
the assigned raw feature rows to get new centers, stop when the L1 sum of
center movement drops below ``tol``; a center is the in-order sum of its
member rows over their count.  Points are held feature-major, as an
(F, N) array built once per fit (shared by its init rounds), init or
predict call: unit columns in quantum modes, which also encode the (F, K)
center columns at every Lloyd step through the same unit-column helper.
Every sum over F, Euclidean or overlap, adds in ``row_sums``' one pairwise
tree; centers always live in the original feature space.  A label is the
row of the least key in a (K, N) array, ties to the lowest index: -<x|y>**2
(so of two quantum distances that round to one value, the larger overlap
wins), a sampled count clipped at ceil(shots/2), or the Euclidean distance.
Sampled counts start as brackets (``distance._SampledCounts``), and only
the counts of points in doubt are read: a point whose leading center's
upper bound does not beat every other center's lower bound (ties to the
lower index), or a seed candidate whose least upper bound over the init
rounds reaches the best least lower bound.  A lone candidate needs no count.

Initialization is always greedy farthest-point seeding ("qkmeans++",
``qkmeans_plusplus_init``): the first center is a uniformly drawn data
point, each next center the point with the greatest key to its
nearest chosen center (measured in the same distance mode), ties to the
lowest index.

Empty clusters are repaired deterministically: ascending over empty
cluster ids, reassign the not-yet-stolen point with the largest key
to its own center, considering only donor clusters that keep at least
one member.  A fit needs N >= K points, so the repair leaves no cluster
empty.

Seed discipline: ``config.seed`` drives initialization; quantum shot
noise for init round r uses ``derive_seed(batch.seed, 0, r)`` and for
Lloyd iteration i uses ``derive_seed(batch.seed, 1, i)``, so runs are
reproducible and init/iteration streams never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import distance  # helpers are looked up on the module, so one wrapper there sees every call
from .dataset import DataSet
# distance_matrix is unused here; perfbench/tracer.py looks it up on this module.
from .distance import BatchConfig, BatchStats, distance_matrix  # noqa: F401
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


def _columns(matrix: np.ndarray, distance_mode: str) -> np.ndarray:
    """The contiguous (F, N) array a distance mode compares, point i in
    column i: the features, or their unit columns in quantum modes."""
    if not matrix.shape[1]:
        raise DataError("points need at least one feature")
    if distance_mode == "classical_euclidean":
        return np.ascontiguousarray(matrix.T)
    return distance.encode_matrix(matrix).T


def _pairwise(columns, center_columns, distance_mode: str, batch: BatchConfig):
    """(K, N) Euclidean distances or, with stats, quantum_exact -<x|y>**2
    of ``_columns``' columns: keys that rise with the distance."""
    if distance_mode == "classical_euclidean":
        _, norms, exponents = distance._scaled_norms(columns[:, None, :] - center_columns[:, :, None])
        return (norms if exponents is None else np.ldexp(norms, exponents)), None
    overlap, stats = distance._overlaps(columns, center_columns, batch)
    overlap *= overlap
    return np.negative(overlap, out=overlap), stats


def _nearest_rows(values: np.ndarray) -> np.ndarray:
    """``np.argmin(values, axis=0)`` of a (K, N) array as a running strict-<
    minimum over its K rows, from the first comparison on: ties go to the lowest row."""
    labels = (values[min(1, len(values) - 1)] < values[0]).astype(np.int64)  # at K = 1, none
    best = values[0]
    for k in range(2, len(values)):
        best = np.minimum(best, values[k - 1])
        labels[values[k] < best] = k
    return labels


def _nearest(columns, center_columns, distance_mode: str, batch: BatchConfig, shot_seed: Callable[[], int]):
    """Each point of ``_columns``' ``columns`` to its nearest center of the
    (F, K) ``center_columns`` (least key, ties to the lowest index), the stats
    (quantum modes only) and a callable giving the (N, K) keys behind the labels.
    Quantum modes encode the centers; ``shot_seed()`` gives the shot-noise
    seed, and only sampled mode calls it."""
    if distance_mode != "classical_euclidean":
        center_columns = distance._unit_columns(center_columns)
    if distance_mode != "quantum_sampled":
        keys, stats = _pairwise(columns, center_columns, distance_mode, batch)
        return _nearest_rows(keys), stats, lambda: keys.T
    overlap, stats = distance._overlaps(columns, center_columns, batch)
    counts = distance._SampledCounts(overlap.T, batch.shots_per_circuit, shot_seed())  # request point*K + k
    k, n_pts = overlap.shape
    lo, hi = counts.lo.reshape(n_pts, k).T, counts.hi.reshape(n_pts, k).T
    points = np.arange(n_pts)
    labels = _nearest_rows(hi)
    best = hi[labels, points]
    # the leader beats centers surely farther, or surely no nearer and later
    beaten = (lo > best) | ((lo == best) & (np.arange(k)[:, None] > labels))
    beaten[labels, points] = True
    doubt = np.flatnonzero(~beaten.all(axis=0))
    if doubt.size:
        requests = (doubt[:, None] * k + np.arange(k)).ravel()
        labels[doubt] = _nearest_rows(counts.counts(requests).reshape(doubt.size, k).T)
    return labels, stats, lambda: counts.counts(np.arange(n_pts * k)).reshape(n_pts, k)


def qkmeans_plusplus_init(X: DataSet, n_clusters: int, distance_mode: str = "quantum_exact",
                          seed: int = 0, batch: BatchConfig | None = None) -> np.ndarray:
    """Greedy farthest-point seeding; returns a (K, F) center matrix."""
    check_choice("distance_mode", distance_mode, DISTANCE_MODES)
    check_number("n_clusters", n_clusters, 1)
    check_number("seed", seed, 0)
    columns = _columns(X.features, distance_mode)
    return _seeding(X, columns, n_clusters, distance_mode, seed, batch or BatchConfig())


def _seeding(X: DataSet, columns, n_clusters: int, distance_mode: str, seed: int,
             batch: BatchConfig) -> np.ndarray:
    """``qkmeans_plusplus_init`` on ``_columns``' columns of ``X``."""
    n = X.n_points
    if n < n_clusters:
        raise DataError(f"need at least n_clusters={n_clusters} points, got {n}")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    nearest, rounds = np.full(n, np.inf), []  # rounds: sampled mode's bracketed counts
    for round_idx in range(1, n_clusters):
        newest = columns[:, chosen[-1:]]
        if distance_mode == "quantum_sampled":
            overlap = distance._overlaps(columns, newest, batch)[0]
            round_seed = derive_seed(batch.seed, 0, round_idx)
            rounds.append(distance._SampledCounts(overlap, batch.shots_per_circuit, round_seed))
            low = np.min([counts.lo for counts in rounds], axis=0)
            high = np.min([counts.hi for counts in rounds], axis=0)
            low[chosen] = high[chosen] = -1.0
            doubt = np.flatnonzero(high >= low.max())
            pick = 0  # a lone candidate needs no count
            if doubt.size > 1:
                pick = np.argmax(np.min([counts.counts(doubt) for counts in rounds], axis=0))
            chosen.append(int(doubt[pick]))
            continue
        nearest = np.minimum(nearest, _pairwise(columns, newest, distance_mode, batch)[0][0])
        nearest[chosen] = -np.inf  # stays -inf in every later minimum
        chosen.append(int(np.argmax(nearest)))
    return X.features[np.asarray(chosen)].copy()


def _repair_empty_clusters(labels: np.ndarray, keys: np.ndarray, n_clusters: int) -> np.ndarray:
    """Hand each empty cluster the donor point with the largest of the (N, K)
    ``keys`` (``_nearest``'s) to its own center.  A moved point is alone in
    its new cluster, so it is never a donor again."""
    counts = np.bincount(labels, minlength=n_clusters)
    empties = np.flatnonzero(counts == 0)
    labels = labels.copy()
    key_to_own = keys[np.arange(labels.size), labels]
    for k in empties:
        donors = counts[labels] > 1
        if not np.any(donors):
            continue
        j = int(np.argmax(np.where(donors, key_to_own, -np.inf)))
        counts[labels[j]] -= 1
        labels[j] = k
        counts[k] = 1
    return labels


def fit(X: DataSet, config: FitConfig) -> ClusterModel:
    """Run Lloyd iterations until the centers move less than ``tol`` (L1)."""
    k, f, mode = config.n_clusters, X.n_features, config.distance_mode
    columns = _columns(X.features, mode)
    centers = _seeding(X, columns, k, mode, config.seed, config.batch)
    center_columns = centers.T
    weights = (columns if mode == "classical_euclidean" else X.features.T).ravel()  # feature-major
    bins, index = np.arange(f)[:, None] * k, np.empty((f, X.n_points), dtype=np.int64)
    shifts: list[float] = []
    batch_history: list[BatchStats] = []
    for iteration in range(config.max_iter):  # max_iter >= 1, so the loop sets labels
        labels, stats, keys = _nearest(columns, center_columns, mode, config.batch,
                                       partial(derive_seed, config.batch.seed, 1, iteration))
        if stats is not None:
            batch_history.append(stats)
        counts = np.bincount(labels, minlength=k)
        if counts.min() == 0:
            labels = _repair_empty_clusters(labels, keys(), k)
            counts = np.bincount(labels, minlength=k)
        # init needs N >= K, so the repair leaves every cluster a member
        np.add(bins, labels, out=index)  # center k's sum of feature j is bin j*K + k
        sums = np.bincount(index.ravel(), weights, k * f)
        center_columns = sums.reshape(f, k) / counts
        new_centers = np.ascontiguousarray(center_columns.T)
        shifts.append(float(np.abs(new_centers - centers).sum()))
        centers = new_centers
        if shifts[-1] < config.tol:
            break
    return ClusterModel(cluster_centers=centers, labels=labels, center_shifts=tuple(shifts),
                        converged=shifts[-1] < config.tol, batch_history=tuple(batch_history))


def predict(model: ClusterModel, X: DataSet, distance_mode: str = "quantum_exact",
            batch: BatchConfig | None = None, seed: int = 0) -> np.ndarray:
    """Assign each point of ``X`` to its nearest fitted center."""
    check_choice("distance_mode", distance_mode, DISTANCE_MODES)
    if X.n_features != model.cluster_centers.shape[1]:
        raise DataError("feature dimension does not match the fitted model")
    batch = batch or BatchConfig()
    return _nearest(_columns(X.features, distance_mode), model.cluster_centers.T, distance_mode, batch,
                    lambda: seed)[0]


def classical_kmeans_oracle(X: DataSet, n_clusters: int, seed: int = 0) -> ClusterModel:
    """Euclidean baseline sharing every rule (init, ties, update) with fit."""
    config = FitConfig(n_clusters=n_clusters, distance_mode="classical_euclidean", seed=seed)
    return fit(X, config)
