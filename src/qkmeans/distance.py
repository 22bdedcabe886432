"""SwapTest overlap estimation and the quantum distance metric.

Circuit layout for registers of m qubits: qubit 0 is the ancilla, qubits
1..m hold the left state, qubits m+1..2m the right state.  After
H(0), CSWAP(0, 1+i, 1+m+i) for each register position, H(0), the ancilla
measures 0 with probability  1/2 + |<x|y>|^2 / 2.

From an (estimated or exact) ancilla-zero probability p0:

    overlap_sq = clip(2*p0 - 1, 0, 1)
    distance   = sqrt(2 - 2*sqrt(overlap_sq))        in [0, sqrt(2)]

The batched executor packs many independent pairs into (batch, 2**n)
arrays, grouping by feature length and splitting each group into jobs of
at most ``max_circuits_per_job`` circuits.  It is the only executor:
``quantum_distance`` is a one-request call into it.  Results do not
depend on the job size or on the grouping: in sampled mode every request
draws from its own generator seeded by
``derive_seed(config.seed, request_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import encode_matrix, padded_dimension
from .errors import ConfigError
from .simulator import (
    batch_cswap,
    batch_ground,
    batch_h,
    batch_marginal,
    batch_prepare,
    derive_seed,
)


@dataclass(frozen=True)
class DistanceRequest:
    """One left/right pair of raw (unencoded) feature vectors."""

    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class BatchConfig:
    """Execution budget for the batched backend."""

    max_circuits_per_job: int = 900
    shots_per_circuit: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_circuits_per_job < 1:
            raise ConfigError("max_circuits_per_job must be >= 1")
        if self.shots_per_circuit < 1:
            raise ConfigError("shots_per_circuit must be >= 1")


@dataclass(frozen=True)
class BatchStats:
    """Accounting for one executor call: how many jobs and circuits ran."""

    jobs_submitted: int
    circuits_executed: int


def distance_from_p0(p0):
    """Distance implied by an ancilla-zero probability; the overlap
    |<x|y>|^2 = 2*p0 - 1 is clipped into [0, 1] first."""
    return np.sqrt(2.0 - 2.0 * np.sqrt(np.clip(2.0 * p0 - 1.0, 0.0, 1.0)))


def quantum_distance(
    x: np.ndarray,
    y: np.ndarray,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Distance between two raw vectors: one request to ``estimate_distances``.

    ``shots=None`` reads the exact ancilla marginal; an integer samples it
    from request 0's stream, ``derive_seed(seed, 0)``.
    """
    if shots is None:
        config = BatchConfig(seed=seed)
    else:
        config = BatchConfig(shots_per_circuit=shots, seed=seed)
    dists, _ = estimate_distances([DistanceRequest(x, y)], config, sampled=shots is not None)
    return float(dists[0])


# ---------------------------------------------------------------------------
# batched execution
# ---------------------------------------------------------------------------


def _run_group(
    left_mat: np.ndarray,
    right_mat: np.ndarray,
    config: BatchConfig,
    sampled: bool,
    request_indices: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Execute one same-shape group job by job; returns (p0 estimates, jobs)."""
    total = left_mat.shape[0]
    m = int(np.log2(padded_dimension(left_mat.shape[1])))
    n = 1 + 2 * m
    a_reg = tuple(range(1, m + 1))
    b_reg = tuple(range(m + 1, 2 * m + 1))
    p0_hat = np.empty(total, dtype=np.float64)
    jobs = 0
    for start in range(0, total, config.max_circuits_per_job):
        stop = min(start + config.max_circuits_per_job, total)
        jobs += 1
        rows = stop - start
        enc_left = encode_matrix(left_mat[start:stop])
        enc_right = encode_matrix(right_mat[start:stop])
        amps = batch_ground(rows, n)
        batch_prepare(amps, n, a_reg, enc_left)
        batch_prepare(amps, n, b_reg, enc_right)
        batch_h(amps, n, 0)
        for i in range(m):
            batch_cswap(amps, n, 0, 1 + i, 1 + m + i)
        batch_h(amps, n, 0)
        if sampled:
            p1 = np.clip(batch_marginal(amps, n, 0, 1), 0.0, 1.0)
            shots = config.shots_per_circuit
            for j in range(rows):
                rng = np.random.default_rng(derive_seed(config.seed, int(request_indices[start + j])))
                ones = int(rng.binomial(shots, p1[j]))
                p0_hat[start + j] = (shots - ones) / shots
        else:
            p0_hat[start:stop] = batch_marginal(amps, n, 0, 0)
    return p0_hat, jobs


def estimate_distances(
    requests: Sequence[DistanceRequest],
    config: BatchConfig | None = None,
    sampled: bool = False,
) -> tuple[np.ndarray, BatchStats]:
    """Run every request through the batched backend.

    Requests are grouped by feature length; each group is cut into jobs
    of at most ``config.max_circuits_per_job`` circuits.  Result i depends
    only on request i (and config), never on its neighbours.
    """
    config = config or BatchConfig()
    groups: dict[int, list[int]] = {}
    for i, req in enumerate(requests):
        left = np.asarray(req.left, dtype=np.float64)
        right = np.asarray(req.right, dtype=np.float64)
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError(f"request {i}: left/right must be 1-D vectors of equal length")
        groups.setdefault(left.size, []).append(i)
    out = np.empty(len(requests), dtype=np.float64)
    jobs = 0
    for idx_list in groups.values():
        idx = np.asarray(idx_list)
        left_mat = np.stack([np.asarray(requests[i].left, dtype=np.float64) for i in idx_list])
        right_mat = np.stack([np.asarray(requests[i].right, dtype=np.float64) for i in idx_list])
        p0, group_jobs = _run_group(left_mat, right_mat, config, sampled, idx)
        out[idx] = distance_from_p0(p0)
        jobs += group_jobs
    return out, BatchStats(jobs_submitted=jobs, circuits_executed=len(requests))


def distance_matrix(
    points: np.ndarray,
    centers: np.ndarray,
    config: BatchConfig | None = None,
    sampled: bool = False,
) -> tuple[np.ndarray, BatchStats]:
    """All point-to-center distances as an (N, K) matrix.

    Equivalent to ``estimate_distances`` over the row-major list of
    (point i, center k) requests — including per-request sampling seeds —
    but without materialising the request objects.
    """
    config = config or BatchConfig()
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.ndim != 2 or ctr.ndim != 2 or pts.shape[1] != ctr.shape[1]:
        raise ValueError("points and centers must be 2-D with matching feature counts")
    n_pts, k = pts.shape[0], ctr.shape[0]
    left = np.repeat(pts, k, axis=0)
    right = np.tile(ctr, (n_pts, 1))
    p0, jobs = _run_group(left, right, config, sampled, np.arange(n_pts * k))
    stats = BatchStats(jobs_submitted=jobs, circuits_executed=n_pts * k)
    return distance_from_p0(p0).reshape(n_pts, k), stats
