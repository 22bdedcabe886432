"""SwapTest overlap estimation and the quantum distance metric.

Circuit layout for registers of m qubits: qubit 0 is the ancilla, qubits
1..m hold the left state, qubits m+1..2m the right state.  After
H(0), CSWAP(0, 1+i, 1+m+i) for each register position, H(0), the ancilla
measures 0 with probability  1/2 + |<x|y>|^2 / 2  (Buhrman et al., PRL 87,
167902, 2001).  The executor computes that closed form, not the 2**(2m+1)
amplitudes that ``simulator`` keeps as the reference: <x|y> is the dot
product of the real encoded rows, summed over F by ``row_sums``' fixed
tree rather than BLAS, so no value depends on job size, request count or
thread count.

From an (estimated or exact) ancilla-zero probability p0:

    overlap_sq = clip(2*p0 - 1, 0, 1)
    distance   = sqrt(2 - 2*sqrt(overlap_sq))        in [0, sqrt(2)]

Requests are grouped by feature length and cut into jobs of at most C =
``max_circuits_per_job`` circuits; a job holds C*F*8-byte blocks of
encoded rows.  ``quantum_distance`` is a one-request call into this
executor.  In sampled mode every request draws from its own generator
seeded by ``derive_seed(config.seed, request_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import encode_matrix
from .errors import ConfigError
# The batch_* kernels are unused here; perfbench/tracer.py looks them up on this module.
from .simulator import (  # noqa: F401
    batch_cswap,
    batch_ground,
    batch_h,
    batch_marginal,
    batch_prepare,
    derive_seed,
    row_sums,
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


def _run_group(
    enc_left: np.ndarray,
    enc_right: np.ndarray,
    left_rows: np.ndarray,
    right_rows: np.ndarray,
    config: BatchConfig,
    sampled: bool,
    request_indices: np.ndarray,
) -> tuple[np.ndarray, int]:
    """p0 of each pair (enc_left[left_rows[r]], enc_right[right_rows[r]]),
    job by job; returns (p0 estimates, jobs)."""
    total = request_indices.size
    p0_hat = np.empty(total, dtype=np.float64)
    jobs = 0
    for start in range(0, total, config.max_circuits_per_job):
        stop = min(start + config.max_circuits_per_job, total)
        jobs += 1
        overlap = row_sums(enc_left[left_rows[start:stop]] * enc_right[right_rows[start:stop]])
        if sampled:
            p1 = np.clip(0.5 - 0.5 * overlap**2, 0.0, 1.0)
            shots = config.shots_per_circuit
            for j in range(stop - start):
                rng = np.random.default_rng(derive_seed(config.seed, int(request_indices[start + j])))
                ones = int(rng.binomial(shots, p1[j]))
                p0_hat[start + j] = (shots - ones) / shots
        else:
            p0_hat[start:stop] = 0.5 + 0.5 * overlap**2
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
        enc_left, enc_right, rows = encode_matrix(left_mat), encode_matrix(right_mat), np.arange(idx.size)
        p0, group_jobs = _run_group(enc_left, enc_right, rows, rows, config, sampled, idx)
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
    but encodes each point and each center once and gathers the pairs
    job by job instead of materialising N*K request rows.
    """
    config = config or BatchConfig()
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.ndim != 2 or ctr.ndim != 2 or pts.shape[1] != ctr.shape[1]:
        raise ValueError("points and centers must be 2-D with matching feature counts")
    n_pts, k = pts.shape[0], ctr.shape[0]
    requests = np.arange(n_pts * k)
    pt_rows, ctr_rows = np.divmod(requests, k)
    enc_pts, enc_ctr = encode_matrix(pts), encode_matrix(ctr)
    p0, jobs = _run_group(enc_pts, enc_ctr, pt_rows, ctr_rows, config, sampled, requests)
    stats = BatchStats(jobs_submitted=jobs, circuits_executed=n_pts * k)
    return distance_from_p0(p0).reshape(n_pts, k), stats
