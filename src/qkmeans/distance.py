"""SwapTest overlap estimation and the quantum distance metric.

Circuit layout for registers of m qubits: qubit 0 is the ancilla, qubits
1..m hold the left state, qubits m+1..2m the right state.  After
H(0), CSWAP(0, 1+i, 1+m+i) for each register position, H(0), the ancilla
measures 0 with probability  1/2 + |<x|y>|^2 / 2  (Buhrman et al., PRL 87,
167902, 2001).  The executor computes that closed form, not the 2**(2m+1)
amplitudes that ``simulator`` keeps as the reference: <x|y> is the dot
product of the unit rows from ``encode_matrix``, summed over F by
``row_sums``' fixed tree rather than BLAS, so no value depends on job
size, request count or thread count.

From an (estimated or exact) ancilla-zero probability p0:

    overlap_sq = clip(2*p0 - 1, 0, 1)
    distance   = sqrt(2 - 2*sqrt(overlap_sq))        in [0, sqrt(2)]

A job holds at most C = ``max_circuits_per_job`` circuits, and a call
of R requests of one feature length counts ceil(R/C) jobs.  A job is an
accounting unit, as on a device queue, and plays no part in computing
or sampling: ``distance_matrix`` forms its overlaps in blocks of
consecutive points capped at ``_BLOCK_PRODUCTS`` float64 products,
whatever C is.  ``quantum_distance`` is a one-request call into this
executor.

Sampled mode draws each request's count of ancilla ones in two
vectorized steps per executor call, keyed by request index:

* **Uniform.**  ``derive_seed(config.seed)`` folds the seed into a 64-bit
  key once per call; request i takes output i of a SplitMix64 stream
  (Steele, Lea & Flood, OOPSLA 2014) from that key, mapped to
  ``((bits >> 12) + 0.5) * 2**-52``, strictly inside (0, 1).
* **Count.**  Exact binomial inversion: the smallest k in [0, shots] with
  P(Bin(shots, p1) <= k) >= u, found from a Cornish-Fisher guess by
  stepping k on the regularized incomplete beta function.  ``betainc``
  runs once per request, at the guess; the step to k - 1 is screened with
  a ``gammaln`` pmf and a per-request error bound, and only requests that
  the bound leaves undecided, and every further step, evaluate it again.
  The counts are those of evaluating every step; from about 2**46 shots
  the bound is too wide and every step is evaluated.

Request i's estimate therefore depends only on (seed, i, p1_i): job size,
grouping and appended requests never change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, check_number
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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# float64 products (512 KiB) in one distance_matrix block of points
_BLOCK_PRODUCTS = 2**16


@dataclass(frozen=True)
class DistanceRequest:
    """One left/right pair of raw (unencoded) feature vectors."""

    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class BatchConfig:
    """Execution budget for the batched backend.  ``max_circuits_per_job``
    is the device's per-job limit C: it sets how many jobs a call counts,
    not how the overlaps are computed."""

    max_circuits_per_job: int = 900
    shots_per_circuit: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("max_circuits_per_job", 1), ("shots_per_circuit", 1), ("seed", 0)):
            check_number(name, getattr(self, name), low)
        if self.shots_per_circuit > 2**53:
            # the sampler counts in float64, which holds every integer up to 2**53
            raise ConfigError("shots_per_circuit must be <= 2**53")


@dataclass(frozen=True)
class BatchStats:
    """Accounting for one executor call: how many jobs and circuits ran."""

    jobs_submitted: int
    circuits_executed: int


def encode_matrix(matrix: np.ndarray) -> np.ndarray:
    """Each row of ``matrix`` divided by its norm: the real amplitudes that
    PREPARE loads into a register, less the zeros that pad a row out to
    2**m.  Zeros add nothing to an overlap, and ``row_sums`` pads each odd
    level of its tree with a trailing zero, so overlaps summed over the F
    columns equal the padded register's bit for bit."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise DataError("expected a 2-D matrix of row vectors")
    if not (mat.shape[1] and np.all(np.isfinite(mat))):  # a zero-length row is no state
        raise DataError("amplitude encoding needs nonzero finite vectors")
    norms = np.sqrt(row_sums(mat * mat))
    if np.any(norms == 0.0):
        raise DataError("amplitude encoding needs nonzero finite vectors")
    return mat / norms[:, None]


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
    as request 0 of the batch: output 0 of the SplitMix64 stream keyed by
    ``derive_seed(seed)`` gives a uniform u, and the count of ones is the
    exact Bin(shots, p1) quantile at u.
    """
    if shots is None:
        config = BatchConfig(seed=seed)
    else:
        config = BatchConfig(shots_per_circuit=shots, seed=seed)
    dists, _ = estimate_distances([DistanceRequest(x, y)], config, sampled=shots is not None)
    return float(dists[0])


def _request_uniforms(key: int, request_indices: np.ndarray) -> np.ndarray:
    """Output ``request_indices`` of the SplitMix64 stream seeded with ``key``,
    as doubles strictly inside (0, 1): the top 52 bits plus half a step, so
    the extremes are 2**-53 and 1 - 2**-53."""
    z = np.uint64(key) + (np.asarray(request_indices, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def _binomial_quantile(shots: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest k in [0, shots] with P(Bin(shots, p) <= k) >= u, elementwise.

    The tails are the incomplete-beta forms that ``scipy.special.bdtr`` and
    ``bdtrc`` use, P(X <= k) = I_{1-p}(n-k, k+1) and P(X > k) =
    I_p(k+1, n-k), evaluated with ``betainc``: ``bdtr`` is off by ~1e-9 at
    2**20 shots and returns nan from 2**31.  For u >= 1/2 the test runs in
    the upper tail, P(X > k) <= 1 - u, where 1 - u is exact; a CDF near 1
    would round to 1.0 there.  Below 1/2 it reads 1 - p, as ``bdtr`` does,
    which moves p by at most 2**-54.  Starting from a continuity-corrected
    Cornish-Fisher guess, one loop steps every still-unsettled entry, up
    or down by one, in one ``tail`` pass per step, so each entry's result
    depends on its own (p, u) alone.

    Each entry evaluates ``betainc`` once, at the guess k.  The step to
    k - 1, which the guess passes for all but a few entries, is screened
    without a second one.  The tail at k - 1 is the tail t at k minus
    (lower) or plus (upper) pmf(k), so its slack against the threshold (u,
    or 1 - u from 1/2) is the slack at k minus pmf(k), taken as exp of a
    ``gammaln`` log-pmf at the tail's own argument x (p, or 1 - p below
    1/2).  Where that estimate lies more than

        margin = 3 * (a * (t + pmf) + e)

    from 0, ``betainc`` at k - 1 falls on the same side of the threshold,
    and the screen takes or refuses the step itself.  The other entries,
    and every later step, go through the loop, so each count is bit for bit
    the one that evaluating every step gives.  In the margin:

    * ``a = 2**-32 + n 2**-48`` is the relative error allowed each
      ``betainc`` tail at n shots.  It is an allowance, not a proof.
      Against 50-digit pmf values, the difference of two neighbouring
      tails from SciPy 1.17 missed pmf(k) by at most a/70 times the larger
      tail, over 2.3 million random (n, p, u) with n in [2, 2**46] (the
      worst at n = 6.9e7, p = 4.8e-7, k = 33).  In eps = 2**-52, the worst
      of ~30,000 draws was 3 at 7 shots, 1.7e2 at 2**10, 1.4e3 at 2**13,
      2e5 at 2**20 and 2.4e8 at 2**53.
    * ``e = pmf * expm1(8 eps (2 gammaln(n + 1) - log pmf + 4))`` bounds
      the pmf's own error.  2 gammaln(n + 1) - log pmf is the sum M of the
      magnitudes of the log-pmf's five terms.  Each ``gammaln`` errs by at
      most 2 eps max(1, value) (1.3 eps measured), each x log y term by
      1.5 eps of its magnitude, each of the four sums by eps/2 of at most
      M, and ``exp`` by one rounding: 4 eps (M + 2) in all, doubled here.
    * The factor 3 covers both tails' errors (the tail at k - 1 is at most
      t + pmf, over 1 - a) and the rounding of the slack and the margin,
      while a <= 1/4.  From about 2**46 shots a exceeds that, and every
      step is exact.
    """
    # Local: a process that never samples a distance never loads SciPy.
    from scipy.special import betainc, gammaln, ndtri, xlog1py, xlogy

    n = float(shots)
    upper = u >= 0.5
    x = np.where(upper, p, 1.0 - p)

    def tail(k: np.ndarray, sel) -> tuple[np.ndarray, np.ndarray]:
        # The entries' exact tails at k, I_x(k+1, n-k) above 1/2 and
        # I_x(n-k, k+1) below (nan at k == shots), and their slack against
        # the threshold, whose sign is exactly the comparison's: >= 0 where
        # P(X <= k) >= u.
        up, us = upper[sel], u[sel]
        t = betainc(np.where(up, k + 1.0, n - k), np.where(up, n - k, k + 1.0), x[sel])
        t[k == n] = np.nan
        return t, np.where(up, (1.0 - us) - t, t - us)

    z = ndtri(u)
    mean = n * p
    guess = mean + np.sqrt(mean * (1.0 - p)) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    k = np.clip(np.floor(guess + 0.5), 0.0, n)
    t, slack = tail(k, slice(None))
    ok = (slack >= 0.0) | (k == n)
    down = ok & (k > 0.0)
    a = 2.0**-32 + n * 2.0**-48
    if a <= 0.25:
        # pmf(k) = C(n, k) x**j (1 - x)**(n - j), j the exponent of the tail's x
        j = np.where(upper, k, n - k)
        g_n = gammaln(n + 1.0)
        log_pmf = g_n - gammaln(k + 1.0) - gammaln(n - k + 1.0) + xlogy(j, x) + xlog1py(n - j, -x)
        pmf = np.exp(log_pmf)
        with np.errstate(invalid="ignore"):  # 0 * inf at p in {0, 1}: nan, undecided
            margin = 3.0 * (a * (t + pmf) + pmf * np.expm1(8.0 * 2.0**-52 * (2.0 * g_n + 4.0 - log_pmf)))
        # the slack at k - 1, nan (undecided) where k == shots
        lead = slack - pmf
        k[down & (lead > margin)] -= 1.0
        down &= ~(lead < -margin) & (k > 0.0)
    # Each pass tries k + 1 on every request still short of u and k - 1 on
    # every request that may reach it lower, in one tail: a step up is always
    # taken, a step down only where P(X <= k - 1) >= u; k == shots reaches u.
    pending = np.flatnonzero(~ok | down)
    rising = ~ok[pending]
    while pending.size:
        trial = k[pending] + np.where(rising, 1.0, -1.0)
        hit = (tail(trial, pending)[1] >= 0.0) | (trial == n)
        k[pending[rising | hit]] = trial[rising | hit]
        more = (hit != rising) & (trial > 0.0)
        pending, rising = pending[more], rising[more]
    return k


def _distances(overlap: np.ndarray, config: BatchConfig, sampled: bool) -> np.ndarray:
    """Distances from one executor call's overlaps, request i at index i: the
    exact p0 = 1/2 + <x|y>**2/2, or one sampler pass over every request."""
    if sampled:
        shots = config.shots_per_circuit
        p1 = np.clip(0.5 - 0.5 * overlap**2, 0.0, 1.0)
        u = _request_uniforms(derive_seed(config.seed), np.arange(overlap.size))
        p0 = (shots - _binomial_quantile(shots, p1, u)) / shots
    else:
        p0 = 0.5 + 0.5 * overlap**2
    return distance_from_p0(p0)


def estimate_distances(
    requests: Sequence[DistanceRequest],
    config: BatchConfig | None = None,
    sampled: bool = False,
) -> tuple[np.ndarray, BatchStats]:
    """Run every request through the batched backend.

    Requests are grouped by feature length; a group of g requests counts
    ceil(g / ``config.max_circuits_per_job``) jobs.  Result i depends only
    on request i (and config), never on its neighbours.
    """
    config = config or BatchConfig()
    groups: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for i, req in enumerate(requests):
        left = np.asarray(req.left, dtype=np.float64)
        right = np.asarray(req.right, dtype=np.float64)
        if left.ndim != 1 or left.shape != right.shape:
            raise DataError(f"request {i}: left/right must be 1-D vectors of equal length")
        groups.setdefault(left.size, []).append((i, left, right))
    overlap = np.empty(len(requests), dtype=np.float64)
    jobs = 0
    for members in groups.values():
        idx, lefts, rights = zip(*members)
        enc_left, enc_right = encode_matrix(np.stack(lefts)), encode_matrix(np.stack(rights))
        overlap[list(idx)] = row_sums(enc_left * enc_right)
        jobs += -(-len(idx) // config.max_circuits_per_job)
    stats = BatchStats(jobs_submitted=jobs, circuits_executed=len(requests))
    return _distances(overlap, config, sampled), stats


def distance_matrix(
    points: np.ndarray,
    centers: np.ndarray,
    config: BatchConfig | None = None,
    sampled: bool = False,
) -> tuple[np.ndarray, BatchStats]:
    """All point-to-center distances as an (N, K) matrix.

    Equivalent to ``estimate_distances`` over the row-major list of
    (point i, center k) requests — including per-request sampling streams —
    but encodes each point and each center once and multiplies them in
    capped blocks of points instead of materialising N*K request rows.
    """
    config = config or BatchConfig()
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.ndim != 2 or ctr.ndim != 2 or pts.shape[1] != ctr.shape[1]:
        raise DataError("points and centers must be 2-D with matching feature counts")
    (n_pts, f), k = pts.shape, ctr.shape[0]
    enc_pts, enc_ctr = encode_matrix(pts), encode_matrix(ctr)
    overlap = np.empty((n_pts, k), dtype=np.float64)
    step = max(1, _BLOCK_PRODUCTS // max(1, k * f))
    for start in range(0, n_pts, step):
        rows = slice(start, start + step)
        block = enc_pts[rows, None, :] * enc_ctr
        overlap[rows] = row_sums(block.reshape(-1, f)).reshape(block.shape[:2])
    jobs = -(-n_pts * k // config.max_circuits_per_job)
    stats = BatchStats(jobs_submitted=jobs, circuits_executed=n_pts * k)
    return _distances(overlap.ravel(), config, sampled).reshape(n_pts, k), stats
