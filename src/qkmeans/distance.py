"""SwapTest overlap estimation and the quantum distance metric.

Circuit layout for registers of m qubits: qubit 0 is the ancilla, qubits
1..m hold the left state, qubits m+1..2m the right state.  After
H(0), CSWAP(0, 1+i, 1+m+i) for each register position, H(0), the ancilla
measures 0 with probability  1/2 + |<x|y>|^2 / 2  (Buhrman et al., PRL 87,
167902, 2001).  The executor computes that closed form, not the 2**(2m+1)
amplitudes that ``simulator`` keeps as the reference: <x|y> is the dot
product of the unit rows from ``encode_matrix``, summed over F by
``row_sums``' fixed tree rather than BLAS, so no value depends on job
size, request count or thread count.  Every norm, and ``clustering``'s
Euclidean distances, add over F in that same tree.

From an (estimated or exact) ancilla-zero probability p0, in
``_distances`` alone (the calls that return a distance; labels rank
-overlap_sq, or a sampled count of ones clipped at m = ceil(shots/2)):

    overlap_sq = clip(2*p0 - 1, 0, 1)
    distance   = sqrt(2 - 2*sqrt(overlap_sq))        in [0, sqrt(2)]

A job holds at most C = ``max_circuits_per_job`` circuits, and a call
of R requests of one feature length counts ceil(R/C) jobs.  A job is an
accounting unit, as on a device queue, and plays no part in computing
or sampling: ``_overlaps``, the one block-overlap helper, takes unit
vectors feature-major, as (F, N) and (F, K) columns (a fit encodes its
points once), and multiplies them in blocks of consecutive point columns
capped at ``_BLOCK_PRODUCTS`` float64 products, whatever C is.  Every
array op then runs along the point axis, not along F (2 in the CLI),
and each overlap is still its row-major row's tree sum, bit for bit.
Request i of an (N, K) matrix is point i // K against center i % K.
``quantum_distance`` is a one-request call into this executor.

Sampled mode draws each request's count of ancilla ones in two
vectorized steps per executor call, keyed by request index:

* **Uniform.**  ``derive_seed(seed)`` folds the call's shot seed
  (``config.seed``, or the seed that a Lloyd step, init round or
  ``predict`` passes) into a 64-bit key once per call; request i takes
  output i of a SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014) from
  that key, mapped to ``((bits >> 12) + 0.5) * 2**-52``, strictly inside
  (0, 1).
* **Count.**  Exact binomial inversion: the smallest k in [0, shots] with
  P(Bin(shots, p1) <= k) >= u, from a Cornish-Fisher guess checked with
  the count below it in one call of the regularized incomplete beta
  function (``betainc``), then stepped where it missed.  A request's count
  is inverted only when it is read.  Every call first brackets each count
  by Bernstein's inequality from its own (shots, p1, u)
  (``_count_brackets``); ``clustering`` reads only the counts of the
  points whose brackets leave a label or seed in doubt, so its picks are
  those of the fully inverted matrix.

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
_TINY = np.finfo(np.float64).tiny  # the least normal float64


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
    columns equal the padded register's bit for bit.  The rows go through
    ``_unit_columns`` as the columns of the transpose."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise DataError("expected a 2-D matrix of row vectors")
    return _unit_columns(mat.T).T


def _unit_columns(columns: np.ndarray) -> np.ndarray:
    """The (F, N) ``columns`` each divided by its norm, written contiguously:
    the unit columns that the executor takes.  (``_scaled_norms`` scales a
    column whose squares leave the float range by a power of two.)  A fit
    encodes its K centers here on every Lloyd step, and ``encode_matrix``
    its rows."""
    if not (len(columns) and np.isfinite(columns).all()):  # a zero-length vector is no state
        raise DataError("amplitude encoding needs nonzero finite vectors")
    columns, norms, _ = _scaled_norms(columns)
    if not norms.all():
        raise DataError("amplitude encoding needs nonzero finite vectors")
    return np.divide(columns, norms, order="C")


def _scaled_norms(columns: np.ndarray):
    """``columns`` times 2**-e vector by vector, their norms
    sqrt(row_sums(columns * columns)) over the leading (feature) axis, and e
    (None if no vector is scaled): 0 unless a nonzero vector's plain sum of
    squares is not a normal float (inf, 0 or subnormal), then the exponent
    of its largest |entry|."""
    with np.errstate(over="ignore"):
        squares = row_sums(columns * columns)
    small = squares < _TINY
    if squares.max(initial=0.0) < np.inf and not (small.any() and columns[:, small].any()):
        return columns, np.sqrt(squares), None  # every sum is normal or of a zero vector
    odd = small | (squares == np.inf)
    exponents = np.zeros(squares.shape, dtype=np.intc)
    exponents[odd] = np.frexp(np.max(np.abs(columns[:, odd]), axis=0))[1]
    columns = np.ldexp(columns, -exponents)
    return columns, np.sqrt(row_sums(columns * columns)), exponents


def distance_from_p0(p0):
    """Distance implied by an ancilla-zero probability; the overlap
    |<x|y>|^2 = 2*p0 - 1 is clipped into [0, 1] first."""
    return np.sqrt(2.0 - 2.0 * np.sqrt(np.clip(2.0 * p0 - 1.0, 0.0, 1.0)))


def quantum_distance(x: np.ndarray, y: np.ndarray, shots: int | None = None, seed: int = 0) -> float:
    """Distance between two raw vectors: one request to ``estimate_distances``.

    ``shots=None`` reads the exact ancilla marginal; an integer samples it
    as request 0 of the batch: output 0 of the SplitMix64 stream keyed by
    ``derive_seed(seed)`` gives a uniform u, and the count of ones is the
    exact Bin(shots, p1) quantile at u.
    """
    config = BatchConfig(seed=seed) if shots is None else BatchConfig(shots_per_circuit=shots, seed=seed)
    dists, _ = estimate_distances([DistanceRequest(x, y)], config, sampled=shots is not None)
    return float(dists[0])


def _request_uniforms(key: int, request_indices: np.ndarray) -> np.ndarray:
    """Output ``request_indices`` of the SplitMix64 stream seeded with ``key``,
    as doubles strictly inside (0, 1): the top 52 bits plus half a step, so
    the extremes are 2**-53 and 1 - 2**-53."""
    z = (np.asarray(request_indices, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def _binomial_quantile(shots: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest k in [0, shots] with P(Bin(shots, p) <= k) >= u, elementwise.

    The tails are ``bdtr``'s incomplete-beta forms, evaluated with
    ``betainc`` (``bdtr`` errs by ~1e-9 at 2**20 shots, nan from 2**31):
    P(X > k) = I_p(k+1, n-k) <= 1 - u from u = 1/2 up, where a CDF would
    round to 1.0, and P(X <= k) = I_{1-p}(n-k, k+1) >= u below, reading
    1 - p (p moves by at most 2**-54).  One ``betainc`` call tests a
    Cornish-Fisher guess and the count below it, which settles every entry
    whose guess is the quantile; a loop then steps each miss up or down by
    one, one ``betainc`` call per step.  Each result depends on its own
    (p, u) alone.
    """
    from scipy.special import betainc, ndtri  # local: only sampled calls load SciPy

    n = float(shots)
    upper = u >= 0.5
    x = np.where(upper, p, 1.0 - p)

    def reached(k: np.ndarray, sel) -> np.ndarray:
        # P(X <= k) >= u for the entries sel; k == shots always qualifies
        up, above, rest = upper[sel], k + 1.0, n - k
        swap = up * (above - rest)  # exact: whole numbers within 2**53
        t = betainc(rest + swap, above - swap, x[sel])
        return (up & (t <= 1.0 - u[sel])) | (~up & (t >= u[sel])) | (k == n)

    z = ndtri(u)
    mean = n * p
    guess = mean + np.sqrt(mean * (1.0 - p)) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    k = np.floor(guess + 0.5).clip(0.0, n)
    # One betainc call tests each guess and the count below it (at a guess of
    # 0, the guess again), as two rows: a guess reached where the count below
    # is not is the quantile.
    ok, below = reached(np.maximum(k - [[0.0], [1.0]], 0.0), slice(None))
    down = ok & below & (k > 0.0)
    k[down] -= 1.0
    # Each pass tries k + 1 on every guess short of u and k - 1 on every
    # request whose count below was reached, in one betainc call: a step up
    # is always taken, a step down only where P(X <= k - 1) >= u.
    pending = np.flatnonzero(~ok | (down & (k > 0.0)))
    rising = ~ok[pending]
    while pending.size:
        trial = k[pending] + np.where(rising, 1.0, -1.0)
        hit = reached(trial, pending)
        k[pending[rising | hit]] = trial[rising | hit]
        more = (hit != rising) & (trial > 0.0)
        pending, rising = pending[more], rising[more]
    return k


def _count_brackets(shots: int, p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= min(k, m) <= hi on each ``_binomial_quantile(shots, p, u)``
    count k, m = ceil(shots/2): from shots/2 up every count gives distance
    sqrt(2), and below it (at any shots < 2**51) the computed distance
    rises strictly with k.  Bernstein's inequality bounds P(X <= np - t) and
    P(X >= np + t) by exp(-L) for t = L/3 + sqrt(L**2/9 + 2 np(1 - p) L), so
    k lies in (np - t, np + t] for L = ln(1/u) below and ln(1/(1 - u)) above.
    L is raised by 2a, a = 2**-32 + n 2**-48: tails off by a relative a (an
    allowance for ``betainc``, whose worst measured error with SciPy 1.17
    was a/90, at 2**20 shots) give the exact quantile at a u that far off
    in L while a <= 1/4.  One count each side covers rounding, under 0.6
    counts with the 2**-54 that reading 1 - p moves p.  From about 2**46
    shots a > 1/4 and every bracket is [0, m].
    """
    n, m = float(shots), float((shots + 1) // 2)
    a = 2.0**-32 + n * 2.0**-48
    if a > 0.25:
        return np.zeros_like(p), np.full_like(p, m)
    mean = n * p
    L = np.empty((2, *p.shape))  # below, above
    np.log(u, out=L[0])
    np.log1p(-u, out=L[1])
    L = 2.0 * a - L
    t = L / 3.0 + np.sqrt(L * (L / 9.0 + 2.0 * mean * (1.0 - p)))
    return np.floor(mean - t[0]).clip(0.0, m), np.minimum(np.ceil(mean + t[1]) + 1.0, m)


class _SampledCounts:
    """One sampled call's counts of ones at ``shots`` shots clipped at m,
    request i at index i drawing from the stream of ``derive_seed(seed)``,
    bracketed up front (``_count_brackets``) and inverted where read; ``lo``
    meets ``hi`` once a count is known.  They rank as their distances do."""

    def __init__(self, overlap: np.ndarray, shots: int, seed: int) -> None:
        try:  # every sampled call needs SciPy, whether or not it inverts a count
            import scipy.special  # noqa: F401
        except ImportError:
            raise ConfigError("sampled mode needs SciPy, which is not installed") from None
        self.shots, self.m = shots, float((shots + 1) // 2)
        self.p1 = (0.5 - 0.5 * np.ravel(overlap) ** 2).clip(0.0, 1.0)
        self.u = _request_uniforms(derive_seed(seed), np.arange(self.p1.size))
        self.lo, self.hi = _count_brackets(self.shots, self.p1, self.u)

    def counts(self, requests: np.ndarray) -> np.ndarray:
        """The requests' counts clipped at m; inverts every count not yet known."""
        unknown = requests[self.lo[requests] != self.hi[requests]]
        if unknown.size:
            count = _binomial_quantile(self.shots, self.p1[unknown], self.u[unknown])
            self.lo[unknown] = self.hi[unknown] = np.minimum(count, self.m)
        return self.lo[requests]


def _distances(overlap: np.ndarray, config: BatchConfig, sampled: bool) -> np.ndarray:
    """Distances from one executor call's overlaps, in their shape, request i at
    flat index i: the exact p0 = 1/2 + <x|y>**2/2, or each request's count."""
    if sampled:
        shots = config.shots_per_circuit
        counts = _SampledCounts(overlap, shots, config.seed).counts(np.arange(overlap.size))
        return distance_from_p0((shots - counts.reshape(overlap.shape)) / shots)
    return distance_from_p0(0.5 + 0.5 * overlap**2)


def estimate_distances(requests: Sequence[DistanceRequest], config: BatchConfig | None = None,
                       sampled: bool = False) -> tuple[np.ndarray, BatchStats]:
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
        enc_left, enc_right = encode_matrix(np.stack(lefts)).T, encode_matrix(np.stack(rights)).T
        overlap[list(idx)] = row_sums(enc_left * enc_right)
        jobs += -(-len(idx) // config.max_circuits_per_job)
    stats = BatchStats(jobs_submitted=jobs, circuits_executed=len(requests))
    return _distances(overlap, config, sampled), stats


def _overlaps(unit_points, unit_centers, config: BatchConfig) -> tuple[np.ndarray, BatchStats]:
    """The (K, N) overlaps <x|y> of N unit columns with K unit columns
    (transposed ``encode_matrix`` rows), and their stats: one circuit per
    request, ceil(N*K/C) jobs.  (F, K, points) products are formed in capped
    blocks of points, and ``row_sums`` adds them over F."""
    (f, n_pts), k = unit_points.shape, unit_centers.shape[1]
    overlap = np.empty((k, n_pts), dtype=np.float64)
    step = max(1, _BLOCK_PRODUCTS // max(1, k * f))
    centers = unit_centers[:, :, None]
    for start in range(0, n_pts, step):
        points = slice(start, start + step)
        # passed as a temporary, so the tree frees the products after its first level
        overlap[:, points] = row_sums(unit_points[:, None, points] * centers)
    return overlap, BatchStats(-(-n_pts * k // config.max_circuits_per_job), n_pts * k)


def distance_matrix(points: np.ndarray, centers: np.ndarray, config: BatchConfig | None = None,
                    sampled: bool = False) -> tuple[np.ndarray, BatchStats]:
    """All point-to-center distances as an (N, K) matrix.

    Equivalent to ``estimate_distances`` over the row-major list of
    (point i, center k) requests, including per-request sampling streams.
    """
    config = config or BatchConfig()
    unit_points, unit_centers = encode_matrix(points).T, encode_matrix(centers).T
    if unit_points.shape[0] != unit_centers.shape[0]:
        raise DataError("points and centers must have matching feature counts")
    overlap, stats = _overlaps(unit_points, unit_centers, config)
    return _distances(overlap.T, config, sampled), stats
