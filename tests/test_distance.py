"""SwapTest distance and batched-executor tests."""

from __future__ import annotations

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from conftest import register_amplitudes
from qkmeans import distance
from qkmeans.clustering import _nearest, _nearest_rows, qkmeans_plusplus_init
from qkmeans.dataset import DataSet
from qkmeans.distance import (
    _BLOCK_PRODUCTS,
    BatchConfig,
    BatchStats,
    DistanceRequest,
    _binomial_quantile,
    _count_brackets,
    _overlaps,
    _request_uniforms,
    distance_from_p0,
    distance_matrix,
    encode_matrix,
    estimate_distances,
    quantum_distance,
)
from qkmeans.errors import ConfigError
from qkmeans.simulator import (
    batch_cswap,
    batch_ground,
    batch_h,
    batch_marginal,
    batch_prepare,
    derive_seed,
    row_sums,
)

vectors = st.lists(
    st.floats(-50.0, 50.0).filter(lambda v: abs(v) > 1e-3),
    min_size=1,
    max_size=8,
)


@st.composite
def mixed_requests(draw):
    """(rng seed, feature lengths in 1..9, job size C in 1..R+1) for a list
    of R requests of mixed feature lengths."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=40))
    return draw(st.integers(0, 2**32 - 1)), lengths, draw(st.integers(1, len(lengths) + 1))


@st.composite
def matrix_shapes(draw):
    """(rng seed, N, K, F in 1..9, job size C in 1..N*K+1) for a
    ``distance_matrix`` call."""
    n, k, f = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    return draw(st.integers(0, 2**32 - 1)), n, k, f, draw(st.integers(1, n * k + 1))


def oracle_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Inner-product form of the metric, computed without any circuit."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    overlap = abs(xv @ yv) / (np.linalg.norm(xv) * np.linalg.norm(yv))
    return float(np.sqrt(2.0 - 2.0 * overlap))


def reference_swap_test(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """The documented SwapTest layout run gate by gate on the simulator's
    batch kernels: ancilla 0, left on 1..m, right on m+1..2m.  Returns the
    final (1, 2**n) state and n."""
    enc = register_amplitudes(np.stack([x, y]))
    m = enc.shape[1].bit_length() - 1
    n = 1 + 2 * m
    amps = batch_ground(1, n)
    batch_prepare(amps, n, tuple(range(1, m + 1)), enc[0])
    batch_prepare(amps, n, tuple(range(m + 1, 2 * m + 1)), enc[1])
    batch_h(amps, n, 0)
    for i in range(m):
        batch_cswap(amps, n, 0, 1 + i, 1 + m + i)
    batch_h(amps, n, 0)
    return amps, n


class TestSwapTestCircuit:
    def test_known_p0_for_plus_state_pair(self):
        # |0> against (|0>+|1>)/sqrt(2): overlap^2 = 1/2 so p0 = 3/4.
        d = quantum_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(float(distance_from_p0(0.75)), abs=1e-12)

    def test_rejects_mixed_register_sizes(self):
        with pytest.raises(ValueError):
            quantum_distance(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    def test_state_norm(self):
        amps, _ = reference_swap_test(np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.3, 4.0]))
        assert abs(np.linalg.norm(amps[0]) - 1.0) < 1e-9

    @pytest.mark.parametrize("features", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    @given(st.data())
    def test_closed_form_matches_gate_level_circuit(self, features, data):
        # F in 1..8 covers m = 1..3 and the padded sizes 3, 5, 6, 7; F = 16 is m = 4
        row = st.lists(st.floats(-50.0, 50.0), min_size=features, max_size=features).filter(
            lambda v: max(abs(c) for c in v) > 1e-3
        )
        x, y = np.array(data.draw(row)), np.array(data.draw(row))
        amps, n = reference_swap_test(x, y)
        ref_p0 = float(batch_marginal(amps, n, 0, 0)[0])
        d = float(estimate_distances([DistanceRequest(x, y)])[0][0])
        p0 = 0.5 + 0.5 * (1.0 - 0.5 * d * d) ** 2  # |<x|y>| = 1 - d^2/2
        assert abs(p0 - ref_p0) <= 1e-12
        # The distance takes two square roots of p0, so where the overlap is
        # 0 or 1 it turns last-bit p0 differences into ~1e-8; compare it
        # where that amplification stays below 1e3.
        if 0.5 + 1e-6 <= ref_p0 <= 1.0 - 1e-6:
            assert abs(d - float(distance_from_p0(ref_p0))) <= 1e-12


class TestScalarDistance:
    def test_matches_inner_product_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            d = quantum_distance(x, y)
            assert d == pytest.approx(oracle_distance(x, y), abs=1e-9)

    def test_known_value_for_orthogonal_pair(self):
        d = quantum_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-7)

    def test_known_value_for_plus_pair(self):
        d = quantum_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2.0 - np.sqrt(2.0)), abs=1e-9)

    def test_identical_vectors_give_zero(self):
        v = np.array([0.2, -1.4, 3.3])
        assert quantum_distance(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_sampled_mode_is_deterministic(self):
        x = np.array([1.0, 0.0])
        y = np.array([1.0, 1.0])
        a = quantum_distance(x, y, shots=512, seed=9)
        b = quantum_distance(x, y, shots=512, seed=9)
        assert a == b
        assert a != quantum_distance(x, y, shots=512, seed=10)

    def test_sampled_mode_converges(self):
        x = np.array([1.0, 0.0])
        y = np.array([1.0, 1.0])
        d = quantum_distance(x, y, shots=200_000, seed=4)
        assert d == pytest.approx(oracle_distance(x, y), abs=0.01)

    @given(vectors, vectors, st.booleans())
    def test_distance_stays_in_range(self, xs, ys, sampled):
        size = min(len(xs), len(ys))
        x = np.array(xs[:size])
        y = np.array(ys[:size])
        d = quantum_distance(x, y, shots=64 if sampled else None, seed=1)
        assert 0.0 <= d <= math.sqrt(2.0) + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        assert quantum_distance(x, y) == pytest.approx(
            quantum_distance(y, x), abs=1e-12
        )


class TestConversions:
    def test_overlap_squared_clips(self):
        # |<x|y>|^2 = 2*p0 - 1 is clipped into [0, 1] before the square root
        assert distance_from_p0(0.3) == distance_from_p0(0.5)
        assert distance_from_p0(1.2) == 0.0
        assert distance_from_p0(0.75) == pytest.approx(math.sqrt(2.0 - 2.0 * math.sqrt(0.5)))

    def test_distance_from_p0_endpoints(self):
        assert distance_from_p0(1.0) == 0.0
        assert distance_from_p0(0.5) == pytest.approx(math.sqrt(2.0))


class TestBatchedExecutor:
    def test_matches_single_circuit_exactly(self):
        rng = np.random.default_rng(2)
        requests = [
            DistanceRequest(rng.normal(size=3), rng.normal(size=3))
            for _ in range(25)
        ]
        dists, stats = estimate_distances(requests, BatchConfig(max_circuits_per_job=7))
        singles = np.array([quantum_distance(r.left, r.right) for r in requests])
        np.testing.assert_array_equal(dists, singles)
        assert stats.jobs_submitted == 4  # ceil(25 / 7)
        assert stats.circuits_executed == 25

    @given(
        vectors,
        vectors,
        st.integers(1, 4096),
        st.integers(0, 2**63 - 1),
    )
    def test_matches_single_circuit_sampled(self, xs, ys, shots, seed):
        # one sampler: the scalar call is request 0 of a one-request batch
        size = min(len(xs), len(ys))
        x = np.array(xs[:size])
        y = np.array(ys[:size])
        config = BatchConfig(shots_per_circuit=shots, seed=seed)
        dists, _ = estimate_distances([DistanceRequest(x, y)], config, sampled=True)
        assert quantum_distance(x, y, shots=shots, seed=seed) == dists[0]

    def test_results_independent_of_job_size(self):
        rng = np.random.default_rng(4)
        requests = [
            DistanceRequest(rng.normal(size=5), rng.normal(size=5))
            for _ in range(30)
        ]
        small, _ = estimate_distances(requests, BatchConfig(max_circuits_per_job=1))
        large, _ = estimate_distances(requests, BatchConfig(max_circuits_per_job=900))
        np.testing.assert_array_equal(small, large)

    @given(mixed_requests(), st.integers(1, 4096), st.integers(0, 2**63 - 1))
    @example(case=(5, [2] * 20, 3), shots=1024, seed=7)
    @example(case=(5, [2] * 20, 19), shots=1024, seed=7)
    def test_results_independent_of_job_size_sampled(self, case, shots, seed):
        rng_seed, lengths, c = case
        rng = np.random.default_rng(rng_seed)
        requests = [DistanceRequest(rng.normal(size=f), rng.normal(size=f)) for f in lengths]
        a, stats = estimate_distances(
            requests, BatchConfig(max_circuits_per_job=c, shots_per_circuit=shots, seed=seed),
            sampled=True,
        )
        one_job = BatchConfig(max_circuits_per_job=len(lengths), shots_per_circuit=shots, seed=seed)
        b, _ = estimate_distances(requests, one_job, sampled=True)
        np.testing.assert_array_equal(a, b)
        groups = np.unique(lengths, return_counts=True)[1]
        assert stats.jobs_submitted == sum(-(-int(g) // c) for g in groups)
        assert stats.circuits_executed == len(lengths)

    def test_mixed_groups_keep_request_order(self):
        rng = np.random.default_rng(6)
        requests = [
            DistanceRequest(rng.normal(size=2), rng.normal(size=2)),
            DistanceRequest(rng.normal(size=6), rng.normal(size=6)),
            DistanceRequest(rng.normal(size=3), rng.normal(size=3)),
            DistanceRequest(rng.normal(size=2), rng.normal(size=2)),
            DistanceRequest(rng.normal(size=6), rng.normal(size=6)),
        ]
        dists, stats = estimate_distances(requests)
        for i, r in enumerate(requests):
            assert dists[i] == quantum_distance(r.left, r.right)
        # three distinct feature lengths, each one job
        assert stats.jobs_submitted == 3
        assert stats.circuits_executed == 5

    def test_mixed_group_job_accounting(self):
        rng = np.random.default_rng(7)
        requests = [
            DistanceRequest(rng.normal(size=2), rng.normal(size=2)) for _ in range(5)
        ] + [
            DistanceRequest(rng.normal(size=3), rng.normal(size=3)) for _ in range(3)
        ]
        _, stats = estimate_distances(requests, BatchConfig(max_circuits_per_job=2))
        assert stats.jobs_submitted == 3 + 2  # ceil(5/2) + ceil(3/2)

    def test_appending_requests_leaves_earlier_results_alone(self):
        # sampled seeds are a function of (config.seed, request index), so a
        # longer request list reproduces the shorter list's results exactly
        rng = np.random.default_rng(8)
        base = [
            DistanceRequest(rng.normal(size=3), rng.normal(size=3)) for _ in range(6)
        ]
        extra = base + [DistanceRequest(rng.normal(size=3), rng.normal(size=3))]
        config = BatchConfig(shots_per_circuit=128, seed=21)
        short, _ = estimate_distances(base, config, sampled=True)
        long, _ = estimate_distances(extra, config, sampled=True)
        np.testing.assert_array_equal(short, long[:6])

    def test_rejects_mismatched_pair(self):
        with pytest.raises(ValueError):
            estimate_distances(
                [DistanceRequest(np.ones(2), np.ones(3))], BatchConfig()
            )


# The extremes of the uniform mapping ((bits >> 12) + 0.5) * 2**-52.
U_MIN = 2.0**-53
U_MAX = 1.0 - 2.0**-53

probabilities = st.one_of(st.sampled_from([0.0, 1.0, 1e-12]), st.floats(0.0, 1.0))
uniforms = st.one_of(st.sampled_from([U_MIN, U_MAX, 0.5]), st.floats(U_MIN, U_MAX))


def reaches(shots: int, p: np.ndarray, u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """P(Bin(shots, p) <= k) >= u as scipy.stats evaluates it: from u = 1/2 up
    through the upper tail, P(X > k) <= 1 - u, because the CDF rounds to 1.0
    near the top."""
    return np.where(u < 0.5, stats.binom.cdf(k, shots, p) >= u, stats.binom.sf(k, shots, p) <= 1.0 - u)


class TestShotSampler:
    @settings(max_examples=300)
    @given(
        st.sampled_from([1, 7, 128, 8192, 2**20]),
        st.lists(st.tuples(probabilities, uniforms), min_size=1, max_size=40),
    )
    def test_inversion_matches_scipy_quantile(self, shots, pairs):
        p, u = (np.array(column) for column in zip(*pairs))
        k = _binomial_quantile(shots, p, u)
        # k is the smallest count whose CDF reaches u
        assert np.all(reaches(shots, p, u, k))
        assert np.all((k == 0) | ~reaches(shots, p, u, k - 1))
        # binom.ppf is the same quantile wherever it meets that definition; its
        # root search misses at the extremes (u = 1 - 2**-53, p = 1e-12 at 128
        # shots gives 2 where P(X > 1) = 8e-21 <= 2**-53)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = stats.binom.ppf(u, shots, p)
        sound = reaches(shots, p, u, ref) & ((ref == 0) | ~reaches(shots, p, u, ref - 1))
        np.testing.assert_array_equal(k[sound], ref[sound])

    def test_uniforms_lie_strictly_inside_unit_interval(self):
        for key in (0, 1, 2**64 - 1):
            u = _request_uniforms(key, np.arange(200_000))
            assert U_MIN <= u.min() and u.max() <= U_MAX
            # a grid of odd multiples of 2**-53: the top 52 bits plus half a step
            assert np.all(np.mod(u * 2.0**53, 2.0) == 1.0)

    @pytest.mark.parametrize("shots", [1, 64, 8192])
    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.5, 1.0])
    def test_counts_follow_binomial_pmf(self, shots, p):
        draws = 20_000
        counts = _binomial_quantile(
            shots, np.full(draws, p), _request_uniforms(derive_seed(2024), np.arange(draws))
        ).astype(np.int64)
        expected = draws * stats.binom.pmf(np.arange(shots + 1), shots, p)
        observed = np.bincount(counts, minlength=shots + 1)
        # merge neighbouring counts until every bin expects at least 5 draws
        edges, acc = [0], 0.0
        for k, e in enumerate(expected):
            acc += e
            if acc >= 5.0:
                edges.append(k + 1)
                acc = 0.0
        edges[-1] = shots + 1
        if len(edges) > 2:
            exp_bins = np.add.reduceat(expected, edges[:-1])
            obs_bins = np.add.reduceat(observed, edges[:-1])
            pvalue = stats.chisquare(obs_bins, exp_bins * draws / exp_bins.sum()).pvalue
        else:
            # one bin holds nearly all the mass: test how often a draw leaves the mode
            mode = int(np.argmax(expected))
            off_mass = max(1.0 - expected[mode] / draws, 0.0)
            pvalue = stats.binomtest(int(np.count_nonzero(counts != mode)), draws, off_mass).pvalue
        assert pvalue >= 1e-4

    def test_request_ignores_every_other_request(self):
        rng = np.random.default_rng(14)
        base = [DistanceRequest(rng.normal(size=3), rng.normal(size=3)) for _ in range(12)]
        config = BatchConfig(max_circuits_per_job=5, shots_per_circuit=256, seed=31)
        reference, _ = estimate_distances(base, config, sampled=True)
        for i in range(len(base)):
            replaced = [
                req if j == i else DistanceRequest(rng.normal(size=3), rng.normal(size=3))
                for j, req in enumerate(base)
            ]
            dists, _ = estimate_distances(replaced, config, sampled=True)
            assert dists[i] == reference[i]


def cornish_fisher_guess(shots: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The continuity-corrected Cornish-Fisher guess that every inversion
    starts from, clipped to [0, shots]."""
    from scipy.special import ndtri

    n, z = float(shots), ndtri(u)
    mean = n * p
    guess = mean + np.sqrt(mean * (1.0 - p)) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    return np.clip(np.floor(guess + 0.5), 0.0, n)


def reference_binomial_quantile(shots: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A ``_binomial_quantile`` that walks up, then down, one ``betainc``
    call per step, kept as the reference that the one-loop inversion must
    match count for count."""
    from scipy.special import betainc

    n = float(shots)
    upper = u >= 0.5

    def reached(k: np.ndarray, sel: np.ndarray) -> np.ndarray:
        # P(X <= k) >= u for the entries sel; k == shots always qualifies.
        out = np.ones(sel.size, dtype=bool)
        inner = k < n
        hi = np.flatnonzero(inner & upper[sel])
        out[hi] = betainc(k[hi] + 1.0, n - k[hi], p[sel[hi]]) <= 1.0 - u[sel[hi]]
        lo = np.flatnonzero(inner & ~upper[sel])
        out[lo] = betainc(n - k[lo], k[lo] + 1.0, 1.0 - p[sel[lo]]) >= u[sel[lo]]
        return out

    k = cornish_fisher_guess(shots, p, u)
    ok = reached(k, np.arange(k.size))
    pending = np.flatnonzero(~ok)
    while pending.size:
        k[pending] += 1.0
        pending = pending[~reached(k[pending], pending)]
    pending = np.flatnonzero(ok & (k > 0.0))
    while pending.size:
        pending = pending[reached(k[pending] - 1.0, pending)]
        k[pending] -= 1.0
        pending = pending[k[pending] > 0.0]
    return k


def betainc_call_sizes(monkeypatch) -> list[int]:
    """Patch ``scipy.special.betainc`` to record each call's element count."""
    import scipy.special

    real, sizes = scipy.special.betainc, []

    def betainc(*args):
        out = real(*args)
        sizes.append(int(np.size(out)))
        return out

    monkeypatch.setattr(scipy.special, "betainc", betainc)
    return sizes


def quantile_call_sizes(monkeypatch) -> list[int]:
    """Patch ``distance._binomial_quantile`` to record each call's request count."""
    real, sizes = distance._binomial_quantile, []

    def binomial_quantile(shots, p, u):
        sizes.append(int(np.size(p)))
        return real(shots, p, u)

    monkeypatch.setattr(distance, "_binomial_quantile", binomial_quantile)
    return sizes


screen_probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-12, 0.5, 1.0 - 1e-12]), st.floats(0.0, 1.0)
)


EDGE_PAIRS = [(p, u) for p in (0.0, 2.0**-60, 1.0) for u in (U_MIN, 0.5, U_MAX)]


class TestScreenedInversion:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 7, 128, 1024, 8192, 2**20, 2**31, 2**53]),
        st.lists(st.tuples(screen_probabilities, uniforms), min_size=1, max_size=30),
    )
    @example(1, EDGE_PAIRS)
    @example(2, EDGE_PAIRS)
    @example(2**20, EDGE_PAIRS)
    def test_counts_match_the_reference_bit_for_bit(self, shots, pairs):
        p, u = (np.array(column) for column in zip(*pairs))
        k = _binomial_quantile(shots, p, u)
        assert k.tobytes() == reference_binomial_quantile(shots, p, u).tobytes()

    @pytest.mark.parametrize("shots", [7, 128, 1024, 8192, 2**20, 2**31])
    def test_u_a_few_ulps_from_the_tail_below_runs_the_exact_step(self, shots, monkeypatch):
        from scipy.special import betainc

        rng = np.random.default_rng(shots)
        size = 400
        p, u = rng.uniform(0.0, 1.0, size), rng.uniform(U_MIN, U_MAX, size)
        k = reference_binomial_quantile(shots, p, u)
        inner, lower = (k > 0.0) & (k < shots), u < 0.5
        # the tail at k - 1 that the reference's step down compares u (lower
        # half) or 1 - u (upper half) with, and u moved to within 3 ulps of it
        below = np.where(lower, betainc(shots - k + 1.0, k, 1.0 - p), betainc(k, shots - k + 1.0, p))
        offsets = rng.integers(-3, 4, size)
        near = np.where(lower, below + offsets * np.spacing(below), (1.0 - below) + offsets * 2.0**-53)
        placed = inner & (near >= U_MIN) & (near <= U_MAX) & ((near < 0.5) == lower)
        u = np.where(placed, near, u)
        sizes = betainc_call_sizes(monkeypatch)
        k = _binomial_quantile(shots, p, u)
        assert k.tobytes() == reference_binomial_quantile(shots, p, u).tobytes()
        # most placed entries take a second betainc, at k - 1 (the guess of
        # the others moved with u)
        assert placed.sum() >= size // 4
        assert sum(sizes) - size >= placed.sum() // 2


class TestInversionAccounting:
    """What the sampler pays for: ``betainc`` calls per inversion, and which
    requests a farthest-point round inverts."""

    @pytest.mark.parametrize("shots", [7, 1024, 8192, 2**20])
    def test_right_guesses_take_one_betainc_call(self, shots, monkeypatch):
        rng = np.random.default_rng(shots)
        p, u = rng.uniform(0.0, 1.0, 400), rng.uniform(U_MIN, U_MAX, 400)
        right = cornish_fisher_guess(shots, p, u) == reference_binomial_quantile(shots, p, u)
        assert right.mean() > 0.9
        p, u = p[right], u[right]
        sizes = betainc_call_sizes(monkeypatch)
        k = _binomial_quantile(shots, p, u)
        assert len(sizes) == 1  # the guess and the count below it, together
        assert k.tobytes() == reference_binomial_quantile(shots, p, u).tobytes()

    def test_only_missed_guesses_step_on(self, monkeypatch):
        # at 7 shots the guess misses by one, up and down, for a few percent
        rng = np.random.default_rng(11)
        p, u = rng.uniform(0.0, 1.0, 2000), rng.uniform(U_MIN, U_MAX, 2000)
        k, guess = reference_binomial_quantile(7, p, u), cornish_fisher_guess(7, p, u)
        missed = guess != k
        assert (guess > k).any() and (guess < k).any()
        sizes = betainc_call_sizes(monkeypatch)
        assert _binomial_quantile(7, p, u).tobytes() == k.tobytes()
        # the first call holds each guess and the count below it
        assert sizes[0] == 2 * p.size and len(sizes) > 1
        assert all(size <= missed.sum() for size in sizes[1:])

    def test_a_lone_farthest_candidate_is_not_inverted(self, monkeypatch):
        """Points within 0.2 rad of (1, 0) and one point at (0, 1): once the
        first center is one of the near points, only (0, 1) can be farthest,
        and the round returns it without inverting a count."""
        angles = np.random.default_rng(4).uniform(-0.2, 0.2, 30)
        points = np.vstack([[0.0, 1.0], np.stack([np.cos(angles), np.sin(angles)], axis=1)])
        X = DataSet(points, np.zeros(len(points), dtype=np.int64))
        seed = 3
        assert int(np.random.default_rng(seed).integers(len(points))) != 0
        inverted, sizes = quantile_call_sizes(monkeypatch), betainc_call_sizes(monkeypatch)
        batch = BatchConfig(shots_per_circuit=8192, seed=9)
        centers = qkmeans_plusplus_init(X, 2, "quantum_sampled", seed, batch)
        assert inverted == [] and sizes == []
        np.testing.assert_array_equal(centers[1], [0.0, 1.0])

    @pytest.mark.parametrize("k", [3, 4])
    def test_init_rounds_invert_exactly_the_points_in_doubt(self, k, monkeypatch):
        """Init round r bounds each point's least count over rounds 1..r by
        the least of those rounds' bounds (brackets, or counts once inverted).
        It inverts, round by round, the counts not yet known of the points
        whose least upper bound reaches the best least lower bound, and
        nothing when one point is left."""
        points = np.random.default_rng(21).normal(size=(300, 2))
        X = DataSet(points, np.zeros(len(points), dtype=np.int64))
        batch = BatchConfig(shots_per_circuit=1024, seed=6)
        inverted = quantile_call_sizes(monkeypatch)
        centers = qkmeans_plusplus_init(X, k, "quantum_sampled", seed=2, batch=batch)
        chosen = [int(np.flatnonzero((points == center).all(axis=1))[0]) for center in centers]
        unit = encode_matrix(points).T
        rounds, expected, doubts = [], [], []
        for r in range(1, k):
            overlap = _overlaps(unit, unit[:, chosen[r - 1:r]], batch)[0].ravel()
            p1 = np.clip(0.5 - 0.5 * overlap**2, 0.0, 1.0)
            u = _request_uniforms(derive_seed(derive_seed(batch.seed, 0, r)), np.arange(p1.size))
            rounds.append((p1, u, *_count_brackets(1024, p1, u)))
            low = np.min([lo for _, _, lo, _ in rounds], axis=0)
            high = np.min([hi for _, _, _, hi in rounds], axis=0)
            low[chosen[:r]] = high[chosen[:r]] = -1.0
            doubt = np.flatnonzero(high >= low.max())
            doubts.append(doubt.size)
            if doubt.size > 1:
                for p1, u, lo, hi in rounds:
                    unknown = doubt[lo[doubt] != hi[doubt]]
                    if unknown.size:
                        expected.append(unknown.size)
                        count = _binomial_quantile(1024, p1[unknown], u[unknown])
                        lo[unknown] = hi[unknown] = np.minimum(count, 512)
        assert doubts[1] > 1  # round 2 reads the counts of both rounds
        assert inverted == expected


SHOT_GRID = [1, 7, 128, 1024, 8192, 2**20, 2**31, 2**53]


def sampled_requests(points, centers, config):
    """(p1, u) of the row-major (point, center) requests of one sampled
    ``distance_matrix`` call, formed as the executor forms them."""
    overlap = _overlaps(encode_matrix(points).T, encode_matrix(centers).T, config)[0].T
    p1 = np.clip(0.5 - 0.5 * overlap.ravel() ** 2, 0.0, 1.0)
    return p1, _request_uniforms(derive_seed(config.seed), np.arange(p1.size))


class TestCountBrackets:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(SHOT_GRID),
        st.lists(st.tuples(screen_probabilities, uniforms), min_size=1, max_size=30),
    )
    def test_brackets_hold_the_inverted_count(self, shots, pairs):
        p, u = (np.array(column) for column in zip(*pairs))
        lo, hi = _count_brackets(shots, p, u)
        clipped = np.minimum(_binomial_quantile(shots, p, u), (shots + 1) // 2)
        assert np.all((lo <= clipped) & (clipped <= hi))
        if shots >= 2**46:  # beyond the betainc allowance every bracket is open
            assert np.all(lo == 0.0) and np.all(hi == (shots + 1) // 2)

    @given(st.sampled_from(SHOT_GRID[:-1] + [2**46 - 2**16]), st.floats(0.0, 1.0))
    def test_distance_rises_strictly_with_the_clipped_count(self, shots, where):
        m = (shots + 1) // 2
        k = np.array([0.0, m - 1.0, m, shots]) if shots > 1 else np.array([0.0, 1.0])
        k = np.unique(np.append(k, np.floor(where * (m - 1))))
        d = distance_from_p0((shots - k) / shots)
        below = k < m
        assert np.all(np.diff(d[below]) > 0.0) and np.all(d[~below] == np.sqrt(2.0))
        assert np.all(d[below] < np.sqrt(2.0))

    def test_inverts_k_requests_per_point_in_doubt(self, monkeypatch):
        """A seeded K = 2 step at 8192 shots: one ``_binomial_quantile`` call
        inverts both requests of every point whose brackets leave its label
        open, and no request of a point they settle."""
        rng = np.random.default_rng(8192)
        points, centers = rng.normal(size=(400, 2)), rng.normal(size=(2, 2))
        config = BatchConfig(shots_per_circuit=8192, seed=5)
        brackets = _count_brackets(8192, *sampled_requests(points, centers, config))
        lo, hi = (bound.reshape(-1, 2) for bound in brackets)
        # label 0 wins ties with 1; label 1 must be surely below 0
        doubt = ~((hi[:, 0] <= lo[:, 1]) | (hi[:, 1] < lo[:, 0]))
        assert 0 < doubt.sum() < 40
        inverted = quantile_call_sizes(monkeypatch)
        labels, stats, _ = _nearest(encode_matrix(points).T, centers.T, "quantum_sampled", config,
                                    lambda: config.seed)
        assert inverted == [2 * doubt.sum()]
        full, full_stats = distance_matrix(points, centers, config, sampled=True)
        np.testing.assert_array_equal(labels, np.argmin(full, axis=1))
        assert stats == full_stats == BatchStats(jobs_submitted=1, circuits_executed=800)

    def test_no_inversion_when_every_point_is_settled(self, monkeypatch):
        angles = np.random.default_rng(3).uniform(-0.3, 0.3, 200) + np.repeat([0.0, np.pi / 2], 100)
        points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        sizes = betainc_call_sizes(monkeypatch)
        config = BatchConfig(shots_per_circuit=8192, seed=5)
        labels, _, _ = _nearest(encode_matrix(points).T, np.eye(2), "quantum_sampled", config,
                                lambda: config.seed)
        assert sizes == []
        np.testing.assert_array_equal(labels, np.repeat([0, 1], 100))

    def test_sampled_calls_without_scipy_raise_config_error(self, monkeypatch):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        # the first call would settle every label without an inversion
        for call in (lambda: _nearest(encode_matrix(points).T, np.eye(2), "quantum_sampled", BatchConfig(),
                                      lambda: 0),
                     lambda: distance_matrix(points, np.eye(2), sampled=True),
                     lambda: quantum_distance(points[0], points[1], shots=64)):
            with pytest.raises(ConfigError, match="SciPy"):
                call()
        assert distance_matrix(points, np.eye(2))[0].shape == (2, 2)


class TestDistanceMatrix:
    @given(matrix_shapes(), st.integers(1, 4096), st.integers(0, 2**63 - 1))
    @example(case=(9, 6, 2, 3, 5), shots=1024, seed=13)
    def test_matches_request_list(self, case, shots, seed):
        rng_seed, n, k, f, c = case
        rng = np.random.default_rng(rng_seed)
        pts = rng.normal(size=(n, f))
        ctr = rng.normal(size=(k, f))
        config = BatchConfig(max_circuits_per_job=c, shots_per_circuit=shots, seed=seed)
        mat, mat_stats = distance_matrix(pts, ctr, config=config, sampled=True)
        requests = [
            DistanceRequest(pts[i], ctr[j]) for i in range(n) for j in range(k)
        ]
        flat, flat_stats = estimate_distances(requests, config, sampled=True)
        np.testing.assert_array_equal(mat.ravel(), flat)
        assert mat_stats == flat_stats == BatchStats(-(-n * k // c), n * k)
        one_job = BatchConfig(max_circuits_per_job=n * k, shots_per_circuit=shots, seed=seed)
        np.testing.assert_array_equal(mat, distance_matrix(pts, ctr, one_job, sampled=True)[0])

    def test_exact_matrix_matches_oracle(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(8, 4))
        ctr = rng.normal(size=(3, 4))
        mat, _ = distance_matrix(pts, ctr)
        for i in range(8):
            for k in range(3):
                assert mat[i, k] == pytest.approx(
                    oracle_distance(pts[i], ctr[k]), abs=1e-9
                )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            distance_matrix(np.ones((4, 2)), np.ones((2, 3)))

    def test_exact_job_memory_does_not_grow_with_f_squared(self):
        # A 2**(2m+1)-amplitude statevector per circuit would need ~130 MB
        # here (64 circuits x 2 * 256**2 x 16 B); the closed form needs
        # O((N + K) * F) bytes plus one capped block of products.
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(32, 256))
        ctr = rng.normal(size=(2, 256))
        tracemalloc.start()
        try:
            mat, stats = distance_matrix(pts, ctr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert stats == BatchStats(1, 64)
        assert mat[5, 1] == pytest.approx(oracle_distance(pts[5], ctr[1]), abs=1e-9)


    def test_memory_stays_near_inputs_at_large_k_times_f(self):
        # One (N, K, F) product would be ~65 MB here; blocks of points keep
        # the peak a small multiple of the ~4 MB of inputs.
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(2000, 256))
        ctr = rng.normal(size=(16, 256))
        tracemalloc.start()
        try:
            mat, stats = distance_matrix(pts, ctr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (pts.nbytes + ctr.nbytes)
        assert stats == BatchStats(-(-32000 // 900), 32000)
        assert mat[1999, 15] == pytest.approx(oracle_distance(pts[1999], ctr[15]), abs=1e-9)


@st.composite
def overlap_cases(draw):
    """Unit points and centers at F in {1, 2, 3, 5, 16, 64}, with N at or
    next to a multiple of the points per ``_BLOCK_PRODUCTS`` block."""
    f, k = draw(st.sampled_from([1, 2, 3, 5, 16, 64])), draw(st.integers(1, 4))
    step = _BLOCK_PRODUCTS // (k * f)
    n = draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step + 1]) | st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return encode_matrix(rng.normal(size=(n, f))), encode_matrix(rng.normal(size=(k, f)))


class TestFeatureMajorKernels:
    """The executor's (F, N) layout changes no value: each overlap is the
    tree sum of its row-major products, and labels are ``np.argmin``'s."""

    @settings(max_examples=60, deadline=None)
    @given(overlap_cases(), st.integers(1, 1000))
    def test_overlaps_match_row_major_tree(self, case, c):
        unit_points, unit_centers = case
        (n, f), k = unit_points.shape, len(unit_centers)
        reference = row_sums((unit_points[:, None, :] * unit_centers).reshape(-1, f).T).reshape(n, k)
        overlap, stats = _overlaps(unit_points.T, unit_centers.T, BatchConfig(max_circuits_per_job=c))
        assert overlap.T.tobytes() == reference.tobytes()
        assert stats == BatchStats(-(-n * k // c), n * k)

    @given(st.integers(1, 8), st.integers(0, 30), st.integers(0, 2**32 - 1))
    def test_running_minimum_is_argmin(self, k, n, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so exact ties across centers are common
        dists = rng.choice([0.0, 0.25, 0.5, 1.0, np.sqrt(2.0)], size=(n, k))
        labels = _nearest_rows(np.ascontiguousarray(dists.T))
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, np.argmin(dists, axis=1))


class TestBatchConfig:
    def test_rejects_nonpositive_job_size(self):
        with pytest.raises(ValueError):
            BatchConfig(max_circuits_per_job=0)

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            BatchConfig(shots_per_circuit=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_circuits_per_job": 2.5},
            {"max_circuits_per_job": True},
            {"shots_per_circuit": 1.5},
            {"shots_per_circuit": "8"},
            {"seed": 1.0},
            {"seed": False},
            {"seed": -1},
        ],
    )
    def test_rejects_non_integer_fields_and_negative_seed(self, fields):
        with pytest.raises(ConfigError):
            BatchConfig(**fields)

    def test_numpy_integers_accepted(self):
        config = BatchConfig(max_circuits_per_job=np.int64(4), seed=np.uint64(2**64 - 1))
        assert config.seed == 2**64 - 1

    @pytest.mark.parametrize(("shots", "seed"), [(1.5, 0), (True, 0), (8, -1)])
    def test_quantum_distance_rejects_bad_shots_and_seed(self, shots, seed):
        with pytest.raises(ConfigError):
            quantum_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]), shots=shots, seed=seed)

    def test_rejects_shots_beyond_float64_counts(self):
        x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        with pytest.raises(ConfigError):
            quantum_distance(x, y, shots=2**53 + 1)
        # 2**53 is the largest count a float64 holds exactly, and still samples
        assert quantum_distance(x, y, shots=2**53, seed=3) == pytest.approx(oracle_distance(x, y), abs=1e-6)
