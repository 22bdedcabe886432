"""SwapTest distance and batched-executor tests."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkmeans.distance import (
    BatchConfig,
    BatchStats,
    DistanceRequest,
    distance_from_p0,
    distance_matrix,
    estimate_distances,
    quantum_distance,
)
from qkmeans.encoding import encode_matrix
from qkmeans.simulator import batch_cswap, batch_ground, batch_h, batch_marginal, batch_prepare

vectors = st.lists(
    st.floats(-50.0, 50.0).filter(lambda v: abs(v) > 1e-3),
    min_size=1,
    max_size=8,
)


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
    enc = encode_matrix(np.stack([x, y]))
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

    def test_results_independent_of_job_size_sampled(self):
        rng = np.random.default_rng(5)
        requests = [
            DistanceRequest(rng.normal(size=2), rng.normal(size=2))
            for _ in range(20)
        ]
        a, _ = estimate_distances(
            requests, BatchConfig(max_circuits_per_job=3, seed=7), sampled=True
        )
        b, _ = estimate_distances(
            requests, BatchConfig(max_circuits_per_job=19, seed=7), sampled=True
        )
        np.testing.assert_array_equal(a, b)

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


class TestDistanceMatrix:
    def test_matches_request_list(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(6, 3))
        ctr = rng.normal(size=(2, 3))
        config = BatchConfig(max_circuits_per_job=5, seed=13)
        mat, mat_stats = distance_matrix(pts, ctr, config=config, sampled=True)
        requests = [
            DistanceRequest(pts[i], ctr[k]) for i in range(6) for k in range(2)
        ]
        flat, flat_stats = estimate_distances(requests, config, sampled=True)
        np.testing.assert_array_equal(mat.ravel(), flat)
        assert mat_stats == flat_stats == BatchStats(3, 12)

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
        # O((N + K + C) * F) bytes.
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


class TestBatchConfig:
    def test_rejects_nonpositive_job_size(self):
        with pytest.raises(ValueError):
            BatchConfig(max_circuits_per_job=0)

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            BatchConfig(shots_per_circuit=0)
