"""Cost-model tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkmeans.complexity import (
    ComplexityParams,
    classical_cost,
    cost_curve,
    cost_ratio,
    expected_jobs_per_iteration,
    quantum_cost,
    sweep_values,
    verify_job_counts,
)
from qkmeans.distance import BatchStats

params = st.builds(
    ComplexityParams,
    N=st.integers(1, 10**6),
    K=st.integers(1, 50),
    F=st.integers(1, 4096),
    I=st.integers(1, 100),
    C=st.integers(1, 2000),
)


class TestCosts:
    def test_classical_is_product(self):
        p = ComplexityParams(N=100, K=3, F=8, I=5)
        assert classical_cost(p) == 100 * 3 * 8 * 5

    def test_quantum_counts_jobs(self):
        p = ComplexityParams(N=900, K=1, F=2, I=1, C=900)
        assert quantum_cost(p) == 1.0

    def test_single_feature_still_needs_one_qubit(self):
        a = ComplexityParams(N=10, K=2, F=1, I=1, C=1)
        b = ComplexityParams(N=10, K=2, F=2, I=1, C=1)
        assert quantum_cost(a) == quantum_cost(b)

    def test_doubling_features_adds_one_qubit(self):
        base = ComplexityParams(N=50, K=2, F=4, I=3, C=10)
        doubled = ComplexityParams(N=50, K=2, F=8, I=3, C=10)
        assert quantum_cost(doubled) / quantum_cost(base) == pytest.approx(3 / 2)

    @given(params)
    def test_ratio_closed_form(self, p):
        assert cost_ratio(p) == pytest.approx(
            math.log2(max(p.F, 2)) / (p.F * p.C), rel=1e-12
        )

    @given(params)
    def test_quantum_wins_at_scale(self, p):
        # for F >= 2 and realistic job sizes the ratio is strictly < 1
        if p.F >= 2 and p.C >= 2:
            assert cost_ratio(p) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexityParams(N=0, K=1, F=1, I=1, C=1)
        with pytest.raises(ValueError):
            ComplexityParams(N=1, K=1, F=1, I=1, C=0)

    def test_default_c(self):
        p = ComplexityParams(N=1, K=1, F=1, I=1)
        assert p.C == 900


class TestJobVerification:
    def test_expected_jobs_is_ceiling(self):
        p = ComplexityParams(N=1000, K=2, F=2, I=1, C=900)
        assert expected_jobs_per_iteration(p) == 3
        exact = ComplexityParams(N=450, K=2, F=2, I=1, C=900)
        assert expected_jobs_per_iteration(exact) == 1

    def test_verify_accepts_matching_history(self):
        p = ComplexityParams(N=10, K=3, F=2, I=4, C=7)
        history = [BatchStats(5, 30)] * 4  # ceil(30/7) = 5
        assert verify_job_counts(history, p)

    def test_verify_rejects_other_counts(self):
        p = ComplexityParams(N=10, K=3, F=2, I=2, C=7)
        assert not verify_job_counts([BatchStats(5, 30), BatchStats(4, 30)], p)

    def test_empty_history_passes(self):
        p = ComplexityParams(N=10, K=3, F=2, I=1, C=7)
        assert verify_job_counts([], p)

    @given(
        st.integers(1, 5000), st.integers(1, 10), st.integers(1, 1000),
        st.integers(0, 5),
    )
    def test_matches_real_executor_accounting(self, n, k, c, iters):
        p = ComplexityParams(N=n, K=k, F=2, I=max(iters, 1), C=c)
        jobs = expected_jobs_per_iteration(p)
        assert jobs == math.ceil(n * k / c)
        history = [BatchStats(jobs, n * k)] * iters
        assert verify_job_counts(history, p)


class TestSweep:
    def test_includes_endpoints(self):
        values = sweep_values(10, 10_000, 25)
        assert values[0] == 10
        assert values[-1] == 10_000
        assert list(values) == sorted(set(values))

    def test_single_point_when_range_collapses(self):
        assert sweep_values(7, 7, 1) == (7,)
        assert sweep_values(7, 7, 10) == (7,)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sweep_values(0, 10, 5)
        with pytest.raises(ValueError):
            sweep_values(10, 5, 5)
        with pytest.raises(ValueError):
            sweep_values(2, 10, 1)

    @given(st.integers(1, 2**53), st.integers(1, 2**53), st.integers(2, 64))
    def test_values_stay_within_the_range(self, a, b, count):
        # float64 holds every integer up to 2**53, so geomspace never rounds
        # an end past the range
        start, stop = min(a, b), max(a, b)
        values = sweep_values(start, stop, count)
        assert values[0] == start and values[-1] == stop
        assert all(start <= v <= stop for v in values)

    def test_deduplicates_small_ranges(self):
        values = sweep_values(2, 8, 20)
        assert values[0] == 2 and values[-1] == 8
        assert len(values) == len(set(values))
        assert all(2 <= v <= 8 for v in values)


class TestCostCurve:
    def test_samples_sweep_rows(self):
        base = ComplexityParams(N=1, K=2, F=2, I=10, C=900)
        rows = cost_curve(base, "samples", (10, 100))
        assert rows == [
            (10, 10 * 2 * 2 * 10, 10 * 2 * 1.0 * 10 / 900),
            (100, 100 * 2 * 2 * 10, 100 * 2 * 1.0 * 10 / 900),
        ]

    def test_features_sweep_changes_f(self):
        base = ComplexityParams(N=1000, K=2, F=2, I=10, C=900)
        rows = cost_curve(base, "features", (2, 256))
        assert rows[0][0] == 2
        assert rows[1][1] == 1000 * 2 * 256 * 10
        assert rows[1][2] == pytest.approx(1000 * 2 * 8 * 10 / 900)

    def test_rejects_unknown_sweep(self):
        base = ComplexityParams(N=1, K=1, F=1, I=1)
        with pytest.raises(ValueError):
            cost_curve(base, "clusters", (1, 2))
        with pytest.raises(ValueError):
            cost_curve(base, "samples", ())
