"""Shared fixtures.

Every quantum-mode ``clustering.fit`` executed anywhere in the test suite
(directly, through cross_validate, or through in-process CLI calls) is
wrapped to assert the batching contract: one BatchStats entry per Lloyd
iteration, each with exactly ceil(N*K/C) jobs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from qkmeans import clustering, complexity
from qkmeans.dataset import DataSet, fit_readout_frame
from qkmeans.distance import encode_matrix

settings.register_profile("default", deadline=None)
settings.load_profile("default")

JOB_ACCOUNTING = {"fits_checked": 0}


@pytest.fixture(autouse=True)
def _audit_quantum_fits(monkeypatch):
    real_fit = clustering.fit

    def audited_fit(X, config):
        model = real_fit(X, config)
        if config.distance_mode != "classical_euclidean":
            params = complexity.ComplexityParams(
                N=X.n_points,
                K=config.n_clusters,
                F=X.n_features,
                I=max(model.n_iter, 1),
                C=config.batch.max_circuits_per_job,
            )
            assert len(model.batch_history) == model.n_iter, (
                "expected one BatchStats entry per Lloyd iteration"
            )
            assert complexity.verify_job_counts(model.batch_history, params), (
                f"jobs per iteration != ceil(N*K/C) for N={X.n_points} "
                f"K={config.n_clusters} C={config.batch.max_circuits_per_job}: "
                f"{model.batch_history}"
            )
            JOB_ACCOUNTING["fits_checked"] += 1
        return model

    monkeypatch.setattr(clustering, "fit", audited_fit)
    yield


def make_blobs(seed: int, n: int = 200, separation: float = 10.0) -> DataSet:
    """Two isotropic unit-spread blobs at a random orientation, framed."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.array([np.cos(angle), np.sin(angle)])
    center = rng.uniform(-5.0, 5.0, size=2)
    half = n // 2
    raw = np.concatenate([
        center - 0.5 * separation * axis + rng.normal(size=(half, 2)),
        center + 0.5 * separation * axis + rng.normal(size=(n - half, 2)),
    ])
    labels = np.repeat([0, 1], (half, n - half))
    frame = fit_readout_frame(raw)
    return DataSet(frame.apply(raw), labels)


def overlap_pair(rng: np.random.Generator, overlap_sq: float, dim: int = 4):
    """Two unit vectors whose inner-product magnitude is sqrt(overlap_sq)."""
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    v = rng.normal(size=dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    c = np.sqrt(overlap_sq)
    s = np.sqrt(1.0 - overlap_sq)
    return u, c * u + s * v


def padded_dimension(num_features: int) -> int:
    """Smallest power of two >= max(num_features, 2): the amplitude count of
    the ceil(log2(max(F, 2)))-qubit register a feature row is prepared in."""
    if num_features < 1:
        raise ValueError("need at least one feature")
    return 1 << max(1, (num_features - 1).bit_length())


def register_amplitudes(matrix) -> np.ndarray:
    """The unit rows of ``matrix`` zero-padded to ``padded_dimension``
    columns: the register amplitudes the gate-level reference PREPAREs."""
    rows = encode_matrix(matrix)
    out = np.zeros((rows.shape[0], padded_dimension(rows.shape[1])), dtype=np.float64)
    out[:, : rows.shape[1]] = rows
    return out
