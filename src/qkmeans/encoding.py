"""Amplitude encoding of classical feature vectors for the overlap circuits.

Each row is normalized, then zero-padded to the next power of two, so a
feature vector of length F occupies ceil(log2(max(F, 2))) qubits.  The
result is the exact (real) register amplitudes that ``PREPARE`` injects.
"""

from __future__ import annotations

import numpy as np

from .simulator import row_sums


def padded_dimension(num_features: int) -> int:
    """Smallest power of two >= max(num_features, 2)."""
    if num_features < 1:
        raise ValueError("need at least one feature")
    return 1 << max(1, (num_features - 1).bit_length())


def encode_matrix(matrix: np.ndarray) -> np.ndarray:
    """Encode each row of ``matrix``; returns a (rows, register_dim) float64 array."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D matrix of row vectors")
    if not np.all(np.isfinite(mat)):
        raise ValueError("amplitude encoding needs nonzero finite vectors")
    norms = np.sqrt(row_sums(mat * mat))
    if np.any(norms == 0.0):
        raise ValueError("amplitude encoding needs nonzero finite vectors")
    target = padded_dimension(mat.shape[1])
    out = np.zeros((mat.shape[0], target), dtype=np.float64)
    out[:, : mat.shape[1]] = mat / norms[:, None]
    return out
