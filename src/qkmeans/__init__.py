"""Quantum k-means readout-state discrimination toolkit.

Simulated SwapTest distances with batched circuit execution, greedy
farthest-point seeding, a classical baseline, synthetic IQ readout data,
cross-validated fidelity benchmarking, and Pearson crosstalk analysis.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .clustering import (
    ClusterModel,
    FitConfig,
    classical_kmeans_oracle,
    fit,
    predict,
    qkmeans_plusplus_init,
)
from .dataset import DataSet, ReadoutFrame, fit_readout_frame
from .distance import (
    BatchConfig,
    BatchStats,
    DistanceRequest,
    estimate_distances,
    distance_matrix,
    quantum_distance,
)
from .errors import ConfigError, DataError
from .metrics import ScoreReport, assignment_fidelity, cross_validate, fowlkes_mallows
from .simulator import derive_seed

__all__ = [
    "BatchConfig",
    "BatchStats",
    "ClusterModel",
    "ConfigError",
    "DataError",
    "DataSet",
    "DistanceRequest",
    "FitConfig",
    "ReadoutFrame",
    "ScoreReport",
    "__version__",
    "assignment_fidelity",
    "classical_kmeans_oracle",
    "cross_validate",
    "derive_seed",
    "distance_matrix",
    "estimate_distances",
    "fit",
    "fit_readout_frame",
    "fowlkes_mallows",
    "predict",
    "qkmeans_plusplus_init",
    "quantum_distance",
]
