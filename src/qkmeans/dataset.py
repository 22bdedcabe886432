"""Dataset container and the IQ-plane preprocessing frame.

Raw single-shot IQ clouds are arbitrary ellipses anywhere in the plane,
which is hostile to direction-based (normalized) encodings: two clusters
separated radially from the origin collapse onto the same direction.
``ReadoutFrame`` fixes the geometry with one similarity transform:

1. center the cloud on its mean,
2. rotate the principal axis (the line through the two state blobs)
   onto the 135-degree diagonal,
3. scale isotropically by the standard deviation along that axis,
4. shift so every feature is nonnegative (per-feature minimum to zero).

The centered cloud then sits on the 45-degree ray with its long axis
tangential to it, so normalizing a point to unit length turns the
blob separation into an angular separation while leaving the
signal-to-noise ratio of the raw plane intact.  The map is a similarity
transform (rotation + single scale + translation), so classical k-means
structure survives untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_HALF_SQRT2 = np.sqrt(0.5)
_TINY = np.finfo(np.float64).tiny  # the least normal float64
# Row basis sending PCA coordinates to the plane: principal axis to the
# 135-degree diagonal, second axis to its +90-degree rotation.
_TARGET_BASIS = np.array(
    [[-_HALF_SQRT2, _HALF_SQRT2], [-_HALF_SQRT2, -_HALF_SQRT2]], dtype=np.float64
)


@dataclass(frozen=True)
class ReadoutFrame:
    """Affine map ``X -> (X - mean) @ matrix + offset`` fitted to IQ data."""

    mean: np.ndarray
    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 2:
            raise DataError("ReadoutFrame expects (n, 2) IQ features")
        return (x - self.mean) @ self.matrix + self.offset


def fit_readout_frame(features: np.ndarray) -> ReadoutFrame:
    """Fit the similarity transform described in the module docstring."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2 or x.shape[0] < 2:
        raise DataError("need an (n, 2) array with n >= 2 to fit a frame")
    if not np.all(np.isfinite(x)):
        raise DataError("features must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        cov = (centered.T @ centered) / (x.shape[0] - 1)
    e = 0  # 2**-e scales a cloud whose covariance is not finite, or not normal yet not constant
    if not (np.isfinite(cov).all() and (cov.diagonal().max() >= _TINY or not centered.any())):
        if not np.isfinite(centered).all():  # a non-finite centering always lands here
            raise DataError("the features' mean or their centering leaves the float range")
        e = int(np.frexp(np.abs(centered).max())[1])
        scaled = np.ldexp(centered, -e)
        cov = (scaled.T @ scaled) / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    principal = eigvecs[:, 1]
    if principal[0] < 0.0 or (principal[0] == 0.0 and principal[1] < 0.0):
        principal = -principal
    second = np.array([-principal[1], principal[0]])
    scale = float(np.sqrt(eigvals[1])) or 1.0  # 0 only for a constant cloud
    pca_columns = np.column_stack([principal, second])
    with np.errstate(over="ignore"):
        matrix = np.ldexp((pca_columns @ _TARGET_BASIS) / scale, -e)
    if not np.isfinite(matrix).all():
        raise DataError("the features spread too little for a finite frame scale")
    offset = -(centered @ matrix).min(axis=0)
    return ReadoutFrame(mean=mean, matrix=matrix, offset=offset)


@dataclass(frozen=True)
class DataSet:
    """Feature matrix with one integer label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataError("labels must be integers")
        labels = labels.astype(np.int64)
        if labels.shape != (feats.shape[0],):
            raise DataError("labels must be one integer per feature row")
        if not np.all(np.isfinite(feats)):
            raise DataError("features must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_points(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])
