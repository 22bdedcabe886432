"""ReadoutFrame and DataSet tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkmeans.dataset import DataSet, fit_readout_frame
from qkmeans.errors import DataError

DIAG_135 = np.array([-1.0, 1.0]) / np.sqrt(2.0)


def anisotropic_cloud(seed: int, n: int = 400) -> np.ndarray:
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0, np.pi)
    rot = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    pts = rng.normal(size=(n, 2)) * np.array([4.0, 0.7])
    return pts @ rot.T + rng.uniform(-10, 10, size=2)


class TestFitReadoutFrame:
    def test_offsets_put_minimum_at_zero(self):
        raw = anisotropic_cloud(0)
        out = fit_readout_frame(raw).apply(raw)
        np.testing.assert_allclose(out.min(axis=0), [0.0, 0.0], atol=1e-12)
        assert np.all(out >= -1e-12)

    def test_principal_axis_lands_on_135_degrees(self):
        raw = anisotropic_cloud(1)
        out = fit_readout_frame(raw).apply(raw)
        centered = out - out.mean(axis=0)
        # unit variance along the 135-degree diagonal...
        along = centered @ DIAG_135
        assert np.var(along, ddof=1) == pytest.approx(1.0, abs=1e-9)
        # ...and that diagonal is the direction of maximum variance
        across = centered @ np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.var(across, ddof=1) < np.var(along, ddof=1)

    def test_is_similarity_transform(self):
        # one global scale: all pairwise distance ratios survive
        raw = anisotropic_cloud(2, n=40)
        out = fit_readout_frame(raw).apply(raw)
        d_raw = np.linalg.norm(raw[0] - raw[1:], axis=1)
        d_out = np.linalg.norm(out[0] - out[1:], axis=1)
        ratios = d_out / d_raw
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_degenerate_cloud_falls_back_to_unit_scale(self):
        raw = np.tile([3.0, -4.0], (10, 1))
        frame = fit_readout_frame(raw)
        out = frame.apply(raw)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_rejects_tiny_or_bad_input(self):
        with pytest.raises(ValueError):
            fit_readout_frame(np.ones((1, 2)))
        with pytest.raises(ValueError):
            fit_readout_frame(np.ones((5, 3)))
        bad = np.ones((5, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit_readout_frame(bad)

    @given(st.integers(0, 1000))
    @settings(max_examples=25)
    def test_snr_preserved(self, seed):
        # separation over spread is what angular encodings consume; the
        # frame must not change it
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-5, 5, size=2)
        delta = rng.uniform(1.0, 6.0) * np.array(
            [np.cos(rng.uniform(0, np.pi)), np.sin(rng.uniform(0, np.pi))]
        )
        a = mu + rng.normal(size=(300, 2))
        b = mu + delta + rng.normal(size=(300, 2))
        raw = np.concatenate([a, b])
        out = fit_readout_frame(raw).apply(raw)
        ta, tb = out[:300], out[300:]

        def snr(x, y):
            gap = np.linalg.norm(x.mean(axis=0) - y.mean(axis=0))
            # covariance trace: invariant under rotation, scales with the
            # square of the single similarity factor
            spread = np.sqrt(
                np.var(x, axis=0, ddof=1).sum() + np.var(y, axis=0, ddof=1).sum()
            )
            return gap / spread

        assert snr(ta, tb) == pytest.approx(snr(a, b), rel=1e-9)


class TestFrameSerialization:
    def test_apply_validates_shape(self):
        frame = fit_readout_frame(anisotropic_cloud(4))
        with pytest.raises(ValueError):
            frame.apply(np.ones(2))
        with pytest.raises(ValueError):
            frame.apply(np.ones((3, 4)))


class TestDataSet:
    def test_basic_properties(self):
        ds = DataSet(np.ones((5, 3)), np.zeros(5, dtype=np.int64))
        assert ds.n_points == 5
        assert ds.n_features == 3

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError):
            DataSet(np.ones((2, 2)), np.array([0.0, 1.0]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            DataSet(np.ones((3, 2)), np.array([0, 1]))

    def test_rejects_non_finite_features(self):
        feats = np.ones((2, 2))
        feats[1, 1] = np.inf
        with pytest.raises(ValueError):
            DataSet(feats, np.array([0, 1]))

    def test_non_finite_features_are_data_errors(self):
        feats = np.ones((2, 2))
        feats[0, 0] = np.nan
        with pytest.raises(DataError, match="finite"):
            DataSet(feats, np.array([0, 1]))
        with pytest.raises(DataError, match="finite"):
            fit_readout_frame(feats)

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            DataSet(np.ones(4), np.zeros(4, dtype=np.int64))
