"""Feature-vector encoding tests: the executor's unit rows
(``qkmeans.distance.encode_matrix``) and the register padding that the
gate-level reference adds to them."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import padded_dimension, register_amplitudes
from qkmeans.distance import encode_matrix, quantum_distance
from qkmeans.simulator import batch_ground, batch_prepare, row_sums

finite_features = st.lists(
    st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-6),
    min_size=1,
    max_size=9,
)


def encode_row(vector) -> np.ndarray:
    return encode_matrix(np.asarray(vector, dtype=np.float64)[None, :])[0]


def register_row(vector) -> np.ndarray:
    return register_amplitudes(np.asarray(vector, dtype=np.float64)[None, :])[0]


class TestPadding:
    @pytest.mark.parametrize(
        "n_features, expected",
        [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16)],
    )
    def test_padded_dimension(self, n_features, expected):
        assert padded_dimension(n_features) == expected

    def test_register_width_is_log2(self):
        assert register_amplitudes(np.ones((1, 5))).shape[1] == 2**3
        assert register_amplitudes(np.ones((1, 2))).shape[1] == 2**1
        assert encode_matrix(np.ones((1, 5))).shape[1] == 5

    @given(st.data())
    def test_row_sums_ignore_zero_padding(self, data):
        # The executor sums overlaps over F columns, not over the 2**m
        # register amplitudes; this equality is why that is bit-identical.
        features = data.draw(st.integers(1, 40))
        product = np.array(data.draw(st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=features, max_size=features),
            min_size=1, max_size=4,
        )))
        padded = np.zeros((product.shape[0], 1 << (features - 1).bit_length()))
        padded[:, :features] = product
        assert row_sums(product.T).tobytes() == row_sums(padded.T).tobytes()


class TestAmplitude:
    def test_normalizes(self):
        np.testing.assert_allclose(encode_row([3.0, 4.0]), [0.6, 0.8])

    def test_pads_with_zeros(self):
        np.testing.assert_allclose(encode_row([1.0, 1.0, 1.0]), [1 / np.sqrt(3)] * 3, atol=1e-15)
        np.testing.assert_allclose(
            register_row([1.0, 1.0, 1.0]), [1 / np.sqrt(3)] * 3 + [0.0], atol=1e-15
        )

    def test_single_feature_pads_to_one_qubit(self):
        np.testing.assert_allclose(register_row([-2.0]), [-1.0, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            encode_row(np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            encode_row([1.0, np.nan])

    @given(finite_features)
    def test_unit_norm(self, values):
        assert abs(np.linalg.norm(encode_row(values)) - 1.0) < 1e-9

    @given(finite_features, st.floats(0.001, 1000.0))
    def test_positive_scale_invariant(self, values, scale):
        base = encode_row(values)
        scaled = encode_row(np.array(values) * scale)
        np.testing.assert_allclose(scaled, base, atol=1e-9)


class TestPrepOps:
    def test_prep_ops_target_upper_register(self):
        vec = register_amplitudes(np.array([[1.0, 2.0, 2.0]]))
        state = batch_prepare(batch_ground(1, 4), 4, (2, 3), vec)
        # qubits 2,3 hold the state; qubits 0,1 stay |0>
        expected = np.zeros(16, dtype=np.complex128)
        expected[[0, 4, 8]] = np.array([1.0, 2.0, 2.0]) / 3.0
        np.testing.assert_allclose(state[0], expected, atol=1e-12)

    def test_prep_ops_checks_register_size(self):
        vec = register_amplitudes(np.array([[1.0, 2.0, 2.0]]))
        with pytest.raises(ValueError):
            batch_prepare(batch_ground(1, 4), 4, (0,), vec)


class TestEncodeMatrix:
    def test_rows_match_scalar_encoder(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(6, 5))
        block = encode_matrix(mat)
        for i in range(6):
            np.testing.assert_array_equal(block[i], encode_row(mat[i]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            encode_matrix(np.ones(4))

    @pytest.mark.parametrize("power", [-1073, -665, -600, 600, 665, 1020])
    def test_rows_whose_squares_leave_the_float_range(self, power):
        # their sums of squares underflow to 0 or a subnormal, or overflow to
        # inf; scaled by a power of two first, they encode as the plain rows
        plain = np.array([[1.0, 1.0], [3.0, -4.0], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = encode_matrix(np.ldexp(plain, power))
            far = quantum_distance(np.ldexp(plain[0], power), np.ldexp(plain[0], power))
        assert rows.tobytes() == encode_matrix(plain).tobytes()
        assert far == quantum_distance(plain[0], plain[0]) < 1e-7
