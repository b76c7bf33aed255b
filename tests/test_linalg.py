import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countbench import linalg


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols))


def power_iteration_norm(m, starts=32, iterations=400, rng=None):
    """Independent reference for the top singular value.

    Best of many random starts, each refined by power iteration on m^T m;
    a plain max of ||m u|| over random unit vectors is only a lower bound
    (asserted separately) and cannot reach 1e-6 alignment in 30 dims.
    """
    rng = rng or np.random.default_rng(20240817)
    best = 0.0
    gram = m.T @ m
    for _ in range(starts):
        u = rng.standard_normal(m.shape[1])
        u /= np.linalg.norm(u)
        for _ in range(iterations):
            u = gram @ u
            u /= np.linalg.norm(u)
        best = max(best, float(np.linalg.norm(m @ u)))
    return best


class TestSpectralNorm:
    def test_identity(self):
        assert linalg.spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_single_singular_value(self):
        assert linalg.spectral_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0)

    def test_random_rectangular_against_power_iteration(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 20, 30)
        reference = power_iteration_norm(m, rng=rng)
        assert linalg.spectral_norm(m) == pytest.approx(reference, abs=1e-6)

    def test_random_unit_vectors_only_reach_from_below(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 20, 30)
        u = rng.standard_normal((10_000, 30))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        lower = float(np.max(np.linalg.norm(u @ m.T, axis=1)))
        assert lower <= linalg.spectral_norm(m) + 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            linalg.spectral_norm(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.spectral_norm([[np.nan, 0.0], [0.0, 1.0]])

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_transpose_invariance(self, rows, cols, seed):
        m = np.random.default_rng(seed).standard_normal((rows, cols))
        assert linalg.spectral_norm(m) == pytest.approx(
            linalg.spectral_norm(m.T), abs=1e-10
        )

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_direct_sum_is_max(self, a_size, b_size, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((a_size, a_size))
        b = rng.standard_normal((b_size, b_size))
        block = np.zeros((a_size + b_size, a_size + b_size))
        block[:a_size, :a_size] = a
        block[a_size:, a_size:] = b
        expected = max(linalg.spectral_norm(a), linalg.spectral_norm(b))
        assert linalg.spectral_norm(block) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("power", [600, -600])
    def test_extreme_scales(self, power):
        # The Gram of m * 2^600 overflows and that of m * 2^-600 underflows.
        m = random_matrix(np.random.default_rng(5), 9, 14)
        want = linalg.spectral_norm(m)
        got = linalg.spectral_norm(m * 2.0**power) / 2.0**power
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("power", [0, 390, -390])
    def test_in_range_scales_take_the_unscaled_path(self, power):
        m = random_matrix(np.random.default_rng(5), 9, 14) * 2.0**power
        top = np.linalg.eigvalsh(m @ m.T)[-1]
        assert linalg.spectral_norm(m) == float(np.sqrt(top))

    def test_a_stack_is_rejected(self):
        # One scale for a whole stack would read m * 2^-600 beside m as 0.
        m = random_matrix(np.random.default_rng(6), 6, 7)
        with pytest.raises(ValueError, match="2-D"):
            linalg.spectral_norm(np.stack([m, m * 2.0**-600]))

    def test_orthonormal_columns_have_norm_one(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        assert linalg.spectral_norm(q) == pytest.approx(1.0, abs=1e-10)


class TestGramSafe:
    @pytest.mark.parametrize("top", [2.0**500, 2.0**-500, 3 * 2.0**450])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_out_of_range_tops_are_brought_into_one_to_two(self, top, sign):
        m = np.array([[sign * top, 0.25 * top], [-0.5 * top, 0.0]])
        scaled, scale = linalg.gram_safe(m)
        assert 1.0 <= np.max(np.abs(scaled)) < 2.0
        assert math.frexp(scale)[0] == 0.5 and np.array_equal(scaled * scale, m)


class TestAsMatrix:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_entry_rejected_anywhere(self, value, position):
        m = np.ones((31, 17))
        index = {"first": 0, "middle": m.size // 2, "last": m.size - 1}[position]
        m.flat[index] = value
        with pytest.raises(ValueError, match="non-finite"):
            linalg.as_matrix(m)

    def test_allocates_nothing_of_the_input_size(self):
        m = np.random.default_rng(5).standard_normal((1000, 500))
        tracemalloc.start()
        try:
            assert linalg.as_matrix(m) is m
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An np.isfinite(m) test would allocate m.size bytes (500 kB).
        assert peak < m.size // 10


class TestOrthonormalColumnBasis:
    def test_rank_one_axis(self):
        q = linalg.orthonormal_column_basis([[2.0, 0.0], [0.0, 0.0]])
        assert q.shape == (2, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12 and abs(q[1, 0]) < 1e-12

    def test_rank_one_diagonal(self):
        q = linalg.orthonormal_column_basis([[1.0, 1.0], [1.0, 1.0]])
        assert q.shape == (2, 1)
        assert np.allclose(np.abs(q[:, 0]), 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_two_random_columns_orthonormalised(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((40, 2))
        q = linalg.orthonormal_column_basis(m)
        assert q.shape == (40, 2)
        assert np.max(np.abs(q.T @ q - np.eye(2))) < 1e-12

    def test_zero_matrix_gives_zero_columns(self):
        q = linalg.orthonormal_column_basis(np.zeros((4, 3)))
        assert q.shape == (4, 0)

    def test_rank_cutoff_is_relative_to_the_top_singular_value(self):
        # 1e-5 is below DEFAULT_RANK_TOL * 1e6 = 1e-4; 1e-3 is above it.
        m = np.zeros((4, 3))
        m[0, 0], m[1, 1], m[2, 2] = 1e-3, 1e6, 1e-5
        q = linalg.orthonormal_column_basis(m)
        assert q.shape == (4, 2)
        assert np.allclose(np.abs(q), [[0, 1], [1, 0], [0, 0], [0, 0]], atol=1e-12)

    def test_span_preserved(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 7))
        q = linalg.orthonormal_column_basis(m)
        assert q.shape[1] == 4
        # Projection onto span(q) reproduces m.
        assert np.max(np.abs(q @ (q.T @ m) - m)) < 1e-10
