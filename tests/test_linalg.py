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

    def test_span_preserved(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 7))
        q = linalg.orthonormal_column_basis(m)
        assert q.shape[1] == 4
        # Projection onto span(q) reproduces m.
        assert np.max(np.abs(q @ (q.T @ m) - m)) < 1e-10


def projector_family(size, dims, seed):
    """Orthogonal projectors onto the consecutive column blocks of a random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((size, size)))
    edges = np.cumsum([0, *dims])
    return [q[:, lo:hi] @ q[:, lo:hi].T for lo, hi in zip(edges[:-1], edges[1:])]


class TestBlockScalars:
    DIMS = (1, 9, 30, 60)

    def test_reads_a_block_scalar_gram(self):
        projectors = projector_family(100, self.DIMS, 1)
        want = np.array([0.5, 3.0, 2.0, 0.25])
        gram = sum(m_j * e for m_j, e in zip(want, projectors))
        m, residual = linalg.block_scalars(gram, projectors)
        assert np.max(np.abs(m - want)) <= 1e-14
        assert residual <= 1e-13

    def test_residual_certifies_the_top_eigenvalue(self):
        # Weyl: |lambda_max(M) - max_j m_j| <= ||M - sum m_j E_j||_F for any symmetric M.
        projectors = projector_family(100, self.DIMS, 2)
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((100, 100))
        gram = sum(m_j * e for m_j, e in zip((1.0, 2.0, 0.5, 1.5), projectors))
        gram += 0.01 * (noise + noise.T)
        top = np.linalg.eigvalsh(gram)[-1]
        scalars = [float(np.vdot(gram, e)) / d for e, d in zip(projectors, self.DIMS)]
        off = gram - sum(m_j * e for m_j, e in zip(scalars, projectors))
        m, residual = linalg.block_scalars(gram, projectors)
        assert np.max(np.abs(m - scalars)) <= 1e-13
        assert residual == pytest.approx(np.linalg.norm(off), rel=1e-12)
        assert residual > 0.1
        assert abs(top - m.max()) <= residual
        # The Gram is overwritten by the residual.
        assert np.max(np.abs(gram - off)) <= 1e-13

    def test_forms_no_second_gram(self):
        projectors = projector_family(400, (1, 39, 160, 200), 4)
        gram = sum(m_j * e for m_j, e in zip((1.0, 2.0, 3.0, 4.0), projectors))
        tracemalloc.start()
        try:
            linalg.block_scalars(gram, projectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of the 1.28 MB Gram, or one scaled projector, would exceed this.
        assert peak < gram.nbytes // 2
