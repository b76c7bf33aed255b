import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countbench import adversary, bruteforce, johnson, linalg
from countbench.cli import DEFAULT_INSTANCES
import dense_reference

# Instances shared with the acceptance sweep, as (n, k, k') triples.
SWEEP = [(6, 1, 2), (7, 1, 2), (8, 2, 3), (9, 2, 3), (10, 2, 3), (10, 3, 4)]


def _decode(masks, n):
    """The subsets, as sorted tuples, whose bit masks are ``masks``."""
    return [tuple(e for e in range(1, n + 1) if int(m) >> (e - 1) & 1) for m in masks]


class TestClearCaches:
    def test_every_cached_function_is_listed(self):
        cached = {v for v in vars(johnson).values() if hasattr(v, "cache_clear")}
        assert cached == set(johnson._CACHED)

    def test_clears_the_originals_behind_a_wrapper(self, monkeypatch):
        # A tracer replaces the module attribute with a plain wrapper, which
        # has no cache_clear; the cache behind it must still be emptied.
        original = johnson.irrep_projectors
        original(6, 2)
        assert original.cache_info().currsize > 0
        monkeypatch.setattr(johnson, "irrep_projectors", lambda n, k: original(n, k))
        johnson.clear_caches()
        assert original.cache_info().currsize == 0

    def test_misses_survive_a_clear(self):
        # A plain lru_cache resets its counts when cleared; the benchmark's
        # warm-cache gate reads them after sweeps that clear between levels.
        johnson.transporter(7, 1, 2, 1)
        counted = [memo.cache_info() for memo in johnson._CACHED]
        assert all(info.misses > 0 for info in counted)
        johnson.clear_caches()
        cleared = [memo.cache_info() for memo in johnson._CACHED]
        assert [info.currsize for info in cleared] == [0] * len(johnson._CACHED)
        assert [info[:2] for info in cleared] == [info[:2] for info in counted]
        # Phi_1 built again from empty memos misses in every one of them.
        johnson.transporter(7, 1, 2, 1)
        rebuilt = [memo.cache_info() for memo in johnson._CACHED]
        assert all(b.misses > a.misses for a, b in zip(counted, rebuilt))

    def test_dropping_the_families_keeps_the_phis_and_the_counts(self):
        johnson.transporter(7, 1, 2, 1)
        families, phis = johnson.irrep_projectors.cache_info(), johnson.transporter.cache_info()
        assert families.currsize >= 2
        johnson.drop_projector_families()
        assert johnson.irrep_projectors.cache_info() == families._replace(currsize=0)
        assert johnson.transporter.cache_info() == phis
        # Phi_1 is a hit, which builds no family again.
        johnson.transporter(7, 1, 2, 1)
        assert johnson.irrep_projectors.cache_info() == families._replace(currsize=0)
        assert johnson.transporter.cache_info() == phis._replace(hits=phis.hits + 1)


class TestSubsetBasis:
    def test_small_order(self):
        masks = johnson.subset_basis(3, 2)
        assert masks.tolist() == [0b011, 0b101, 0b110]
        assert _decode(masks, 3) == [(1, 2), (1, 3), (2, 3)]

    def test_empty_subsets(self):
        masks = johnson.subset_basis(4, 0)
        assert len(masks) == 1 and _decode(masks, 4) == [()]

    def test_brute_recount(self):
        masks = johnson.subset_basis(8, 3)
        assert masks.dtype == np.int64 and len(masks) == 56
        enumerated = sorted(itertools.combinations(range(1, 9), 3))
        assert _decode(masks, 8) == enumerated == dense_reference.subsets(8, 3)
        assert masks[enumerated.index((2, 5, 8))] == 0b10010010

    def test_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            johnson.subset_basis(5, 2)[0] = 0

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            johnson.subset_basis(3, 4)
        with pytest.raises(ValueError):
            johnson.subset_basis(21, 2)

    @given(st.integers(min_value=0, max_value=10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_unrank_roundtrip(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        masks = johnson.subset_basis(n, k)
        assert len(masks) == math.comb(n, k)
        position = data.draw(st.integers(min_value=0, max_value=len(masks) - 1))
        subset = dense_reference.subsets(n, k)[position]
        assert _decode(masks[position:position + 1], n) == [subset]
        assert dense_reference.index_of(n, k, subset) == position


class TestInclusionMatrix:
    def test_top_level_is_identity(self):
        w = johnson.inclusion_matrix(5, 2, 2)
        assert np.array_equal(w, np.eye(10))

    def test_bottom_level_is_ones_column(self):
        w = johnson.inclusion_matrix(5, 2, 0)
        assert w.shape == (10, 1) and np.all(w == 1.0)

    def test_double_counting(self):
        w = johnson.inclusion_matrix(4, 2, 1)
        assert np.all(w.sum(axis=1) == 2)  # each 2-set has 2 singletons
        assert np.all(w.sum(axis=0) == 3)  # each singleton sits in C(3,1) 2-sets

    def test_bounds(self):
        with pytest.raises(ValueError):
            johnson.inclusion_matrix(5, 2, 3)


class TestProjectors:
    def test_traces_8_2(self):
        traces = [float(np.trace(e)) for e in johnson.irrep_projectors(8, 2)]
        assert [int(round(t)) for t in traces] == [1, 7, 20]

    def test_uniform_block_is_all_ones(self):
        e0 = johnson.irrep_projectors(6, 2)[0]
        assert np.allclose(e0, 1.0 / 15.0, atol=1e-12)

    def test_completeness_6_3(self):
        total = sum(johnson.irrep_projectors(6, 3))
        assert np.max(np.abs(total - np.eye(20))) < 1e-10

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (9, 4), (10, 2)])
    def test_family_identities(self, n, k):
        projectors = johnson.irrep_projectors(n, k)
        for j, e in enumerate(projectors):
            assert np.max(np.abs(e @ e - e)) < 1e-10
            assert np.max(np.abs(e - e.T)) < 1e-12
            assert int(round(float(np.trace(e)))) == johnson.block_dimension(n, j)
            for other in projectors[j + 1:]:
                assert np.max(np.abs(e @ other)) < 1e-10

    def test_rejects_n_below_2k(self):
        with pytest.raises(ValueError):
            johnson.irrep_projectors(5, 3)

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (9, 4)])
    def test_family_is_one_read_only_buffer(self, n, k):
        # Every E_j is a view of one C-contiguous (k+1) x N x N array, equal
        # bit for bit to P_j - P_{j-1} built one matrix at a time.
        johnson.drop_projector_families()
        family = johnson.irrep_projectors(n, k)
        buffer = family[0].base
        size = math.comb(n, k)
        assert buffer.shape == (k + 1, size, size)
        assert buffer.flags.c_contiguous and not buffer.flags.writeable
        prev = np.zeros((size, size))
        for j, e in enumerate(family):
            assert e.base is buffer and not e.flags.writeable
            p = np.eye(size)
            if j < k:
                q = linalg.orthonormal_column_basis(johnson.inclusion_matrix(n, k, j))
                p = q @ q.T
                p = (p + p.T) / 2.0
            assert e.tobytes() == (p - prev).tobytes()
            prev = p

    def test_dropping_a_family_frees_its_buffer(self):
        # After every check of (8,2,3) has read both families, and with the
        # verifier's memos still full, no view of either buffer outlives the
        # drop.
        inst = adversary.ProblemInstance(8, 2, 3)
        johnson.drop_projector_families()
        bruteforce.clear_memos()
        for check in bruteforce.CHECK_IDS:
            assert bruteforce.verify(check, inst, t=2.0, ell=1).passed, check
        buffers = [
            weakref.ref(johnson.irrep_projectors(inst.n, level)[0].base)
            for level in (inst.k, inst.k_prime)
        ]
        assert all(ref() is not None for ref in buffers)
        johnson.drop_projector_families()
        assert [ref() for ref in buffers] == [None, None]
        bruteforce.clear_memos()


class TestTransporter:
    def test_uniform_block_is_constant(self):
        phi = johnson.transporter(8, 2, 3, 0)
        expected = 1.0 / math.sqrt(math.comb(8, 2) * math.comb(8, 3))
        assert np.allclose(phi, expected, atol=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_partial_isometry_and_reference_action(self, j):
        phi = johnson.transporter(8, 2, 3, j)
        e = johnson.irrep_projectors(8, 2)[j]
        e_hat = johnson.irrep_projectors(8, 3)[j]
        assert np.max(np.abs(phi.T @ phi - e_hat)) < 1e-10
        assert np.max(np.abs(phi @ phi.T - e)) < 1e-10
        v = johnson.reference_vectors(8, 2, j).v
        v_hat = johnson.reference_vectors(8, 3, j).v
        assert np.linalg.norm(phi @ v_hat - v) < 1e-9

    def test_equivariance_under_random_permutations(self):
        phi = johnson.transporter(8, 2, 3, 1)
        rng = np.random.default_rng(42)
        for _ in range(20):
            perm = rng.permutation(8) + 1
            row_map = [
                dense_reference.index_of(8, 2, perm[np.array(s) - 1])
                for s in dense_reference.subsets(8, 2)
            ]
            col_map = [
                dense_reference.index_of(8, 3, perm[np.array(s) - 1])
                for s in dense_reference.subsets(8, 3)
            ]
            permuted = phi[np.ix_(row_map, col_map)]
            assert np.max(np.abs(permuted - phi)) < 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            johnson.transporter(8, 3, 3, 0)  # needs k < k'
        with pytest.raises(ValueError):
            johnson.transporter(6, 2, 4, 0)  # needs k' <= n - k'

    def test_n_below_two_k_prime_is_refused_by_its_own_check(self):
        # irrep_projectors(7, 4) would refuse n < 2k' too, with another message.
        with pytest.raises(ValueError, match="need 0 <= j <= k < k' <= n - k', got n=7"):
            johnson.transporter(7, 2, 4, 0)


# sha256 over the subset masks and the reference vectors of every level
# 1 <= k <= (n-1)//2 with n <= 12, recorded while the vectors were still
# built from formal sums of frozensets.  The coefficients are integers, so
# each norm is an exact sum and the unit vectors are correctly rounded:
# the digest does not depend on the platform.
REFERENCE_DIGEST = "7867a02122a758506ac60de42d4281a8e7ed70f72acd62e717c49f9c92cdd01b"
REFERENCE_FIELDS = (
    "v", "v_tilde", "w_out", "w_in", "v_minus", "v_zero", "v_plus",
    "w_empty", "w_c", "w_d", "w_cd",
)


# sha256 over the projectors E_0..E_k of the 14 levels of the default verify
# instances, recorded while P_k was still taken from an SVD of the identity.
# Gamma and the transporters are built from these bits, and the round-off
# picks of DELTA_GEN and PSI_COEFFS in bench/verify_expected.csv rest on them.
# They come from LAPACK's SVD, so unlike the digest above this one holds for
# the numpy and OpenBLAS builds it was recorded with (numpy 2.4.6, OpenBLAS
# 0.3.31, x86-64).
PROJECTOR_DIGEST = "b80227917fcae9ea6c972973da47d7866e2ac78addba44452659ce73681500ae"
DEFAULT_LEVELS = sorted(
    {(n, level) for n, k, k_prime in DEFAULT_INSTANCES for level in (k, k_prime)}
)


def test_projector_bytes_are_pinned():
    assert len(DEFAULT_LEVELS) == 14
    digest = hashlib.sha256()
    for n, level in DEFAULT_LEVELS:
        for e in johnson.irrep_projectors(n, level):
            digest.update(e.tobytes())
    assert digest.hexdigest() == PROJECTOR_DIGEST


# sha256 over Gamma = adversary_matrix(inst, t) for the default verify
# instances at t = 1, 2, 3, each followed by the instance's transporters
# Phi_0..Phi_k.  Recorded while ``transporter`` still returned a wrapper
# around Phi_j, so Phi_j is read through ``assemble_adversary`` with the
# one-hot weights e_j: that sum is Phi_j whatever type carries it.  Built
# from the projectors above, it holds for the same numpy and OpenBLAS
# builds (numpy 2.4.6, OpenBLAS 0.3.31, x86-64).
ADVERSARY_DIGEST = "93842959d3b3bdb6931aecf4639bbb0bedecbf88238fadfcbc98a45495417286"


def test_adversary_and_transporter_bytes_are_pinned():
    digest = hashlib.sha256()
    for triple in DEFAULT_INSTANCES:
        inst = adversary.ProblemInstance(*triple)
        for t in (1.0, 2.0, 3.0):
            digest.update(bruteforce.adversary_matrix(inst, t).tobytes())
        phis = [johnson.transporter(*triple, j) for j in range(inst.k + 1)]
        for one_hot in np.eye(inst.k + 1):
            digest.update(adversary.assemble_adversary(one_hot, phis).tobytes())
    assert digest.hexdigest() == ADVERSARY_DIGEST


def _bit(element) -> int:
    return 1 << (element - 1)


def _bits(elements) -> int:
    return sum(map(_bit, elements))


class TestReferenceVectors:
    def test_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for n in range(3, 13):
            for k in range(1, (n - 1) // 2 + 1):
                digest.update(johnson.subset_basis(n, k).tobytes())
                for j in range(k + 1):
                    refs = johnson.reference_vectors(n, k, j)
                    for name in REFERENCE_FIELDS:
                        vec = getattr(refs, name)
                        if vec is not None:
                            digest.update(vec.tobytes())
        assert digest.hexdigest() == REFERENCE_DIGEST

    @pytest.mark.parametrize("n, k, j", [(8, 3, 1), (11, 4, 2), (12, 5, 1)])
    def test_one_pass_sums_equal_the_sums_of_single_terms(self, n, k, j):
        # The v_plus sum of block j, beside a one-term sum with another pair
        # count: one integer pass against term by term.
        masks = johnson.subset_basis(n, k)
        a0 = n - 2 * j
        sub = [(_bit(n - 2 * i + 2), _bit(n - 2 * i + 1)) for i in range(1, j)]
        ground = _bits(range(1, a0 + 1))
        terms = [
            (sub + [(_bit(a), _bit(a0 + 2)), (_bit(a2), _bit(a0 + 1))], ground & ~_bits((a, a2)))
            for a in range(1, a0 + 1)
            for a2 in range(1, a0 + 1)
            if a != a2
        ]
        short = ([(sub, ground)], _bit(a0 + 2), k - j)
        whole = johnson._signed_sums(masks, [(terms, 0, k - j - 1), short])
        single = sum(johnson._signed_sums(masks, [([term], 0, k - j - 1)])[0] for term in terms)
        assert whole.dtype == np.int64 and np.array_equal(whole[0], single)
        assert np.array_equal(whole[1], johnson._signed_sums(masks, [short])[0])
        assert np.any(whole[0]) and np.any(whole[1])

    @pytest.mark.parametrize(
        "terms, fixed",
        [
            ([([(3, 3)], {1})], ()),
            ([([(3, 2)], {1})], (2,)),
            ([([(3, 2)], {1}), ([(3, 4)], {4})], ()),
        ],
        ids=["pair", "fixed", "one-term-of-two"],
    )
    def test_overlapping_factors_raise(self, terms, fixed):
        terms = [([(_bit(a), _bit(b)) for a, b in pairs], _bits(free)) for pairs, free in terms]
        with pytest.raises(RuntimeError, match="overlap"):
            johnson._signed_sums(johnson.subset_basis(6, 2), [(terms, _bits(fixed), 1)])

    def test_uniform_at_block_zero(self):
        refs = johnson.reference_vectors(8, 2, 0)
        assert np.allclose(refs.v, 1.0 / math.sqrt(28.0), atol=1e-12)

    def test_unit_norms_and_orthogonality(self):
        refs = johnson.reference_vectors(8, 2, 1)
        for vec in (refs.v, refs.v_tilde, refs.w_out, refs.w_in,
                    refs.v_minus, refs.v_zero, refs.v_plus,
                    refs.w_empty, refs.w_c, refs.w_d, refs.w_cd):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(refs.w_out @ refs.w_in) < 1e-12
        assert abs(refs.v @ refs.v_tilde) < 1e-12

    def test_one_fixed_inner_product(self):
        refs = johnson.reference_vectors(8, 2, 1)
        assert refs.w_in @ refs.v == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_block_membership(self, n, k, kp):
        projectors = johnson.irrep_projectors(n, k)
        for j in range(k + 1):
            refs = johnson.reference_vectors(n, k, j)
            assert np.linalg.norm(projectors[j] @ refs.v - refs.v) < 1e-10
            if refs.v_tilde is not None:
                assert (
                    np.linalg.norm(projectors[j + 1] @ refs.v_tilde - refs.v_tilde)
                    < 1e-10
                )
            if j >= 1:
                assert (
                    np.linalg.norm(projectors[j - 1] @ refs.v_minus - refs.v_minus)
                    < 1e-10
                )
                assert (
                    np.linalg.norm(projectors[j] @ refs.v_zero - refs.v_zero)
                    < 1e-10
                )
                if refs.v_plus is not None:
                    assert (
                        np.linalg.norm(projectors[j + 1] @ refs.v_plus - refs.v_plus)
                        < 1e-10
                    )

    def test_families_span_same_subspaces(self):
        refs = johnson.reference_vectors(10, 3, 1)
        plane = np.outer(refs.w_out, refs.w_out) + np.outer(refs.w_in, refs.w_in)
        for vec in (refs.v, refs.v_tilde):
            assert np.linalg.norm(plane @ vec - vec) < 1e-10
        space = sum(
            np.outer(w, w) for w in (refs.w_empty, refs.w_c, refs.w_d, refs.w_cd)
        )
        for vec in (refs.v_minus, refs.v, refs.v_zero, refs.v_plus):
            assert np.linalg.norm(space @ vec - vec) < 1e-10

    def test_degenerate_members_absent_at_top_block(self):
        refs = johnson.reference_vectors(8, 2, 2)
        assert refs.v_tilde is None and refs.w_in is None and refs.w_out is None
        assert refs.v_plus is None and refs.w_cd is None
        assert refs.v_minus is not None and refs.v_zero is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            johnson.reference_vectors(6, 3, 1)  # needs n >= 2k+1
        with pytest.raises(ValueError):
            johnson.reference_vectors(8, 2, 3)  # needs j <= k


class TestTransporterActionTable:
    @pytest.mark.parametrize(
        "n,k,kp,j",
        [
            (8, 2, 3, 1),
            (8, 2, 3, 2),
            (9, 2, 3, 1),
            (10, 3, 4, 1),
            (10, 3, 4, 2),
            (10, 3, 4, 3),
            (12, 2, 4, 1),
            (12, 2, 4, 2),
        ],
    )
    def test_fixed_element_vectors_transport(self, n, k, kp, j):
        refs = johnson.reference_vectors(n, k, j)
        hats = johnson.reference_vectors(n, kp, j)
        phi = lambda i: johnson.transporter(n, k, kp, i)
        assert np.linalg.norm(phi(j - 1) @ hats.v_minus - refs.v_minus) < 1e-9
        assert np.linalg.norm(phi(j) @ hats.v - refs.v) < 1e-9
        assert np.linalg.norm(phi(j) @ hats.v_zero - refs.v_zero) < 1e-9
        if refs.v_plus is not None:
            assert np.linalg.norm(phi(j + 1) @ hats.v_plus - refs.v_plus) < 1e-9
        if refs.v_tilde is not None:
            assert np.linalg.norm(phi(j + 1) @ hats.v_tilde - refs.v_tilde) < 1e-9
        # Adjoints transport the other way.
        assert np.linalg.norm(phi(j).T @ refs.v - hats.v) < 1e-9


class TestBasisChangeTables:
    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_two_by_two_reflection(self, n, k, kp):
        for j in range(k + 1):
            t2, _ = johnson.basis_change_tables(n, k, j)
            assert np.linalg.det(t2) == pytest.approx(-1.0, abs=1e-12)
            assert np.max(np.abs(t2 @ t2.T - np.eye(2))) < 1e-12

    def test_known_entry(self):
        _, t4 = johnson.basis_change_tables(8, 2, 1)
        assert t4[1, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_orthogonality_10_3_2(self):
        _, t4 = johnson.basis_change_tables(10, 3, 2)
        assert np.max(np.abs(t4.T @ t4 - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_entries_match_constructed_vectors(self, n, k, kp):
        for j in range(k + 1):
            refs = johnson.reference_vectors(n, k, j)
            t2, t4 = johnson.basis_change_tables(n, k, j)
            if refs.w_out is not None:
                built = np.array(
                    [
                        [refs.w_out @ refs.v, refs.w_out @ refs.v_tilde],
                        [refs.w_in @ refs.v, refs.w_in @ refs.v_tilde],
                    ]
                )
                assert np.max(np.abs(built - t2)) < 1e-10
            if t4 is not None:
                rows = [refs.w_empty, refs.w_c, refs.w_d, refs.w_cd]
                cols = [refs.v_minus, refs.v, refs.v_zero, refs.v_plus]
                for a, w in enumerate(rows):
                    for b, v in enumerate(cols):
                        if w is not None and v is not None:
                            assert abs(float(w @ v) - t4[a, b]) < 1e-10

    def test_no_four_table_at_block_zero(self):
        _, t4 = johnson.basis_change_tables(8, 2, 0)
        assert t4 is None
