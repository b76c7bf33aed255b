import inspect
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from countbench import adversary, bruteforce, cli, johnson, linalg
from countbench.adversary import ProblemInstance
from countbench.cli import DEFAULT_INSTANCES
import dense_reference
from dense_reference import (
    col_psi,
    col_psi_psi_star,
    col_psi_star,
    index_of,
    row_psi,
    row_psi_psi_star,
    row_psi_star,
)

INST = ProblemInstance(8, 2, 3)


class TestPsiGram:
    def test_known_overlap(self):
        psi = bruteforce.psi_gram(INST)
        x = index_of(8, 2, {1, 2})
        assert psi[x, index_of(8, 3, {1, 2, 3})] == pytest.approx(2.0 / math.sqrt(6.0))
        assert psi[x, index_of(8, 3, {4, 5, 6})] == 0.0

    def test_row_sums_constant(self):
        psi = bruteforce.psi_gram(INST)
        sums = psi.sum(axis=1)
        assert np.max(sums) - np.min(sums) < 1e-10


class TestMembershipMask:
    def test_known_entries(self):
        x = index_of(8, 2, {1, 2})
        y = index_of(8, 3, {1, 2, 3})
        assert dense_reference.delta_membership_mask(INST, 3)[x, y] == 1.0
        assert dense_reference.delta_membership_mask(INST, 1)[x, y] == 0.0

    def test_entry_count_oracle(self):
        n, k, kp = INST.n, INST.k, INST.k_prime
        expected = math.comb(n - 1, k) * math.comb(n - 1, kp - 1) + math.comb(
            n - 1, k - 1
        ) * math.comb(n - 1, kp)
        mask = dense_reference.delta_membership_mask(INST, 5)
        assert int(mask.sum()) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dense_reference.delta_membership_mask(INST, 9)


class TestLift:
    def test_identity_row_lift_is_isometry(self):
        v = dense_reference.isometry(INST)
        size = math.comb(8, 2)
        assert v.shape == (size * 8, size)
        assert np.max(np.abs(v.T @ v - np.eye(size))) < 1e-12

    def test_row_composition_identity(self):
        rng = np.random.default_rng(2)
        psi_x = bruteforce.psi_matrix(8, 2)
        m = rng.standard_normal((math.comb(8, 2), math.comb(8, 3)))
        direct = row_psi_psi_star(m, 8, 2)
        staged = row_psi(row_psi_star(m, psi_x), psi_x)
        # Equal up to multiplication-order rounding.
        assert np.max(np.abs(direct - staged)) < 1e-15

    def test_col_composition_identity(self):
        rng = np.random.default_rng(3)
        psi_y = bruteforce.psi_matrix(8, 3)
        m = rng.standard_normal((math.comb(8, 2), math.comb(8, 3)))
        direct = col_psi_psi_star(m, 8, 3)
        staged = col_psi_star(col_psi(m, psi_y), psi_y)
        assert np.max(np.abs(direct - staged)) < 1e-15

    def test_state_gen_difference_matches_entry_definition(self):
        rng = np.random.default_rng(4)
        psi_x = bruteforce.psi_matrix(INST.n, INST.k)
        psi_y = bruteforce.psi_matrix(INST.n, INST.k_prime)
        gamma = bruteforce.adversary_matrix(INST, 2.0)
        forward = bruteforce.lift(gamma, INST, reverse=False)
        reverse = bruteforce.lift(gamma, INST, reverse=True)
        for _ in range(100):
            x = int(rng.integers(len(psi_x)))
            y = int(rng.integers(len(psi_y)))
            i = int(rng.integers(INST.n))
            expected = gamma[x, y] * (psi_x[x, i] - psi_y[y, i])
            assert forward[x * INST.n + i, y] == pytest.approx(expected, abs=1e-14)
            assert reverse[x, y * INST.n + i] == pytest.approx(expected, abs=1e-14)

    # C(n,k) rows of gamma: 6 = n, 28 and 220 not multiples of n, filled in
    # blocks of ceil(rows / n) = 1, 4 and 19 rows.
    @pytest.mark.parametrize("triple", [(6, 1, 2), (8, 2, 3), (12, 3, 4)])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("planted", ["signed-zeros", "adversary"])
    def test_kernel_is_the_one_sided_lift_difference_bit_for_bit(
        self, triple, reverse, planted
    ):
        inst = ProblemInstance(*triple)
        if planted == "adversary":
            gamma = bruteforce.adversary_matrix(inst, 2.0)
        else:
            gamma = _generic_gamma(inst, 5)
            draw = np.random.default_rng(6).random(gamma.shape)
            gamma[draw < 0.1], gamma[draw > 0.9] = 0.0, -0.0
        psi_x = bruteforce.psi_matrix(inst.n, inst.k)
        psi_y = bruteforce.psi_matrix(inst.n, inst.k_prime)
        if reverse:
            whole = row_psi_star(gamma, psi_x) - col_psi_star(gamma, psi_y)
        else:
            whole = row_psi(gamma, psi_x) - col_psi(gamma, psi_y)
        got = bruteforce.lift(gamma, inst, reverse)
        assert np.array_equal(got, whole)
        # The same bits, the signs of zero entries included, in the same layout.
        assert got.flags.c_contiguous and got.shape == whole.shape
        assert got.tobytes() == whole.tobytes()


class TestProjectionPair:
    def test_uniform_projector(self):
        pi0, pi1 = dense_reference.build_projection_pair(4)
        assert np.all(pi0 == 0.25)
        assert np.max(np.abs(pi0 @ pi1)) < 1e-12
        assert np.trace(pi1) == pytest.approx(3.0)
        for p in (pi0, pi1):
            assert np.max(np.abs(p @ p - p)) < 1e-12


class TestXi:
    def test_declared_zero_borders(self):
        assert np.all(bruteforce.build_xi(INST, 0, 1, -1) == 0.0)
        assert np.all(bruteforce.build_xi(INST, 0, 1, 0) == 0.0)
        assert np.all(bruteforce.build_xi(INST, INST.k, 1, 1) == 0.0)

    def test_partial_isometry(self):
        xi = bruteforce.build_xi(INST, 1, 0, 0)
        e1 = johnson.irrep_projectors(8, 2)[1]
        assert np.max(np.abs(xi.T @ xi - e1)) < 1e-9

    def test_invalid_channel(self):
        with pytest.raises(ValueError):
            bruteforce.build_xi(INST, 1, 0, 1)

    @pytest.mark.parametrize("hatted", [False, True])
    def test_normalisers_match_coefficients(self, hatted):
        size = INST.k_prime if hatted else INST.k
        coeffs = adversary.phi_components(INST.n, size, np.arange(size + 1))
        for comp, j, el, m in bruteforce._live_channels(size):
            raw = bruteforce._xi_raw(INST, j, el, m, hatted)
            norm = linalg.spectral_norm(raw)
            assert norm == pytest.approx(coeffs[j, comp], abs=1e-9)


    @pytest.mark.parametrize("hatted", [False, True])
    def test_raw_matches_isometry_product(self, hatted):
        # _xi_raw forms V E_j entrywise and Pi_ell as a block mean; the GEMM
        # against V and the dense Pi_ell on each length-n block give the same matrix.
        size = INST.k_prime if hatted else INST.k
        projectors = johnson.irrep_projectors(INST.n, size)
        v_iso = dense_reference.isometry(INST, hatted)
        for _, j, el, m in bruteforce._live_channels(size):
            pi = dense_reference.build_projection_pair(INST.n)[el]
            moved = dense_reference.kron_apply(projectors[j + m], v_iso @ projectors[j], INST.n)
            cols = moved.shape[1]
            want = np.matmul(pi, moved.reshape(-1, INST.n, cols)).reshape(-1, cols)
            got = bruteforce._xi_raw(INST, j, el, m, hatted)
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_channel_pass_builds_no_xi_and_memoises_the_second_check(self, monkeypatch):
        built = []
        original = bruteforce.build_xi

        def counting(inst, j, ell, m, hatted=False):
            built.append((j, ell, m, hatted))
            return original(inst, j, ell, m, hatted)

        monkeypatch.setattr(bruteforce, "build_xi", counting)
        bruteforce.clear_memos()
        first = bruteforce.verify("V_DECOMP", INST, t=1.0)
        second = bruteforce.verify("PHI_COMMUTE", INST, t=1.0)
        bruteforce.clear_memos()
        assert first.passed and second.passed
        assert not first.memoised and second.memoised
        # The channel pass works on block cores; no full-size Xi is built.
        assert built == []


DEFAULT = [ProblemInstance(*triple) for triple in DEFAULT_INSTANCES]


def _instance_id(inst):
    return f"{inst.n},{inst.k},{inst.k_prime}"


class TestPsiMatrix:
    @pytest.mark.parametrize("inst", DEFAULT, ids=_instance_id)
    def test_masks_match_the_per_subset_loop_bitwise(self, inst):
        for level in (inst.k, inst.k_prime):
            got = bruteforce.psi_matrix(inst.n, level)
            want = dense_reference.psi_matrix(inst.n, level)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_cached_arrays_are_read_only(self):
        for cached in (bruteforce.psi_matrix(INST.n, INST.k), bruteforce.psi_gram(INST)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0


def _plant_coefficient_error(monkeypatch, scaled: str) -> None:
    """Scale the channel coefficients by 1.01: every one, or only that of
    block j = 1, channel (ell, m) = (0, 0) on the k level."""
    original = adversary.phi_components

    def planted(n, k, j):
        out = np.array(original(n, k, j), dtype=float)
        if scaled == "all":
            out *= 1.01
        elif k == INST.k:
            out[1, 1] *= 1.01
        return out

    monkeypatch.setattr(adversary, "phi_components", planted)


class TestChannelPass:
    """The block-coordinate V_DECOMP/PHI_COMMUTE pass against the dense Xi channels."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        bruteforce.clear_memos()
        yield
        bruteforce.clear_memos()

    @pytest.mark.parametrize("inst", DEFAULT, ids=_instance_id)
    def test_matches_dense_on_default_instances(self, inst):
        got = dict(zip(("V_DECOMP", "PHI_COMMUTE"), bruteforce._channel_norms(inst)))
        dense = dense_reference.channel_checks(inst)
        for check in ("V_DECOMP", "PHI_COMMUTE"):
            assert abs(got[check] - dense[check]) <= 1e-12, check

    @pytest.mark.parametrize("scaled", ["one", "all"])
    def test_residual_norm_matches_dense_under_a_planted_coefficient_error(
        self, monkeypatch, scaled
    ):
        # A nonzero residual, so the agreement is not between two round-off
        # values.  V = sum c Xi with Frobenius-orthogonal channels, and a
        # normalised Xi on block j has ||Xi||_F^2 = d_j, so the residual is
        # -0.01 c Xi for one scaled coefficient.  Scaling all of them on a
        # level leaves ||R||_F^2 = 1e-4 sum_j d_j sum c^2 = 1e-4 N, since
        # each (c0, c1, c2, c3) has unit norm; the larger level, C(8, 3), wins.
        coefficient = adversary.phi_components(INST.n, INST.k, 1)[1]
        want = {
            "one": 0.01 * coefficient * math.sqrt(johnson.block_dimension(INST.n, 1)),
            "all": 0.01 * math.sqrt(math.comb(INST.n, INST.k_prime)),
        }[scaled]
        _plant_coefficient_error(monkeypatch, scaled)
        got = bruteforce._check_v_decomp(INST, 1.0, 0)[1]
        dense = dense_reference.channel_checks(INST)["V_DECOMP"]
        assert got == pytest.approx(want)
        assert abs(got - dense) <= 1e-12

    def test_planted_coefficient_error_fails_v_decomp(self, monkeypatch):
        coefficient = adversary.phi_components(INST.n, INST.k, 1)[1]
        _plant_coefficient_error(monkeypatch, "one")
        report = bruteforce.verify("V_DECOMP", INST, t=1.0)
        assert not report.passed
        # ||0.01 c Xi||_F, with ||Xi||_F^2 = d_1 = 7.
        assert report.discrepancy == pytest.approx(
            0.01 * coefficient * math.sqrt(johnson.block_dimension(INST.n, 1))
        )

    def test_planted_transporter_sign_fails_phi_commute(self, monkeypatch):
        original = johnson.transporter

        def planted(n, k, k_prime, j):
            phi = original(n, k, k_prime, j)
            return -phi if j == 1 else phi

        monkeypatch.setattr(johnson, "transporter", planted)
        report = bruteforce.verify("PHI_COMMUTE", INST, t=1.0)
        assert not report.passed
        # Channels that meet Phi_1 once turn S into -S: the difference
        # doubles, to 2 ||K||_F = 2 sqrt(d_j) for a normalised core K on
        # column block j.  The largest such block is j = 2, through the
        # channel (j, ell, m) = (2, 1, -1) into block 1.
        assert report.discrepancy == pytest.approx(
            2.0 * math.sqrt(johnson.block_dimension(INST.n, 2))
        )

    @pytest.mark.parametrize("inst", DEFAULT, ids=_instance_id)
    def test_phi_commute_compares_every_live_channel(self, inst):
        report = bruteforce.verify("PHI_COMMUTE", inst, t=1.0)
        assert report.details == {"channels_compared": len(bruteforce._live_channels(inst.k))}
        assert report.discrepancy == report.brute_force

    @pytest.mark.parametrize(
        "old, new",
        [("else level + 1", "else level - 1"), ("max(j, j + m) < top", "max(j, j - m) < top")],
        ids=["top-level-minus-1", "keeps-j-minus-m"],
    )
    def test_planted_short_channel_pass_fails_phi_commute(self, monkeypatch, old, new):
        # Either defect in _level_channels keeps fewer cores of level k, so
        # PHI_COMMUTE compares fewer channels; the ones it compares still
        # commute, and V_DECOMP, which sums every core's norm, still passes.
        # On every default instance only the channel count fails the row.
        source = inspect.getsource(bruteforce._level_channels)
        assert source.count(old) == 1
        namespace = dict(vars(bruteforce))
        exec(compile(source.replace(old, new), bruteforce.__file__, "exec"), namespace)
        monkeypatch.setattr(bruteforce, "_level_channels", namespace["_level_channels"])
        for inst in DEFAULT:
            report = bruteforce.verify("PHI_COMMUTE", inst, t=1.0)
            assert report.details["channels_compared"] < len(bruteforce._live_channels(inst.k))
            assert report.brute_force <= bruteforce.TOL_NORM
            assert report.discrepancy >= 1.0 and not report.passed
            assert bruteforce.verify("V_DECOMP", inst, t=1.0).passed
            bruteforce.clear_memos()

    @pytest.mark.parametrize("hatted", [False, True], ids=["k", "k-prime"])
    def test_a_levels_cores_share_one_buffer(self, hatted):
        # One allocation holds every kept core of a level, so dropping the
        # pass's result frees one block, not one per core.
        cores, _ = bruteforce._level_channels(INST.n, INST.k_prime, hatted)
        buffer = next(iter(cores.values())).base
        assert buffer is not None and buffer.flags.owndata
        assert all(core.base is buffer for core in cores.values())
        assert sum(core.size for core in cores.values()) == buffer.size

    def test_degenerate_channel_raises(self, monkeypatch):
        original = bruteforce.psi_matrix

        def zeroed(n, k):
            psi = original(n, k)
            return np.zeros_like(psi) if k == INST.k else psi

        monkeypatch.setattr(bruteforce, "psi_matrix", zeroed)
        with pytest.raises(ArithmeticError, match="degenerate"):
            bruteforce.verify("V_DECOMP", INST, t=1.0)


class TestBlockReadouts:
    """V_DECOMP, PHI_COMMUTE and DELTA_REFL read their norms off the Johnson blocks."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        bruteforce.clear_memos()
        yield
        bruteforce.clear_memos()

    @pytest.mark.parametrize("element", [0, 5, 9], ids=["first", "middle", "last"])
    def test_a_non_equivariant_defect_fails_v_decomp_on_the_frobenius_bound(
        self, monkeypatch, element
    ):
        # One perturbed superposition entry on the k' level of (10,3,4), in
        # the first row that holds ``element``: the residual is not scalar
        # on the Johnson blocks, and ||R||_F, which needs no structure,
        # catches it.  The value must be the full-size residual under the
        # same normalisers, so a pass that skips or reuses the slot of the
        # planted element fails.
        inst = ProblemInstance(10, 3, 4)
        original = bruteforce.psi_matrix
        row = int(np.flatnonzero(original(inst.n, inst.k_prime)[:, element])[0])

        def planted(n, k):
            psi = original(n, k)
            if k != inst.k_prime:
                return psi
            psi = psi.copy()
            psi[row, element] += 4e-8
            return psi

        monkeypatch.setattr(bruteforce, "psi_matrix", planted)
        report = bruteforce.verify("V_DECOMP", inst)
        assert report.discrepancy > 1.5 * bruteforce.TOL_NORM
        assert not report.passed
        dense = dense_reference.frobenius_residual(inst, hatted=True)
        assert abs(report.discrepancy - dense) <= 1e-12

    def test_runs_no_eigensolve(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("eigvalsh ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        inst = ProblemInstance(12, 3, 4)
        assert bruteforce._check_v_decomp(inst, 1.0, 0)[1] <= bruteforce.TOL_NORM
        assert bruteforce._check_phi_commute(inst, 1.0, 0)[1] <= bruteforce.TOL_NORM
        _, _, gap, details = bruteforce._check_delta_refl(inst, 2.0, 0)
        assert gap <= bruteforce.TOL_NORM
        assert details["structure_residual"] <= bruteforce.TOL_EXACT


class TestMembershipNorms:
    """DELTA_MEMB's norm at element n and its transposition gaps against gamma o Delta_i."""

    @staticmethod
    def _masked(inst, gamma):
        return np.array(
            [
                linalg.spectral_norm(gamma * dense_reference.delta_membership_mask(inst, i))
                for i in range(1, inst.n + 1)
            ]
        )

    @pytest.mark.parametrize("inst", DEFAULT, ids=_instance_id)
    def test_matches_the_masked_norm_on_default_instances(self, inst):
        for t in (1.0, 2.0, 3.0):
            gamma = bruteforce.adversary_matrix(inst, t)
            per_n, gaps = bruteforce._membership_norm(inst, gamma)
            want = self._masked(inst, gamma)
            assert abs(per_n - want[-1]) <= 1e-13
            # Gamma is S_n-equivariant: every transposition gap is round-off.
            assert gaps.shape == (inst.n - 1,) and gaps.max() <= 1e-13
            assert np.all(np.abs(want[:-1] - per_n) <= gaps + 1e-13)

    @pytest.mark.parametrize("inst", [INST, ProblemInstance(10, 3, 4)], ids=_instance_id)
    def test_matches_the_masked_norm_on_a_random_gamma(self, inst):
        # Not S_n-equivariant, so the per-element values differ, and every
        # one of them lies within per_n +- f_i.
        gamma = np.random.default_rng(11).standard_normal(bruteforce.psi_gram(inst).shape)
        per_n, gaps = bruteforce._membership_norm(inst, gamma)
        want = self._masked(inst, gamma)
        assert np.ptp(want) > 0.1
        assert abs(per_n - want[-1]) <= 1e-13
        assert np.all(np.abs(want[:-1] - per_n) <= gaps)

    def test_rescales_an_extreme_gamma_exactly(self):
        gamma = np.random.default_rng(12).standard_normal(bruteforce.psi_gram(INST).shape)
        plain_n, plain_gaps = bruteforce._membership_norm(INST, gamma)
        for power in (-600, 600):
            per_n, gaps = bruteforce._membership_norm(INST, gamma * 2.0**power)
            assert per_n == plain_n * 2.0**power
            assert np.array_equal(gaps, plain_gaps * 2.0**power)

    @pytest.mark.parametrize("i", [1, 4, 7])
    def test_a_defect_in_another_elements_block_fails(self, monkeypatch, i):
        # x = {a,b} within y = {a,b,i}, with a, b outside {i, n}, disagree on
        # element i alone, so entry (x, y) lies in the block of element i and
        # of no other, not n's.  i = n - 1 is the last gap f_i.
        a, b = [e for e in range(1, INST.n) if e != i][:2]
        x, y = index_of(INST.n, INST.k, (a, b)), index_of(INST.n, INST.k_prime, (a, b, i))
        original = bruteforce.adversary_matrix

        def planted(inst, t):
            gamma = original(inst, t)
            gamma[x, y] += 1e-6
            return gamma

        monkeypatch.setattr(bruteforce, "adversary_matrix", planted)
        bruteforce.clear_memos()
        try:
            report = bruteforce.verify("DELTA_MEMB", INST, t=2.0)
        finally:
            bruteforce.clear_memos()
        per_n, gaps = bruteforce._membership_norm(INST, planted(INST, 2.0))
        assert per_n == bruteforce._membership_norm(INST, original(INST, 2.0))[0]
        # The norm at n is untouched; the gap f_i carries the whole defect.
        assert np.argmax(gaps) == i - 1 and gaps[i - 1] > 0.9e-6
        assert report.discrepancy > 0.9e-6 and report.details["spread_over_i"] > 1.8e-6
        assert not report.passed


class TestLevelMemos:
    """A defect planted after a clean run on the same level still fails.

    ``bruteforce.clear_memos``, which every test that plants a defect
    calls, empties the per-level and per-instance memos.
    """

    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        bruteforce.clear_memos()
        yield
        bruteforce.clear_memos()

    def test_rank_mismatch_planted_after_a_clean_run_fails(self, monkeypatch):
        # (10,2,3) and (10,3,4) share the (10,3) family; the planted rank of
        # block 3 breaks it (and the (10,4) one), not the (10,2) one.
        siblings = (ProblemInstance(10, 2, 3), ProblemInstance(10, 3, 4))
        for inst in siblings:
            assert bruteforce.verify("PROJECTORS", inst).passed
        original = johnson.block_dimension

        def planted(n, j):
            return -1 if (n, j) == (10, 3) else original(n, j)

        monkeypatch.setattr(johnson, "block_dimension", planted)
        bruteforce.clear_memos()
        for inst in siblings:
            report = bruteforce.verify("PROJECTORS", inst)
            assert report.details["ranks_match"] is False and not report.passed

    def test_coefficient_error_planted_after_a_clean_run_fails(self, monkeypatch):
        # (8,1,3) and (8,2,3) share the k' = 3 channel pass; only that level's
        # coefficients are planted, so only that pass can fail.
        siblings = (ProblemInstance(8, 1, 3), INST)
        for inst in siblings:
            assert bruteforce.verify("V_DECOMP", inst).passed
        original = adversary.phi_components

        def planted(n, k, j):
            out = np.array(original(n, k, j), dtype=float)
            return out * 1.01 if k == 3 else out

        monkeypatch.setattr(adversary, "phi_components", planted)
        bruteforce.clear_memos()
        for inst in siblings:
            report = bruteforce.verify("V_DECOMP", inst)
            assert not report.passed and report.discrepancy > 1e-3


DEFAULT_LEVELS = sorted({(i.n, level) for i in DEFAULT for level in (i.k, i.k_prime)})


class TestLiveChannels:
    @pytest.mark.parametrize("n, level", DEFAULT_LEVELS, ids=lambda v: str(v))
    def test_live_channels_are_the_raw_channels_that_do_not_vanish(self, n, level):
        # Every channel whose blocks j and j + m exist, formed from its
        # definition: the live ones, and only those, have a raw norm above 1e-3.
        inst = next(i for i in DEFAULT if i.n == n and level in (i.k, i.k_prime))
        hatted = level == inst.k_prime
        norms = {
            (j, el, m): np.linalg.norm(bruteforce._xi_raw(inst, j, el, m, hatted))
            for j in range(level + 1)
            for el, m in bruteforce.XI_CHANNELS
            if 0 <= j + m <= level
        }
        live = bruteforce._live_channels(level)
        assert len(set(live)) == len(live)
        assert all(bruteforce.XI_CHANNELS[comp] == (el, m) for comp, _, el, m in live)
        assert {(j, el, m) for _, j, el, m in live} == {
            channel for channel, norm in norms.items() if norm > 1e-3
        }
        # Pi_1 of block 0, the uniform vector, is zero.
        assert norms[0, 1, 0] <= 1e-12


class TestBlockBases:
    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        bruteforce.clear_memos()
        yield
        bruteforce.clear_memos()

    @pytest.mark.parametrize("n, level", DEFAULT_LEVELS, ids=lambda v: str(v))
    def test_orthonormal_block_bases_from_one_eigh(self, monkeypatch, n, level):
        # One eigh per level, and each E_j's trace read once.
        projectors = johnson.irrep_projectors(n, level)
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(np.linalg, "eigh")
        count(np, "trace")
        record = bruteforce._level(n, level)
        assert calls == {"eigh": 1, "trace": level + 1}
        q_all, edges = record.q_all, record.edges
        assert np.max(np.abs(q_all.T @ q_all - np.eye(len(q_all)))) <= 1e-12
        for j, e_j in enumerate(projectors):
            q_j = q_all[:, edges[j] : edges[j + 1]]
            assert q_j.shape[1] == record.dims[j] == johnson.block_dimension(n, j)
            assert np.max(np.abs(e_j @ q_j - q_j)) <= 1e-12

    def test_a_non_orthogonal_family_fails_the_block_dimension(self, monkeypatch):
        # E_1 + E_2 in place of E_1: L = E_1 + 3 E_2 has no eigenvalue 2, and
        # block 1 finds d_1 eigenvectors against a trace of d_1 + d_2.
        e0, e1, e2 = johnson.irrep_projectors(INST.n, INST.k)
        original = johnson.irrep_projectors
        monkeypatch.setattr(
            johnson, "irrep_projectors",
            lambda m, k: (e0, e1 + e2, e2) if (m, k) == (INST.n, INST.k) else original(m, k),
        )
        with pytest.raises(ArithmeticError, match="block 1 of level 2"):
            bruteforce._level(INST.n, INST.k)


def _scaled_block_one(family):
    e = list(family)
    e[1] = e[1] * (1 + 1e-6)
    return tuple(e)


def _asymmetric_entry(family):
    e = list(family)
    e[1] = e[1].copy()
    e[1][0, 1] += 1e-6
    return tuple(e)


def _moved_rank(family):
    # A unit vector of block 2 moves into block 1: still a complete
    # orthogonal family of projectors, but with ranks d_1 + 1 and d_2 - 1.
    e = list(family)
    v = e[2][:, 0] / np.linalg.norm(e[2][:, 0])
    e[1], e[2] = e[1] + np.outer(v, v), e[2] - np.outer(v, v)
    return tuple(e)


class TestProjectorFamilyGap:
    """PROJECTORS' two products over the block eigenbasis against the pairwise family gap."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        bruteforce.clear_memos()
        yield
        bruteforce.clear_memos()

    def test_both_gaps_vanish_on_every_default_level(self):
        assert len(DEFAULT_LEVELS) == 14
        for n, level in DEFAULT_LEVELS:
            record = bruteforce._level(n, level)
            gap, rank_ok = record.projector_gap, record.ranks_match
            dense_gap, dense_rank_ok = dense_reference.projector_family_gap(
                n, johnson.irrep_projectors(n, level)
            )
            assert rank_ok and dense_rank_ok
            assert gap <= bruteforce.TOL_EXACT and dense_gap <= bruteforce.TOL_EXACT

    @pytest.mark.parametrize("plant", [_scaled_block_one, _asymmetric_entry, _moved_rank])
    def test_a_planted_defect_fails_both(self, monkeypatch, plant):
        n, level = 8, 2
        family = plant(johnson.irrep_projectors(n, level))
        original = johnson.irrep_projectors
        monkeypatch.setattr(
            johnson, "irrep_projectors",
            lambda m, k: family if (m, k) == (n, level) else original(m, k),
        )
        record = bruteforce._level(n, level)
        for gap, rank_ok in (
            (record.projector_gap, record.ranks_match),
            dense_reference.projector_family_gap(n, family),
        ):
            assert gap > bruteforce.TOL_EXACT or not rank_ok
            # The two defects of size 1e-6 leave the ranks, the moved vector the gaps.
            assert rank_ok is (plant is not _moved_rank)
        assert not bruteforce.verify("PROJECTORS", INST).passed


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """tracemalloc peaks at (12,3,4), with the cached Johnson objects built first.

    The first two caps leave about 25% headroom over 30.5 MB for the
    channel pass, with a buffer for each whole row block, and 21.8 MB for
    DELTA_GEN with two whole lifted arrays.  Storing the whole residual
    took 98 MB, and DELTA_GEN with a third lifted array 32 MB.  One ground
    element's slot at a time, and with one lifted array, they measure 12.3
    and 13.3 MB.  The channel pass read 18.4 MB while PHI_COMMUTE held each
    core difference beside its two terms, 16.1 MB with the difference
    subtracted in place, and 12.3 MB one ground slice of it at a time (9.3
    against 5.4 MB with the k' pass memoised).  DELTA_GEN's eigensolves
    ran beside their lifted difference, 13.3 and 11.7 MB live; the
    difference is now freed once its Gram exists, 2.8 and 1.3 MB live.
    DELTA_MEMB's transposition gaps took 5.1 MB with every element's image
    blocks gathered at once, and 1.0 MB one element at a time.  A whole
    n = 12 sweep peaked at 33.7 MB under V_DECOMP with the inclusion
    matrices cached, and at 30.7 MB under DELTA_GEN's Gram without them.
    With the projector families freed before the DELTA_GEN rows, those
    rows read 18.2 MB and the sweep peaked at 28.6 MB, under the channel
    pass of (12,3,4).  With the families freed before the channel pass
    too, the sweep peaked at 23.5 MB, under DELTA_REFL at (12,3,4), whose
    block scalars still read the three cached families.  With every
    family read in the build step and freed before the first row, the
    sweep peaks at 19.4 MB in the n = 12 build step, building the (12,4)
    family and its block bases; V_DECOMP at (12,3,4) reads 19.2 MB and
    DELTA_GEN 18.2 MB.
    """

    INST = ProblemInstance(12, 3, 4)

    @pytest.fixture(autouse=True)
    def warm_caches(self):
        # The Johnson objects warm, the channel pass memos empty.
        bruteforce.clear_memos()
        inst = self.INST
        for j in range(inst.k + 1):
            johnson.transporter(inst.n, inst.k, inst.k_prime, j)
        for level in (inst.k, inst.k_prime):
            bruteforce.psi_matrix(inst.n, level)

    def test_channel_pass(self):
        assert _traced_peak(lambda: bruteforce._channel_norms(self.INST)) <= 37e6

    def test_delta_gen(self):
        assert _traced_peak(lambda: bruteforce._check_delta_gen(self.INST, 2.0, 0)) <= 27e6

    def test_delta_gen_holds_one_lifted_array(self):
        # 13.3 MB: one 10.5 MB lifted difference, filled by row blocks of gamma.
        assert _traced_peak(lambda: bruteforce._check_delta_gen(self.INST, 2.0, 0)) <= 16e6

    def test_channel_pass_one_slot_at_a_time(self):
        # The k' = 4 level alone: 11.1 MB one ground element at a time, with
        # the mean slot and one reused N x N slot buffer, and the gather of
        # each element dropped before the next (11.7 MB kept).  10.2 MB in
        # chunks of Q_r columns; 16.1 MB with the three N x N slot-group and
        # residual Grams, 25.7 MB with a 14.2 MB buffer for the whole row
        # block r = 4.
        inst = self.INST
        peak = _traced_peak(lambda: bruteforce._level_channels(inst.n, inst.k_prime, True))
        assert peak <= 12.8e6

    def test_delta_memb(self):
        # 1.0 MB: element n's two blocks (0.36 MB) and one image block at a time.
        gamma = bruteforce.adversary_matrix(self.INST, 2.0)
        assert _traced_peak(lambda: bruteforce._membership_norm(self.INST, gamma)) <= 2e6

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="the lifted difference is freed before the solve only where a callee "
        "holds the only reference to a temporary passed to it (CPython 3.11+)",
    )
    def test_delta_gen_solves_without_its_lifted_difference(self, monkeypatch):
        # Live memory at each eigensolve: 2.8 and 1.3 MB; the 10.5 MB forward
        # lifted difference is gone once its Gram exists.
        live = []
        eigvalsh = np.linalg.eigvalsh

        def spy(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        _traced_peak(lambda: bruteforce._check_delta_gen(self.INST, 2.0, 0))
        assert len(live) == 2 and max(live) <= 4e6

    def test_phi_commute_one_ground_slice_at_a_time(self):
        # The k' pass and both levels' records memoised: 5.4 MB, the k pass
        # and one ground slice of a core difference at a time.
        inst = self.INST
        bruteforce._hatted_level_channels(inst.n, inst.k_prime)
        for level in (inst.k, inst.k_prime):
            bruteforce._level(inst.n, level)
        assert _traced_peak(lambda: bruteforce._channel_norms(inst)) <= 7e6

    def test_sweep_at_n_12(self, tmp_path):
        # Every default check and t at (12,2,4) and (12,3,4), from empty
        # caches: 19.4 MB, set by the n = 12 build step, which builds the
        # (12,4) family and reads it before the first row.  DELTA_REFL at
        # (12,3,4) set 23.5 MB while its block scalars read the three cached
        # families, the channel pass 28.6 MB while they stayed cached under
        # it, and DELTA_GEN 30.7 MB under its lifted differences.
        bruteforce.clear_memos()
        johnson.clear_caches()
        argv = ["verify", "--instance", "12,2,4", "--instance", "12,3,4", "--out", str(tmp_path)]
        codes = []
        assert _traced_peak(lambda: codes.append(cli.main(argv))) <= 20.7e6
        assert codes == [0]


# Instances of the t > k gates: the n <= 10 default ones and two with k' = k + 1.
ABOVE_K = [i for i in DEFAULT if i.n <= 10] + [ProblemInstance(7, 2, 3), ProblemInstance(9, 3, 4)]


class TestCutoffAboveK:
    """At t > k the k' level's block k+1 carries g_k c0'_{k+1} (``adversary._row_past_k``)."""

    @pytest.mark.parametrize("check", ["DELTA_GEN", "DELTA_REFL"])
    @pytest.mark.parametrize("offset", ["k+0.5", "2k+1", "100"])
    @pytest.mark.parametrize("inst", ABOVE_K, ids=_instance_id)
    def test_closed_forms_pass(self, inst, offset, check):
        t = {"k+0.5": inst.k + 0.5, "2k+1": 2.0 * inst.k + 1.0, "100": 100.0}[offset]
        report = bruteforce.verify(check, inst, t=t)
        assert report.passed, (report.closed_form, report.brute_force)

    @pytest.mark.parametrize("inst, t", [(INST, 5.0), (INST, 100.0), (ProblemInstance(9, 3, 4), 7.0)])
    def test_block_k_plus_one_of_the_brute_force_grams(self, inst, t):
        # On block k+1 of level k', the forward state-generation Gram D^T D
        # and the reflection remainder Gram E both read row^2 times identity.
        row = adversary._row_past_k(adversary.gamma_schedule(t, inst.k)[inst.k], inst)
        gamma = bruteforce.adversary_matrix(inst, t)
        psi_hat = bruteforce.psi_matrix(inst.n, inst.k_prime)
        diff = bruteforce.lift(gamma, inst, reverse=False)
        overlap = gamma * bruteforce.psi_gram(inst)
        remainder = (gamma.T @ gamma) * (psi_hat @ psi_hat.T) - overlap.T @ overlap
        record = bruteforce._level(inst.n, inst.k_prime)
        q = record.q_all[:, record.edges[inst.k + 1] : record.edges[inst.k + 2]]
        for gram in (diff.T @ diff, remainder):
            assert np.max(np.abs(q.T @ gram @ q - row**2 * np.eye(q.shape[1]))) <= 1e-13


GENERIC = [ProblemInstance(7, 1, 2), INST, ProblemInstance(9, 2, 3)]


def _generic_gamma(inst, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((math.comb(inst.n, inst.k), math.comb(inst.n, inst.k_prime)))


def _inclusion_gamma(inst, seed):
    """Generic weights on the pairs x subset of y, zero elsewhere.

    On those pairs <psi_x, psi-hat_y>^2 = k/k', the largest overlap, so the
    split's remainder Grams keep only 1 - k/k' of their diagonals.
    """
    xm = johnson.subset_basis(inst.n, inst.k)
    ym = johnson.subset_basis(inst.n, inst.k_prime)
    inside = (xm[:, None] & ym[None, :]) == xm[:, None]
    return np.where(inside, _generic_gamma(inst, seed), 0.0)


class TestReflectionLiftNorm:
    """The split DELTA_REFL norm against the dense lifted difference."""

    @staticmethod
    def dense_norm(inst, gamma):
        lifted = row_psi_psi_star(gamma, inst.n, inst.k) - col_psi_psi_star(
            gamma, inst.n, inst.k_prime
        )
        return linalg.spectral_norm(lifted)

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("inst", DEFAULT, ids=_instance_id)
    def test_matches_dense_on_default_instances(self, inst, t):
        brute = bruteforce.verify("DELTA_REFL", inst, t=t).brute_force
        dense = self.dense_norm(inst, bruteforce.adversary_matrix(inst, t))
        assert abs(brute - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("inst", GENERIC, ids=_instance_id)
    @pytest.mark.parametrize(
        "planted", [_generic_gamma, _inclusion_gamma], ids=["generic", "inclusion"]
    )
    def test_matches_dense_on_a_generic_matrix(self, inst, planted):
        # This gamma is not equivariant, so the block readout does not apply;
        # the remainder Grams' exact top eigenvalues still give the norm.
        gamma = planted(inst, 23)
        got = dense_reference.remainder_gram_norm(inst, gamma)
        dense = self.dense_norm(inst, gamma)
        assert abs(got - dense) <= 1e-12 * dense

    def test_a_non_equivariant_gamma_fails_on_the_structure_residual(self, monkeypatch):
        # A 1e-9 perturbation moves the norm by far less than TOL_NORM, but the
        # remainder Grams are no longer scalar on the blocks.
        original = bruteforce.adversary_matrix

        def planted(inst, t):
            gamma = original(inst, t)
            return gamma + 1e-9 * np.random.default_rng(31).standard_normal(gamma.shape)

        monkeypatch.setattr(bruteforce, "adversary_matrix", planted)
        bruteforce.clear_memos()
        try:
            report = bruteforce.verify("DELTA_REFL", INST, t=2.0)
        finally:
            bruteforce.clear_memos()
        assert report.discrepancy <= bruteforce.TOL_NORM
        assert report.details["structure_residual"] > bruteforce.TOL_EXACT
        assert not report.passed

    @pytest.mark.parametrize("inst", DEFAULT, ids=_instance_id)
    def test_the_split_cancels_the_off_diagonal_block(self, inst):
        # A V-hat + V^T B = 0 for any gamma, with A = row_psi_star(gamma)
        # and B = -col_psi(gamma); both sides equal gamma o psi_gram.
        gamma = _generic_gamma(inst, 29)
        v, v_hat = dense_reference.isometry(inst), dense_reference.isometry(inst, hatted=True)
        a_v_hat = row_psi_star(gamma, bruteforce.psi_matrix(inst.n, inst.k)) @ v_hat
        v_b = -v.T @ col_psi(gamma, bruteforce.psi_matrix(inst.n, inst.k_prime))
        bound = 1e-14 * np.max(np.abs(gamma))
        assert np.max(np.abs(a_v_hat + v_b)) <= bound
        assert np.max(np.abs(a_v_hat - gamma * bruteforce.psi_gram(inst))) <= bound

    @pytest.mark.parametrize("power", [600, -600])
    def test_extreme_scales(self, power):
        gamma = bruteforce.adversary_matrix(INST, 2.0)
        want, want_residual = bruteforce._reflection_lift_norm(INST, gamma)
        got, residual = bruteforce._reflection_lift_norm(INST, gamma * 2.0**power)
        assert abs(got / 2.0**power - want) <= 1e-15 * want
        assert residual == want_residual

    def test_builds_no_lifted_array(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("DELTA_REFL built a lifted array or ran a QR")

        monkeypatch.setattr(bruteforce, "lift", unreachable)
        monkeypatch.setattr(np.linalg, "qr", unreachable)
        assert bruteforce.verify("DELTA_REFL", ProblemInstance(12, 3, 4), t=2.0).passed


def projector_family(size, dims, seed):
    """Orthogonal projectors onto the consecutive column blocks of a random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((size, size)))
    edges = np.cumsum([0, *dims])
    return [q[:, lo:hi] @ q[:, lo:hi].T for lo, hi in zip(edges[:-1], edges[1:])]


class TestDenseBlockScalars:
    """The dense block readout that the class-sum reader is gated against."""

    DIMS = (1, 9, 30, 60)

    def test_reads_a_block_scalar_gram(self):
        projectors = projector_family(100, self.DIMS, 1)
        want = np.array([0.5, 3.0, 2.0, 0.25])
        gram = sum(m_j * e for m_j, e in zip(want, projectors))
        m, residual = dense_reference.block_scalars(gram, projectors)
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
        m, residual = dense_reference.block_scalars(gram, projectors)
        assert np.max(np.abs(m - scalars)) <= 1e-13
        assert residual == pytest.approx(np.linalg.norm(off), rel=1e-12)
        assert residual > 0.1
        assert abs(top - m.max()) <= residual


def _remainder_grams(inst, gamma):
    """DELTA_REFL's two remainder Grams with their levels: (C, k) and (E, k')."""
    c, e, _ = bruteforce._reflection_remainder_grams(inst, gamma)
    return ((c, inst.k), (e, inst.k_prime))


class TestClassSumReader:
    """DELTA_REFL's block scalars from class sums against the dense block readout."""

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n, level", DEFAULT_LEVELS)
    def test_matches_the_dense_readout_on_every_default_level(self, n, level, t):
        family = johnson.irrep_projectors(n, level)
        grams = [
            gram
            for inst in DEFAULT
            if inst.n == n
            for gram, at in _remainder_grams(inst, bruteforce.adversary_matrix(inst, t))
            if at == level
        ]
        assert grams
        for gram in grams:
            want, want_residual = dense_reference.block_scalars(gram, family)
            got, residual = bruteforce._block_scalars(gram.copy(), n, level)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # Both residuals are Frobenius norms at round-off, relative to the
            # Gram's; the dense one also carries the family's own round-off
            # (1.7e-14 against 6.9e-16 for the E Gram of (12,3,4) at t = 2,
            # of norm 0.38).
            assert abs(residual - want_residual) <= 1e-13 * np.linalg.norm(gram)

    @pytest.mark.parametrize("inst", GENERIC, ids=_instance_id)
    def test_matches_the_dense_readout_on_a_generic_gram(self, inst):
        # Every E_j is constant on each class, so for any M, equivariant or
        # not, sum_j m_j E_j is the class function the reader subtracts:
        # the scalars and the residual both match.
        for gram, level in _remainder_grams(inst, _generic_gamma(inst, 37)):
            want, want_residual = dense_reference.block_scalars(
                gram, johnson.irrep_projectors(inst.n, level)
            )
            got, residual = bruteforce._block_scalars(gram.copy(), inst.n, level)
            scale = float(np.linalg.norm(gram))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
            assert abs(residual - want_residual) <= 1e-12 * scale
            assert residual > 1e-3 * scale

    def test_a_non_equivariant_gamma_fails_delta_refl_in_a_sweep(self, tmp_path, monkeypatch):
        # The families are freed before the row; the class tables read in
        # the build step still leave a planted defect in the residual.
        original = bruteforce.adversary_matrix

        def planted(inst, t):
            gamma = original(inst, t)
            return gamma + 1e-9 * np.random.default_rng(41).standard_normal(gamma.shape)

        monkeypatch.setattr(bruteforce, "adversary_matrix", planted)
        bruteforce.clear_memos()
        reports = bruteforce.sweep([ProblemInstance(12, 3, 4)], (2.0,), ("DELTA_REFL",))
        bruteforce.clear_memos()
        [report] = reports
        assert report.discrepancy <= bruteforce.TOL_NORM
        assert report.details["structure_residual"] > bruteforce.TOL_EXACT
        assert not report.passed

    def test_default_sweep_discrepancies_stay_at_round_off(self):
        # Pairwise class sums: 1.8e-15 at most, where the dense readout read
        # 2.1e-15 and sums that add one entry at a time read 2.5e-13.
        bruteforce.clear_memos()
        worst = max(
            bruteforce.verify("DELTA_REFL", inst, t).discrepancy
            for inst in DEFAULT
            for t in cli.DEFAULT_T_VALUES
        )
        bruteforce.clear_memos()
        assert worst <= 4e-15

    def test_forms_no_second_gram(self):
        # One band of rows at a time: the E Gram of (12,3,4), 1.96 MB, read
        # with its level record built, peaks at 1.24 MB.
        inst = ProblemInstance(12, 3, 4)
        (_, _), (gram, level) = _remainder_grams(inst, bruteforce.adversary_matrix(inst, 2.0))
        bruteforce._level(inst.n, level)
        peak = _traced_peak(lambda: bruteforce._block_scalars(gram, inst.n, level))
        assert peak < gram.nbytes


class TestKronApply:
    @pytest.mark.parametrize("seed", [17, 18])
    @pytest.mark.parametrize(
        "shape", [(4, 4), (math.comb(6, 1), math.comb(6, 2))], ids=["square", "transporter"]
    )
    def test_matches_dense_kron(self, shape, seed):
        n = 6
        rng = np.random.default_rng(seed)
        block_op = rng.standard_normal(shape)
        m = rng.standard_normal((shape[1] * n, 7))
        got = dense_reference.kron_apply(block_op, m, n)
        want = np.kron(block_op, np.eye(n)) @ m
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


class TestVerify:
    @pytest.mark.parametrize("check", bruteforce.CHECK_IDS)
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_all_checks_pass_8_2_3(self, check, t):
        ell = int(t) // 2 if check == "PSI_POWER" else 0
        report = bruteforce.verify(check, INST, t=t, ell=ell)
        assert report.passed, (check, t, report.discrepancy)

    def test_psi_coeffs_tight(self):
        report = bruteforce.verify("PSI_COEFFS", INST, t=2.0)
        assert report.discrepancy <= 1e-9

    def test_v_decomp_tight(self):
        report = bruteforce.verify("V_DECOMP", INST, t=1.0)
        assert report.discrepancy <= 1e-9

    def test_phi_commute_tight(self):
        report = bruteforce.verify("PHI_COMMUTE", INST, t=1.0)
        assert report.discrepancy <= 1e-9

    def test_norm_gamma_rank_one_schedule(self):
        report = bruteforce.verify("NORM_GAMMA", INST, t=1.0)
        assert report.closed_form == 1.0
        assert report.brute_force == pytest.approx(1.0, abs=1e-10)

    def test_gamma_is_one_read_only_array_per_cutoff(self):
        bruteforce.clear_memos()
        gamma = bruteforce._adversary_matrix(INST, 2.0)
        assert bruteforce._adversary_matrix(INST, 2.0) is gamma
        assert not gamma.flags.writeable
        assert gamma.tobytes() == bruteforce.adversary_matrix(INST, 2.0).tobytes()
        assert bruteforce._adversary_matrix(INST, 3.0) is not gamma
        bruteforce.clear_memos()

    def test_delta_memb_uniform_over_elements(self):
        report = bruteforce.verify("DELTA_MEMB", INST, t=2.0)
        assert report.details["spread_over_i"] <= 1e-10

    def test_hadamard_step_against_projection(self):
        stepped = adversary.hadamard_psi_step(adversary.gamma_schedule(2.0, INST.k), INST)
        gamma = bruteforce.adversary_matrix(INST, 2.0)
        had = gamma * bruteforce.psi_gram(INST)
        for j, e_j in enumerate(johnson.irrep_projectors(INST.n, INST.k)):
            phi = johnson.transporter(INST.n, INST.k, INST.k_prime, j)
            projected = float(np.sum(phi * had)) / int(round(float(np.trace(e_j))))
            assert projected == pytest.approx(stepped[j], abs=1e-9)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_gram_power_coefficients_match_iterated_step(self, ell):
        t = 2.0 * ell
        coeffs = adversary.gamma_schedule(t, INST.k)
        for _ in range(ell):
            coeffs = adversary.hadamard_psi_step(coeffs, INST)
        had = bruteforce.adversary_matrix(INST, t) * bruteforce.psi_gram(INST) ** ell
        for j, e_j in enumerate(johnson.irrep_projectors(INST.n, INST.k)):
            phi = johnson.transporter(INST.n, INST.k, INST.k_prime, j)
            projected = float(np.sum(phi * had)) / int(round(float(np.trace(e_j))))
            assert projected == pytest.approx(coeffs[j], abs=1e-8)

    def test_psi_power_requires_schedule_room(self):
        with pytest.raises(ValueError):
            bruteforce.verify("PSI_POWER", INST, t=1.0, ell=1)

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            bruteforce.verify("NOPE", INST)

    def test_size_cap(self, monkeypatch):
        # The cap is checked before any Johnson object of the instance is built.
        def unreachable(*args):
            raise AssertionError("built an object of an oversized instance")

        for name in ("subset_basis", "irrep_projectors", "transporter"):
            monkeypatch.setattr(johnson, name, unreachable)
        for check in ("NORM_GAMMA", "DELTA_GEN", "V_DECOMP"):
            with pytest.raises(ValueError, match="exceeds cap"):
                bruteforce.verify(check, ProblemInstance(16, 2, 7), t=2.0)

    def test_rank_mismatch_fails_projectors(self, monkeypatch):
        # No separate rank re-check in verify: the forced gap of 1 fails it.
        monkeypatch.setattr(johnson, "block_dimension", lambda n, j: -1)
        bruteforce.clear_memos()
        try:
            report = bruteforce.verify("PROJECTORS", INST)
        finally:
            bruteforce.clear_memos()
        assert report.details["ranks_match"] is False
        assert report.discrepancy >= 1.0 and not report.passed

    def test_degenerate_instance_rejected(self):
        with pytest.raises(ValueError):
            bruteforce.verify("NORM_GAMMA", ProblemInstance(8, 3, 3))

    def test_report_fields(self):
        report = bruteforce.verify("NORM_GAMMA", INST, t=3.0)
        assert (report.n, report.k, report.k_prime) == (8, 2, 3)
        assert report.t == 3.0 and report.ell == 0
        assert report.tolerance == bruteforce.TOL_NORM
        assert report.wall_ms >= 0.0


class TestFeasibilityAgainstBruteForce:
    def test_report_quantities_match_explicit_matrices(self):
        # The feasibility report is assembled from closed forms; every entry
        # must coincide with the directly built matrix quantities.
        feas = adversary.dual_feasibility_report(INST, t=2.0, ell=1)
        gamma = bruteforce.adversary_matrix(INST, 2.0)
        assert feas.gamma_norm == pytest.approx(linalg.spectral_norm(gamma), abs=1e-9)
        per_i = [
            linalg.spectral_norm(gamma * dense_reference.delta_membership_mask(INST, i))
            for i in range(1, INST.n + 1)
        ]
        assert feas.membership_norm == pytest.approx(per_i[0], abs=1e-8)
        psi_x = bruteforce.psi_matrix(INST.n, INST.k)
        psi_y = bruteforce.psi_matrix(INST.n, INST.k_prime)
        fwd = linalg.spectral_norm(row_psi(gamma, psi_x) - col_psi(gamma, psi_y))
        rev = linalg.spectral_norm(row_psi_star(gamma, psi_x) - col_psi_star(gamma, psi_y))
        assert feas.state_gen_norm == pytest.approx(max(fwd, rev), abs=1e-8)
        refl = linalg.spectral_norm(
            row_psi_psi_star(gamma, INST.n, INST.k)
            - col_psi_psi_star(gamma, INST.n, INST.k_prime)
        )
        assert feas.reflection_norm == pytest.approx(refl, abs=1e-8)
        brute_power = linalg.spectral_norm(gamma * bruteforce.psi_gram(INST))
        assert brute_power >= feas.psi_power_bound - 1e-9
