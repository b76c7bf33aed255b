import importlib.util
import math
import re
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countbench import adversary, bruteforce, johnson, linalg
from countbench.adversary import ProblemInstance
from dense_reference import unit_norm_error

SWEEP = [(6, 1, 2), (7, 1, 2), (8, 2, 3), (9, 2, 3), (10, 2, 3), (10, 3, 4),
         (12, 2, 4), (12, 3, 4)]
CHUNK = adversary.CHUNK_ROWS


def bench_bounds_points(seeds=(1, 2, 3), seconds=30):
    """(instance, t, ell) of every bounds point the benchmark plans at these seeds."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    points = []
    for seed in seeds:
        for argv in workloads.bounds_plan(seed, seconds):
            n, k, eps, ell, ell_prime = (float(argv[i]) for i in range(2, 12, 2))
            t = adversary.theorem_tradeoff(n, k, eps, ell, ell_prime)["t_choice"]
            points.append((ProblemInstance.from_eps(int(n), int(k), eps), max(1.0, t), int(ell)))
    return points


class TestProblemInstance:
    def test_eps_and_regime(self):
        inst = ProblemInstance(8, 2, 3)
        assert inst.eps == pytest.approx(0.5)
        assert not inst.theorem_regime  # n < 5k' scale, eps fine but n=8 < 10
        assert ProblemInstance(1000, 100, 110).theorem_regime

    def test_from_eps(self):
        assert ProblemInstance.from_eps(8, 2, 0.5) == ProblemInstance(8, 2, 3)
        # (1 + 0.1) * 1e8 = 110000000.00000001: the round-off is relative to k'.
        assert ProblemInstance.from_eps(10**9, 10**8, 0.1).k_prime == 110_000_000
        with pytest.raises(ValueError):
            ProblemInstance.from_eps(20, 3, 0.5)  # 4.5 not an integer
        with pytest.raises(ValueError):
            ProblemInstance.from_eps(10**9, 10**8, 0.1 + 5e-9)  # off by 0.5

    @pytest.mark.parametrize(
        "k, eps, message",
        [
            (10, 0.0, "eps must be finite and positive, got 0.0"),
            (10, math.nan, "eps must be finite and positive, got nan"),
            # (1 + 1e-12) * 10 rounds to k' = k: both hypotheses would have one size.
            (10, 1e-12, "k' = (1+eps)k = 10 is not above k = 10"),
            (10, 1e308, "k' = (1+eps)k overflows, with k = 10, eps = 1e+308"),
            (10**400, 1.0, "k' = (1+eps)k overflows, with k = 1" + "0" * 400),
        ],
        ids=["zero-eps", "nan-eps", "k-prime-equals-k", "eps-overflows", "k-overflows"],
    )
    def test_from_eps_needs_a_whole_k_prime_above_k(self, k, eps, message):
        ProblemInstance(10**401, k, k)  # the closed-form limit k' = k stays constructible
        with pytest.raises(ValueError, match=re.escape(message)):
            adversary.k_prime(k, eps)
        with pytest.raises(ValueError, match=re.escape(message)):
            ProblemInstance.from_eps(10**401, k, eps)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(8, 3, 2)
        with pytest.raises(ValueError):
            ProblemInstance(6, 2, 3)  # n < 2k'+1
        with pytest.raises(ValueError):
            ProblemInstance(8, 0, 2)

    def test_degenerate_equal_sizes_allowed_for_closed_forms(self):
        inst = ProblemInstance(8, 3, 3)
        assert inst.eps == 0.0


class TestPhiTable:
    def test_block_zero_closed_form(self):
        phi, _ = adversary.phi_table(ProblemInstance(8, 2, 3), 3)
        assert np.allclose(
            phi[0], [0.0, 0.5, 0.0, math.sqrt(6.0 / 8.0)], atol=1e-12
        )

    def test_component_one_is_sqrt_k_over_n(self):
        phi, _ = adversary.phi_table(ProblemInstance(8, 2, 3), 3)
        assert phi[1, 1] == pytest.approx(0.5, abs=1e-15)

    def test_top_block_unit_norm(self):
        phi, _ = adversary.phi_table(ProblemInstance(8, 2, 3), 3)
        assert np.linalg.norm(phi[2]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_unit_norm_claim_across_sweep(self, n, k, kp):
        assert unit_norm_error(adversary.phi_table(ProblemInstance(n, k, kp), k + 1)) <= 1e-12

    def test_rejects_a_level_whose_products_leave_float64(self):
        # (n+2)^2 size = 2e311; the old products read c0 = 0 and c3 = NaN.
        with pytest.raises(ValueError, match=r"at n=1e\+104, size=2e\+103"):
            adversary.phi_components(10**104, 2 * 10**103, np.arange(3))

    def test_zero_entries_at_block_zero(self):
        phi, phi_prime = adversary.phi_table(ProblemInstance(10, 3, 4), 4)
        assert phi[0, 0] == 0.0 and phi_prime[0, 0] == 0.0
        assert phi[0, 2] == 0.0 and phi_prime[0, 2] == 0.0


def all_weights(gammas, k):
    """gamma_0..gamma_k, the ones past the stored array reading 0."""
    return np.pad(gammas, (0, k + 1 - len(gammas)))


class TestGammaSchedule:
    def test_t_one_is_indicator(self):
        gammas = adversary.gamma_schedule(1.0, 4)
        assert np.allclose(all_weights(gammas, 4), [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_t_two(self):
        gammas = adversary.gamma_schedule(2.0, 5)
        assert np.allclose(all_weights(gammas, 5), [1.0, 0.5, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "t, k",
        [(1.0, 4), (2.0, 5), (3.0, 3), (2.5, 9), (7.99, 10), (2.0, 10**12), (1e6, 3),
         (1e300, 2)],
    )
    def test_holds_only_the_live_weights(self, t, k):
        gammas = adversary.gamma_schedule(t, k)
        assert len(gammas) == min(k, math.floor(t) + 1) + 1
        if len(gammas) < k + 1:
            assert gammas[-1] == 0.0  # gamma_{floor(t)+1}, the last live one

    def test_t_equals_k(self):
        k = 6
        gammas = adversary.gamma_schedule(float(k), k)
        assert np.allclose(gammas, 1.0 - np.arange(k + 1) / k)
        assert np.all(np.diff(gammas) < 0)

    def test_out_of_range_reads_zero(self):
        gammas = adversary.gamma_schedule(10.0, 2)
        # gamma_3 is not stored and reads 0, even though 1 - 3/10 > 0.
        assert len(gammas) == 3
        phi, phi_prime = adversary.phi_table(ProblemInstance(8, 2, 3), 3)
        tilde, tilde_prime = adversary.tilde_tables(gammas, phi, phi_prime)
        assert phi_prime[2, 3] > 0.0 and tilde_prime[2, 3] == 0.0  # g_3 slot
        assert tilde[0, 0] == 0.0 and tilde_prime[0, 0] == 0.0  # g_{-1} slot

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            adversary.gamma_schedule(0.5, 3)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_live_rows_refuses_a_non_finite_cutoff(self, t):
        # At t = inf every weight is 1; the schedule kept all k + 1 rows.
        with pytest.raises(ValueError, match="cutoff parameter must be finite"):
            adversary.live_rows(t, 10)

    def test_row_cap_admits_its_own_count(self, monkeypatch):
        monkeypatch.setattr(adversary, "MAX_ROWS", 5)
        assert len(adversary.gamma_schedule(3.0, 10)) == 5
        with pytest.raises(ValueError, match="6 rows exceed cap MAX_ROWS = 5"):
            adversary.gamma_schedule(4.0, 10)
        # An instance no other test tabulates, so no cached table answers.
        with pytest.raises(ValueError, match="6 rows exceed cap MAX_ROWS = 5"):
            adversary.phi_table(ProblemInstance(41, 10, 13), 6)

    def test_tilde_boundary_conventions(self):
        inst = ProblemInstance(8, 2, 3)
        phi, phi_prime = adversary.phi_table(inst, inst.k + 1)
        # Large t: every in-range weight is positive, yet the top row's last
        # entry must still read the forced zero weight past the block range.
        gammas = adversary.gamma_schedule(100.0, inst.k)
        tilde, tilde_prime = adversary.tilde_tables(gammas, phi, phi_prime)
        assert tilde[0, 0] == 0.0 and tilde_prime[0, 0] == 0.0
        assert tilde[inst.k, 3] == 0.0 and tilde_prime[inst.k, 3] == 0.0
        assert np.all(tilde[1 : inst.k + 1, :3] > 0.0)


class TestAssembly:
    def test_t_one_gives_constant_matrix(self):
        inst = ProblemInstance(8, 2, 3)
        gamma = bruteforce.adversary_matrix(inst, 1.0)
        expected = 1.0 / math.sqrt(math.comb(8, 2) * math.comb(8, 3))
        assert np.allclose(gamma, expected, atol=1e-12)

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    def test_spectral_norm_is_top_weight(self, t):
        inst = ProblemInstance(8, 2, 3)
        assert linalg.spectral_norm(bruteforce.adversary_matrix(inst, t)) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_projection_recovers_weight(self):
        inst = ProblemInstance(8, 2, 3)
        gamma = bruteforce.adversary_matrix(inst, 2.0)
        phi_1 = johnson.transporter(8, 2, 3, 1)
        d_1 = int(round(float(np.trace(johnson.irrep_projectors(8, 2)[1]))))
        assert float(np.sum(phi_1 * gamma)) / d_1 == pytest.approx(0.5, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        gammas = adversary.gamma_schedule(2.0, 2)
        transporters = [johnson.transporter(8, 2, 3, j) for j in range(2)]
        with pytest.raises(ValueError, match="one per weight"):
            adversary.assemble_adversary(gammas, transporters)

    def test_shape_mismatch_rejected(self):
        gammas = adversary.gamma_schedule(2.0, 2)
        transporters = [johnson.transporter(8, 2, 3, j) for j in range(2)]
        transporters.append(johnson.transporter(9, 2, 3, 2))
        with pytest.raises(ValueError, match="shape"):
            adversary.assemble_adversary(gammas, transporters)


class TestHadamardStep:
    def test_tridiagonal_support(self):
        inst = ProblemInstance(10, 3, 4)
        for j in range(4):
            basis_vec = np.zeros(4)
            basis_vec[j] = 1.0
            out = adversary.hadamard_psi_step(basis_vec, inst)
            support = {i for i, c in enumerate(out) if abs(c) > 1e-15}
            assert support <= {j - 1, j, j + 1}

    def test_symmetric_forms_agree(self):
        inst = ProblemInstance(8, 2, 3)
        gammas = adversary.gamma_schedule(2.0, 2)
        phi, phi_prime = adversary.phi_table(inst, 3)
        tilde, tilde_prime = adversary.tilde_tables(gammas, phi, phi_prime)
        for j in range(3):
            left = float(phi[j] @ tilde_prime[j])
            right = float(phi_prime[j] @ tilde[j])
            assert left == pytest.approx(right, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adversary.hadamard_psi_step([1.0, 0.0, 0.0, 0.0], ProblemInstance(8, 2, 3))

    def test_missing_trailing_coefficients_read_zero(self):
        inst = ProblemInstance(10, 3, 4)
        full = adversary.hadamard_psi_step([1.0, 0.5, 0.0, 0.0], inst)
        assert np.array_equal(adversary.hadamard_psi_step([1.0, 0.5], inst), full)


def overlap(inst, j):
    """D_j, the inner product of the plain and primed coefficient rows at block j."""
    phi, phi_prime = adversary.phi_table(inst, inst.k + 1)
    return float(phi[j] @ phi_prime[j])


class TestOverlap:
    def test_degenerate_instance_has_unit_overlap(self):
        inst = ProblemInstance(8, 3, 3)
        for j in range(4):
            assert overlap(inst, j) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value_8_2_3(self):
        # By substitution: sqrt(2/8) sqrt(3/8) + sqrt(6/8) sqrt(5/8)
        # = (sqrt(6) + sqrt(30)) / 8.
        expected = (math.sqrt(6.0) + math.sqrt(30.0)) / 8.0
        assert overlap(ProblemInstance(8, 2, 3), 0) == pytest.approx(
            expected, abs=1e-14
        )

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_cauchy_schwarz(self, n, k, kp):
        inst = ProblemInstance(n, k, kp)
        for j in range(k + 1):
            assert overlap(inst, j) <= 1.0 + 1e-12


class TestPsiPowerBound:
    def test_empty_power(self):
        assert whole_gram_power_bound(ProblemInstance(8, 2, 3), 1.0, 0) == 0.5

    def test_two_step_value(self):
        inst = ProblemInstance(8, 2, 3)
        d = min(overlap(inst, j) for j in range(3))
        assert whole_gram_power_bound(inst, 4.0, 2) == pytest.approx(
            d**2 / 2.0
        )

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_recurrence_iterate_dominates_bound(self, ell):
        inst = ProblemInstance(8, 2, 3)
        t = 2.0 * ell
        coeffs = adversary.gamma_schedule(t, inst.k)
        for _ in range(ell):
            coeffs = adversary.hadamard_psi_step(coeffs, inst)
        bound = whole_gram_power_bound(inst, t, ell)
        assert float(np.max(np.abs(coeffs))) >= bound - 1e-12

    def test_requires_t_at_least_two_ell(self):
        with pytest.raises(ValueError):
            adversary.gram_power_rows(ProblemInstance(8, 2, 3), 1.0, 1)
        with pytest.raises(ValueError):
            adversary.dual_feasibility_report(ProblemInstance(8, 2, 3), 1.0, 1)

    def test_vecdot_rounds_as_the_row_loop_on_bench_points(self):
        for inst, t, ell in bench_bounds_points():
            want = loop_gram_power_bound(inst, ell)
            assert whole_gram_power_bound(inst, t, ell) == want
            assert adversary.dual_feasibility_report(inst, t, ell).psi_power_bound == want

    @pytest.mark.parametrize("ell", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 10**5])
    def test_vecdot_rounds_as_the_row_loop_at_large_ell(self, ell):
        # Rows j <= ell: the report's blocks end at multiples of CHUNK_ROWS.
        inst = ProblemInstance(10**7, 2 * 10**5, 2 * 10**5 + 3)
        want = loop_gram_power_bound(inst, ell)
        assert whole_gram_power_bound(inst, 2.0 * ell, ell) == want
        assert adversary.dual_feasibility_report(inst, 2.0 * ell, ell).psi_power_bound == want


def whole_rows(inst, t):
    """`closed_rows` over the whole schedule at cutoff t, as verify reads it."""
    return adversary.closed_rows(inst, t, 0, adversary.live_rows(t, inst.k))


def whole_gram_power_bound(inst, t, ell):
    """The Gram-power bound from one whole-schedule `closed_rows` call, as PSI_POWER reads it."""
    overlap = whole_rows(inst, t).overlap[: adversary.gram_power_rows(inst, t, ell)]
    return adversary.gram_power_bound(float(overlap.min()), ell)


def loop_gram_power_bound(inst, ell):
    """Reference for the Gram-power bound: D from one ``p @ q`` per row j <= min(ell, k)."""
    phi, phi_prime = adversary.phi_table(inst, min(ell, inst.k) + 1)
    d = min(float(p @ q) for p, q in zip(phi, phi_prime))
    return d**ell / 2.0


class TestDeltaNorms:
    def test_state_gen_symmetric_at_eps_zero(self):
        inst = ProblemInstance(8, 3, 3)
        forward, reverse = adversary.norm_delta_state_gen(inst, 2.0)
        assert forward == pytest.approx(reverse, abs=1e-14)
        assert forward > 0.0  # the 1/t weight offsets survive

    def test_state_gen_t_one_support(self):
        # With t = 1 only blocks 0 and 1 carry weight; truncating the table
        # beyond block 1 must not change the value.
        inst = ProblemInstance(10, 3, 4)
        phi, _, g, _, tilde_prime = full_rows(inst, 1.0)
        per_j = np.linalg.norm(tilde_prime - g[:, None] * phi, axis=1)
        full, _ = adversary.norm_delta_state_gen(inst, 1.0)
        assert full == pytest.approx(float(np.max(per_j[:2])), abs=1e-14)

    @pytest.mark.parametrize(
        "n, k, kp, t", [(8, 2, 3, 5.0), (8, 2, 3, 100.0), (9, 3, 4, 7.0), (20, 3, 6, 4.5)]
    )
    def test_row_past_k_closed_form(self, n, k, kp, t):
        # g_k c0'_{k+1}, with c0'_{k+1}^2 = (k+1)(k'-k)(n-k'-k) / ((n-2k)(n-2k-1)k').
        inst = ProblemInstance(n, k, kp)
        gammas = adversary.gamma_schedule(t, k)
        c0_sq = (k + 1) * (kp - k) * (n - kp - k) / ((n - 2 * k) * (n - 2 * k - 1) * kp)
        want = (1.0 - k / t) * math.sqrt(c0_sq)
        assert adversary._row_past_k(gammas[k], inst) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "n, k, kp, t", [(10, 3, 4, 1.0), (10, 3, 4, 2.5), (10, 3, 4, 3.0), (9, 3, 3, 5.0)]
    )
    def test_row_past_k_vanishes_unless_t_exceeds_k_below_k_prime(self, n, k, kp, t):
        # t <= k gives g_k = 0; k' = k leaves the k' level without a block k+1.
        inst = ProblemInstance(n, k, kp)
        assert adversary._row_past_k(loop_gamma(t, k, k), inst) == 0.0

    def test_reflection_vanishes_at_eps_zero_large_t(self):
        inst = ProblemInstance(8, 3, 3)
        assert adversary.norm_delta_reflection(inst, 1e6) < 1e-5

    def test_reflection_t_one_explicit_blocks(self):
        inst = ProblemInstance(8, 2, 3)
        p = adversary.phi_components(8, 2, 0)
        q = adversary.phi_components(8, 3, 0)
        block0 = np.zeros((4, 4))
        block0[1, 1] = q[1] ** 2 - p[1] ** 2
        block0[1, 3] = -p[1] * p[3]
        block0[3, 1] = q[1] * q[3]
        p1 = adversary.phi_components(8, 2, 1)
        q1 = adversary.phi_components(8, 3, 1)
        block1 = np.zeros((4, 4))
        block1[0, 0] = q1[0] ** 2 - p1[0] ** 2
        block1[0, 1:] = -p1[0] * p1[1:]
        block1[1:, 0] = q1[0] * q1[1:]
        expected = max(
            np.linalg.svd(block0, compute_uv=False)[0],
            np.linalg.svd(block1, compute_uv=False)[0],
        )
        assert adversary.norm_delta_reflection(inst, 1.0) == pytest.approx(
            expected, abs=1e-14
        )

    def test_membership_t_one_frozen_value(self):
        inst = ProblemInstance(8, 2, 3)
        assert adversary.norm_delta_membership(inst, 1.0) == pytest.approx(
            math.sqrt(18.0) / 8.0, abs=1e-14
        )

    def test_membership_eps_zero_offsets(self):
        inst = ProblemInstance(9, 4, 4)
        n, k = 9, 4
        expected = max(
            math.sqrt((k - j) * (n - k - j))
            * abs(loop_gamma(2.0, k, j) - loop_gamma(2.0, k, j + 1))
            / (n - 2 * j)
            for j in range(k + 1)
        )
        assert adversary.norm_delta_membership(inst, 2.0) == pytest.approx(
            expected, abs=1e-14
        )

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_membership_monotone_in_t_within_support(self, n, k, kp):
        # Monotone decrease in t holds while the schedule support stays
        # inside the block range (t <= k); beyond that the top-block weight
        # 1 - k/t grows with t and its boundary branch takes over, e.g.
        # (8,2,3) gives 0.250 at t=4 but 0.375 at t=8.
        inst = ProblemInstance(n, k, kp)
        values = [
            adversary.norm_delta_membership(inst, t)
            for t in (1.0, 2.0, 4.0, 8.0)
            if t <= k
        ]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    @pytest.mark.parametrize("n,k,kp", [(50, 10, 12), (101, 20, 24), (80, 16, 18)])
    def test_membership_monotone_in_t_at_regime_scale(self, n, k, kp):
        inst = ProblemInstance(n, k, kp)
        values = [
            adversary.norm_delta_membership(inst, t)
            for t in (1.0, 2.0, 4.0, 8.0)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_schedule_support_truncation(self, n, k, kp):
        # Blocks beyond t+1 contribute nothing to any of the four norms.
        inst = ProblemInstance(n, k, kp)
        for t in (1.0, 2.0):
            _, _, _, tilde, tilde_prime = full_rows(inst, t)
            cut = int(t) + 2
            assert np.all(tilde[cut:] == 0.0) and np.all(tilde_prime[cut:] == 0.0)
            assert len(adversary.gamma_schedule(t, k)) == min(cut, k + 1)


class TestDualFeasibility:
    def test_trivial_point(self):
        report = adversary.dual_feasibility_report(ProblemInstance(8, 2, 3), 1.0, 0)
        assert report.gamma_norm == 1.0
        assert report.psi_power_bound == 0.5
        assert report.feasible

    def test_finite_positive_quantities(self):
        report = adversary.dual_feasibility_report(ProblemInstance(8, 2, 3), 2.0, 1)
        for value in (report.T1, report.T2, report.T3):
            assert 0.0 < value < math.inf
        assert report.membership_norm == pytest.approx(1.0 / report.T1)

    def test_threshold_flag(self):
        report = adversary.dual_feasibility_report(ProblemInstance(6, 1, 2), 6.0, 3)
        assert report.psi_power_bound < 0.25
        assert not report.feasible

    @pytest.mark.parametrize(
        "triple, t, ell",
        [((8, 2, 3), 2.0, 1), ((100, 5, 6), 8.0, 4), ((1000, 10, 15), 60.0, 30),
         ((10**6, 5000, 5500), 2 * CHUNK + 0.5, CHUNK)],
        ids=["t-below-k", "t-above-k", "ell-above-k", "three-blocks"],
    )
    def test_each_row_is_tabled_once_per_report(self, monkeypatch, triple, t, ell):
        # The Gram-power bound and both difference norms read one phi_table
        # and one tilde_tables row per schedule row, and give the bits each
        # gives alone.
        rows = Counter()
        for name in ("phi_table", "tilde_tables"):
            original = getattr(adversary, name)

            def counting(*args, _name=name, _original=original):
                out = _original(*args)
                rows[_name] += len(out[0])
                return out

            monkeypatch.setattr(adversary, name, counting)
        inst = ProblemInstance(*triple)
        report = adversary.dual_feasibility_report(inst, t, ell)
        gammas = adversary.gamma_schedule(t, inst.k)
        assert rows == {"phi_table": len(gammas), "tilde_tables": len(gammas)}
        assert report.psi_power_bound == whole_gram_power_bound(inst, t, ell)
        assert report.state_gen_pair == adversary.norm_delta_state_gen(inst, t)
        assert report.reflection_norm == adversary.norm_delta_reflection(inst, t)

    def test_nothing_is_held_after_a_point_returns(self):
        # 1e5 rows: one cached coefficient table pair alone would hold 6.4 MB.
        tracemalloc.start()
        try:
            for n in (10**8, 10**8 + 1):
                inst = ProblemInstance.from_eps(n, 10**7, 2e-6)
                adversary.dual_feasibility_report(inst, t=1e5, ell=0)
                assert tracemalloc.get_traced_memory()[0] <= 1e6
        finally:
            tracemalloc.stop()


def whole_schedule_values(inst, t, ell):
    """The report's norms from one `closed_rows` call on the whole schedule."""
    rows = whole_rows(inst, t)
    return (
        float(rows.gamma.max()),
        whole_gram_power_bound(inst, t, ell),
        float(rows.membership.max()),
        (float(rows.forward.max()), float(rows.reverse.max())),
        float(rows.reflection.max()),
    )


def report_values(report):
    return (report.gamma_norm, report.psi_power_bound, report.membership_norm,
            report.state_gen_pair, report.reflection_norm)


def blockwise_rows(inst, t):
    """`closed_rows` over CHUNK_ROWS-row blocks of the schedule, each array concatenated."""
    live, step = adversary.live_rows(t, inst.k), adversary.CHUNK_ROWS
    blocks = [adversary.closed_rows(inst, t, start, min(start + step, live))
              for start in range(0, live, step)]
    return adversary.ClosedRows(*(np.concatenate(arrays) for arrays in zip(*blocks)))


def assert_same_bits(got, want):
    for name, a, b in zip(adversary.ClosedRows._fields, got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestBlockWalk:
    """The report walks the schedule in CHUNK_ROWS-row blocks; it must not show."""

    # A schedule at t < k keeps floor(t) + 2 rows, so t = rows - 1.5 gives
    # exactly `rows`; k = CHUNK at t > k keeps k + 1 rows and block k + 1.
    @pytest.mark.parametrize(
        "triple, t, ell",
        [
            *[((10**6, 5000, 5500), rows - 1.5, 3)
              for rows in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)],
            ((10**5, CHUNK, CHUNK + 100), 1.5 * CHUNK, 5),
            ((10**6, 5000, 5001), 2 * CHUNK + 0.5, CHUNK),
        ],
        ids=["chunk-1", "chunk", "chunk+1", "2chunk+1", "t-above-k", "ell-crosses-edge"],
    )
    def test_report_equals_the_whole_schedule_to_the_bit(self, triple, t, ell):
        inst = ProblemInstance(*triple)
        report = adversary.dual_feasibility_report(inst, t, ell)
        assert report_values(report) == whole_schedule_values(inst, t, ell)

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_three_row_blocks_on_the_sweep(self, monkeypatch, n, k, kp):
        # Blocks of 3 rows put an edge next to row k, the row past k and
        # every Gram-power range of the default sweep.
        monkeypatch.setattr(adversary, "CHUNK_ROWS", 3)
        inst = ProblemInstance(n, k, kp)
        for t in (1.0, 1.5, 2.0, 3.0, 4.5, 2.0 * k + 1):
            for ell in range(int(t // 2) + 1):
                report = adversary.dual_feasibility_report(inst, t, ell)
                assert report_values(report) == whole_schedule_values(inst, t, ell)

    @pytest.mark.parametrize(
        "triple, t",
        [
            *[((10**6, 5000, 5500), rows - 1.5)
              for rows in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)],
            ((10**5, CHUNK, CHUNK + 100), 1.5 * CHUNK),
            ((10**6, 5000, 5001), 2 * CHUNK + 0.5),
        ],
        ids=["chunk-1", "chunk", "chunk+1", "2chunk+1", "t-above-k", "ell-crosses-edge"],
    )
    def test_block_rows_concatenate_to_the_whole_schedule(self, triple, t):
        inst = ProblemInstance(*triple)
        assert_same_bits(blockwise_rows(inst, t), whole_rows(inst, t))

    @pytest.mark.parametrize("n,k,kp", SWEEP)
    def test_three_row_block_rows_on_the_sweep(self, monkeypatch, n, k, kp):
        monkeypatch.setattr(adversary, "CHUNK_ROWS", 3)
        inst = ProblemInstance(n, k, kp)
        for t in (1.0, 1.5, 2.0, 3.0, 4.5, 2.0 * k + 1):
            assert_same_bits(blockwise_rows(inst, t), whole_rows(inst, t))

    def test_the_row_cap_counts_the_rows_of_a_block(self, monkeypatch):
        # 60 rows in 16-row blocks under a 64-row cap: the last block, rows
        # 48..59, is 12 rows, not 48 + 60.
        inst = ProblemInstance(1000, 100, 150)
        want = adversary.dual_feasibility_report(inst, 58.5, 0)
        monkeypatch.setattr(adversary, "MAX_ROWS", 64)
        monkeypatch.setattr(adversary, "CHUNK_ROWS", 16)
        assert adversary.live_rows(58.5, inst.k) == 60
        assert adversary.dual_feasibility_report(inst, 58.5, 0) == want

    def test_working_memory_does_not_grow_with_the_schedule(self, monkeypatch):
        # With 64-row blocks, 1e5 rows need no more than 2.5e4 rows do; the
        # weights alone of the extra rows would be 600 kB.
        monkeypatch.setattr(adversary, "CHUNK_ROWS", 64)
        inst = ProblemInstance.from_eps(10**8, 10**7, 2e-6)
        adversary.dual_feasibility_report(inst, 100.0, 0)
        peaks = []
        for t in (2.5e4, 1e5):
            tracemalloc.start()
            try:
                adversary.dual_feasibility_report(inst, t, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


class TestTheoremTradeoff:
    def test_hand_case_base(self):
        report = adversary.theorem_tradeoff(1e6, 1e4, 0.1, 0, 0)
        assert report["membership_bound"] == pytest.approx(100.0, rel=1e-12)
        assert report["copies_bound"] == pytest.approx(1000.0, rel=1e-12)
        assert report["state_generation_bound"] == pytest.approx(100.0, rel=1e-12)
        assert report["reflection_bound"] == pytest.approx(100.0, rel=1e-12)
        assert report["fifth_case_threshold"] == pytest.approx(10.0, rel=1e-12)
        assert report["fifth_case_reflection"] == pytest.approx(
            math.sqrt(1e5), rel=1e-12
        )
        assert report["t_choice"] == pytest.approx(2.0, rel=1e-12)
        assert report["regime_n"] and report["regime_eps"]

    def test_hand_case_small_eps(self):
        report = adversary.theorem_tradeoff(1e6, 1e4, 0.01, 0, 0)
        assert report["copies_bound"] == pytest.approx(1e4, rel=1e-12)
        assert report["state_generation_bound"] == pytest.approx(
            10 ** (8.0 / 3.0), rel=1e-12
        )
        assert report["membership_bound"] == pytest.approx(1000.0, rel=1e-12)
        assert report["t_choice"] == pytest.approx(20.0, rel=1e-12)

    def test_hand_case_with_copies(self):
        report = adversary.theorem_tradeoff(320, 64, 1.0, ell=2, ell_prime=3)
        assert report["copies_bound"] == pytest.approx(5.0, rel=1e-12)
        assert report["state_generation_bound"] == pytest.approx(
            math.sqrt(5.0), rel=1e-12
        )
        assert report["reflection_bound"] == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert report["fifth_case_reflection"] == pytest.approx(8.0, rel=1e-12)
        assert report["t_choice"] == pytest.approx(24.0, rel=1e-12)  # cprime * ell_prime

    def test_eps_one_copies_branch(self):
        report = adversary.theorem_tradeoff(100, 16, 1.0, 0, 0)
        assert report["copies_bound"] == pytest.approx(min(16.0, 4.0, 100.0 / 16.0))

    def test_dropped_terms_read_infinite(self):
        # `bounds` prints these as null (test_cli).
        report = adversary.theorem_tradeoff(1e6, 1e4, 0.1, 0, 0)
        assert report["state_generation_terms"]["sqrt_k_over_ell_over_eps"] == math.inf
        assert report["reflection_terms"]["sqrt_k_over_copies_over_eps"] == math.inf

    def test_underflowing_k_eps2_reads_infinite(self):
        report = adversary.theorem_tradeoff(100, 10, 1e-170)
        assert report["copies_terms"]["n_over_k_eps2"] == math.inf
        assert report["copies_bound"] == 10.0

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            adversary.theorem_tradeoff(0, 10, 0.1)
        with pytest.raises(ValueError):
            adversary.theorem_tradeoff(100, 10, 0.0)
        with pytest.raises(ValueError):
            adversary.theorem_tradeoff(100, 10, 0.1, ell=-1)

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, position, value):
        args = [100.0, 10.0, 0.5, 1.0, 1.0]
        args[position] = value
        with pytest.raises(ValueError, match="finite"):
            adversary.theorem_tradeoff(*args)


# ---------------------------------------------------------------------------
# Property tests: the vectorised engine against per-row loops over j.
# ---------------------------------------------------------------------------
# The loops below evaluate the docstring formulas one block index at a time,
# in exact integer arithmetic where the formulas allow it, and serve as the
# reference for the array code in `adversary`.


def loop_phi_row(n, size, j):
    s = size
    c0 = math.sqrt(j * (s - j + 1) * (n - s - j + 1) / ((n - 2 * j + 2) * (n - 2 * j + 1) * s))
    c1 = math.sqrt(s / n)
    c2 = (n - 2 * s) / math.sqrt(n * s) * math.sqrt(
        j * (n - j + 1) / ((n - 2 * j + 2) * (n - 2 * j))
    )
    c3 = math.sqrt((n - j + 1) * (s - j) * (n - s - j) / ((n - 2 * j + 1) * (n - 2 * j) * s))
    return [c0, c1, c2, c3]


def loop_tables(inst):
    rows = range(inst.k + 1)
    phi = np.array([loop_phi_row(inst.n, inst.k, j) for j in rows])
    phi_prime = np.array([loop_phi_row(inst.n, inst.k_prime, j) for j in rows])
    return phi, phi_prime


def loop_gamma(t, k, j):
    return max(1.0 - j / t, 0.0) if 0 <= j <= k else 0.0


def loop_tildes(inst, t):
    k = inst.k
    phi, phi_prime = loop_tables(inst)
    g = lambda j: loop_gamma(t, k, j)
    weights = np.array([[g(j - 1), g(j), g(j), g(j + 1)] for j in range(k + 1)])
    return weights * phi, weights * phi_prime


def loop_rows(inst, t):
    """Every row j = 0..k of each closed-row array, as a dict of lists, row by row.

    ``forward`` and ``reflection`` also hold block k+1 of the k' level
    (0 at k' = k, which has no such block).
    """
    n, k, kp = inst.n, inst.k, inst.k_prime
    phi, phi_prime = loop_tables(inst)
    tilde, tilde_prime = loop_tildes(inst, t)
    rows = {name: [] for name in adversary.ClosedRows._fields}
    for j in range(k + 1):
        g0, g1 = loop_gamma(t, k, j), loop_gamma(t, k, j + 1)
        rows["forward"].append(float(np.linalg.norm(tilde_prime[j] - g0 * phi[j])))
        rows["reverse"].append(float(np.linalg.norm(g0 * phi_prime[j] - tilde[j])))
        m = np.outer(phi_prime[j], tilde_prime[j]) - np.outer(tilde[j], phi[j])
        rows["reflection"].append(float(np.linalg.svd(m, compute_uv=False)[0]))
        small = math.sqrt((k - j) * (n - kp - j))
        large = math.sqrt((kp - j) * (n - k - j))
        value = max(abs(small * g0 - large * g1), abs(large * g0 - small * g1))
        rows["membership"].append(value / (n - 2 * j))
        rows["gamma"].append(abs(g0))
        rows["overlap"].append(float(sum(p * q for p, q in zip(phi[j], phi_prime[j]))))
    forward_next = reflection_next = 0.0
    if kp > k:
        # Block k+1 lies on the k' level only: tilde'_{k+1} = (g_k c0'_{k+1}, 0, 0, 0)
        # and the level-k terms vanish.
        phi_next = loop_phi_row(n, kp, k + 1)
        tilde_next = [loop_gamma(t, k, k) * phi_next[0], 0.0, 0.0, 0.0]
        forward_next = float(np.linalg.norm(tilde_next))
        m = np.outer(phi_next, tilde_next)
        reflection_next = float(np.linalg.svd(m, compute_uv=False)[0])
    rows["forward"].append(forward_next)
    rows["reflection"].append(reflection_next)
    return rows


def loop_norms(inst, t):
    """(state-generation pair, reflection norm, membership norm), row by row."""
    rows = loop_rows(inst, t)
    return (
        (max(rows["forward"]), max(rows["reverse"])),
        max(rows["reflection"]),
        max(rows["membership"]),
    )


def loop_hadamard_step(coeffs, inst):
    phi, phi_prime = loop_tables(inst)
    prod = phi * phi_prime
    k = inst.k
    out = np.zeros(k + 1)
    for j in range(k + 1):
        acc = coeffs[j] * (prod[j, 1] + prod[j, 2])
        if j >= 1:
            acc += coeffs[j - 1] * prod[j, 0]
        if j + 1 <= k:
            acc += coeffs[j + 1] * prod[j, 3]
        out[j] = acc
    return out


def assert_rel(got, want, rel=1e-13, cancelled=0.0):
    """|got - want| <= rel times the larger of max |want| and, row by row, ``cancelled``.

    ``cancelled`` is the size of the terms a row's value cancels; a row
    that cancels nothing (0) keeps the bound set by max |want|.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(max(float(np.max(np.abs(want))), np.finfo(float).tiny), cancelled)
    assert np.all(np.abs(got - want) <= rel * scale), (got, want)


def loop_reflection_products(inst, t):
    """|phi'_j| |tilde'_j| + |tilde_j| |phi_j| for rows j = 0..k, then 0 for row k+1.

    Block j of the reflection difference is phi'_j tilde'_j^T - tilde_j
    phi_j^T, so a rounding in either product, or one ulp of its inputs,
    moves the block's norm by up to an ulp of these sizes, however small
    the difference.  The row past k is one product and cancels nothing.
    """
    phi, phi_prime = loop_tables(inst)
    tilde, tilde_prime = loop_tildes(inst, t)
    norms = partial(np.linalg.norm, axis=1)
    products = norms(phi_prime) * norms(tilde_prime) + norms(tilde) * norms(phi)
    return np.append(products, 0.0)


def loop_forward_products(inst, t):
    """|tilde'_j| + |g_j| |phi_j| for rows j = 0..k, then 0 for row k+1.

    Forward row j is ||tilde'_j - g_j phi_j||, so, as in a reflection
    block, a rounding in either term, or one ulp of its inputs, moves the
    row by up to an ulp of these sizes.  The row past k cancels nothing.
    """
    phi, _ = loop_tables(inst)
    _, tilde_prime = loop_tildes(inst, t)
    g = np.array([loop_gamma(t, inst.k, j) for j in range(inst.k + 1)])
    products = np.linalg.norm(tilde_prime, axis=1) + np.abs(g) * np.linalg.norm(phi, axis=1)
    return np.append(products, 0.0)


def fifty_digit_forward(phi, tilde_prime, g):
    """||tilde' - g phi|| at 50 digits, the float inputs taken as exact."""
    with mpmath.workdps(50):
        g = mpmath.mpf(float(g))
        terms = (mpmath.mpf(float(a)) - g * mpmath.mpf(float(b)) for a, b in zip(tilde_prime, phi))
        return mpmath.sqrt(sum(term**2 for term in terms))


def fifty_digit_reflection(phi, phi_prime, tilde, tilde_prime):
    """||phi' tilde'^T - tilde phi^T|| at 50 digits, the four float rows taken as exact."""
    with mpmath.workdps(50):
        p, q, a, b = (
            [mpmath.mpf(float(x)) for x in row] for row in (phi, phi_prime, tilde, tilde_prime)
        )
        block = mpmath.matrix(4, 4)
        for r in range(4):
            for c in range(4):
                block[r, c] = q[r] * b[c] - a[r] * p[c]
        return mpmath.svd_r(block, compute_uv=False)[0]


@st.composite
def certificate_points(draw, max_k=2000, max_log_n=9):
    """(instance, cutoff t, power ell) with k <= max_k and n - 2k' - 1 < 10**max_log_n."""
    k = draw(st.integers(1, max_k))
    k_prime = draw(st.integers(k, 2 * k))
    spare = draw(st.integers(0, 10 ** draw(st.integers(0, max_log_n))))
    t = draw(st.floats(1.0, 2.0 * k + 4.0))
    ell = draw(st.integers(0, 4))
    return ProblemInstance(2 * k_prime + 1 + spare, k, k_prime), t, ell


@st.composite
def truncating_points(draw, max_k=2000, max_log_n=9):
    """(instance, t) with floor(t) + 2 <= k; t is an integer or strictly between two."""
    k = draw(st.integers(3, max_k))
    k_prime = draw(st.integers(k, 2 * k))
    spare = draw(st.integers(0, 10 ** draw(st.integers(0, max_log_n))))
    whole = draw(st.integers(1, k - 2))
    t = float(whole) if draw(st.booleans()) else whole + draw(st.floats(0.001, 0.999))
    return ProblemInstance(2 * k_prime + 1 + spare, k, k_prime), t


def full_rows(inst, t):
    """(phi, phi', gamma, tilde, tilde') over all rows j = 0..k, as arrays.

    Same float formulas as `adversary`, evaluated on every row however
    many of them the schedule can reach.
    """
    k = inst.k
    j = np.arange(k + 1)
    phi = adversary.phi_components(inst.n, k, j)
    phi_prime = adversary.phi_components(inst.n, inst.k_prime, j)
    g = np.maximum(1.0 - j / t, 0.0)
    padded = np.pad(g, 1)
    weights = np.stack([padded[:-2], g, g, padded[2:]], axis=1)
    return phi, phi_prime, g, weights * phi, weights * phi_prime


def full_row_values(inst, t):
    """Per-row terms of the three norms over all rows j = 0..k, shape (k+1, 4).

    Columns: state-generation forward and reverse, reflection, membership.
    The reflection column comes from the package's own per-row kernel, so
    the comparison is to the bit; the loop references check it against an
    SVD.
    """
    n, k, kp = inst.n, inst.k, inst.k_prime
    phi, phi_prime, g0, tilde, tilde_prime = full_rows(inst, t)
    g = g0[:, None]
    forward = np.linalg.norm(tilde_prime - g * phi, axis=1)
    reverse = np.linalg.norm(g * phi_prime - tilde, axis=1)
    refl = adversary.reflection_row_norms(phi, phi_prime, tilde, tilde_prime)
    j = np.arange(k + 1, dtype=float)
    small = np.sqrt((k - j) * (n - kp - j))
    large = np.sqrt((kp - j) * (n - k - j))
    g1 = np.append(g0[1:], 0.0)
    memb = np.maximum(np.abs(small * g0 - large * g1), np.abs(large * g0 - small * g1))
    return np.stack([forward, reverse, refl, memb / (n - 2 * j)], axis=1)


class TestVectorisedAgainstRowLoops:
    @settings(max_examples=40, deadline=None)
    @given(certificate_points())
    def test_tables_and_tilde_tables(self, point):
        inst, t, _ = point
        phi, phi_prime = adversary.phi_table(inst, inst.k + 1)
        want_phi, want_phi_prime = loop_tables(inst)
        np.testing.assert_allclose(phi, want_phi, rtol=1e-13, atol=0)
        np.testing.assert_allclose(phi_prime, want_phi_prime, rtol=1e-13, atol=0)
        gammas = adversary.gamma_schedule(t, inst.k)
        rows = len(gammas)
        tilde, tilde_prime = adversary.tilde_tables(gammas, *adversary.phi_table(inst, rows))
        want, want_prime = loop_tildes(inst, t)
        np.testing.assert_allclose(tilde, want[:rows], rtol=1e-13, atol=0)
        np.testing.assert_allclose(tilde_prime, want_prime[:rows], rtol=1e-13, atol=0)
        assert np.all(want[rows:] == 0.0) and np.all(want_prime[rows:] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(certificate_points())
    def test_three_norms(self, point):
        inst, t, _ = point
        rows = whole_rows(inst, t)
        pair, refl, memb = loop_norms(inst, t)
        assert_rel((rows.forward.max(), rows.reverse.max()), pair)
        assert_rel(rows.reflection.max(), refl)
        assert_rel(rows.membership.max(), memb)

    @settings(max_examples=40, deadline=None)
    @given(certificate_points())
    @example((ProblemInstance(29814424, 352, 352), 482.0, 0))
    @example((ProblemInstance(6020359, 859, 864), 453.0, 0))
    def test_every_closed_row(self, point):
        # Each live row of each array, and the row past k where the schedule
        # reaches row k; every loop row the schedule drops must be exactly 0.
        # A forward or reflection row is held to 1e-13 of the products it
        # cancels where those outweigh the largest row (the examples'
        # reflection row 131 and forward row 5: see
        # test_a_cancelling_reflection_row_is_exact_to_its_products and
        # test_a_cancelling_forward_row_is_exact_to_its_products).
        inst, t, _ = point
        rows = whole_rows(inst, t)
        live = adversary.live_rows(t, inst.k)
        want = loop_rows(inst, t)
        kept = list(range(live)) + ([inst.k + 1] if live == inst.k + 1 else [])
        cancelled = {
            "forward": loop_forward_products(inst, t)[kept],
            "reflection": loop_reflection_products(inst, t)[kept],
        }
        for name in ("forward", "reflection"):
            assert len(getattr(rows, name)) == len(kept)
            assert_rel(
                getattr(rows, name), [want[name][j] for j in kept], cancelled=cancelled[name]
            )
            assert all(want[name][j] == 0.0 for j in range(inst.k + 2) if j not in kept)
        for name in ("reverse", "membership", "gamma", "overlap"):
            assert len(getattr(rows, name)) == live
            assert_rel(getattr(rows, name), want[name][:live])
            if name != "overlap":
                assert all(value == 0.0 for value in want[name][live:])

    def test_a_cancelling_reflection_row_is_exact_to_its_products(self):
        # Reflection row 131 here reads 1.0029e-3 on both sides, 1.1e-16
        # apart: more than 1e-13 of the largest row, 1.037e-3.  Its block
        # cancels products of size 1.45, and the two sides' inputs differ
        # in one ulp.  Each side lies within an ulp of those products of the
        # 50-digit norm of its own inputs, so neither norm method is at fault.
        inst, t, j = ProblemInstance(29814424, 352, 352), 482.0, 131
        gammas = adversary.gamma_schedule(t, inst.k)
        phi, phi_prime = adversary.phi_table(inst, len(gammas))
        sides = [
            (whole_rows(inst, t).reflection[j],
             (phi, phi_prime, *adversary.tilde_tables(gammas, phi, phi_prime))),
            (loop_rows(inst, t)["reflection"][j], (*loop_tables(inst), *loop_tildes(inst, t))),
        ]
        products = loop_reflection_products(inst, t)[j]
        gap = abs(sides[0][0] - sides[1][0])
        assert 1e-13 * max(loop_rows(inst, t)["reflection"]) < gap <= 1e-13 * products
        for value, tables in sides:
            exact = fifty_digit_reflection(*(table[j] for table in tables))
            assert abs(mpmath.mpf(float(value)) - exact) <= np.finfo(float).eps * products

    def test_a_cancelling_forward_row_is_exact_to_its_products(self):
        # Forward row 5 here reads 2.1958e-3 on both sides, 2.21e-16 apart:
        # more than 1e-13 of the largest row, 2.208e-3.  The row cancels
        # products of size 1.98, and the two sides' inputs differ in one
        # ulp.  Each side lies within 0.03 ulp of those products of the
        # 50-digit norm of its own inputs, so neither kernel is at fault.
        inst, t, j = ProblemInstance(6020359, 859, 864), 453.0, 5
        gammas = adversary.gamma_schedule(t, inst.k)
        phi, phi_prime = adversary.phi_table(inst, len(gammas))
        tilde_prime = adversary.tilde_tables(gammas, phi, phi_prime)[1]
        loop_phi, loop_tilde_prime = loop_tables(inst)[0], loop_tildes(inst, t)[1]
        loop_forward = loop_rows(inst, t)["forward"]
        sides = [
            (whole_rows(inst, t).forward[j], (phi[j], tilde_prime[j], gammas[j])),
            (loop_forward[j], (loop_phi[j], loop_tilde_prime[j], loop_gamma(t, inst.k, j))),
        ]
        products = loop_forward_products(inst, t)[j]
        gap = abs(sides[0][0] - sides[1][0])
        assert 1e-13 * max(loop_forward) < gap <= 1e-13 * products
        for value, inputs in sides:
            exact = fifty_digit_forward(*inputs)
            assert abs(mpmath.mpf(float(value)) - exact) <= np.finfo(float).eps * products

    @settings(max_examples=40, deadline=None)
    @given(certificate_points())
    def test_iterated_hadamard_step(self, point):
        inst, t, ell = point
        got = adversary.gamma_schedule(t, inst.k)
        want = np.array([loop_gamma(t, inst.k, j) for j in range(inst.k + 1)])
        for _ in range(max(ell, 1)):
            got = adversary.hadamard_psi_step(got, inst)
            want = loop_hadamard_step(want, inst)
        assert_rel(got, want)

    @settings(max_examples=40, deadline=None)
    @given(certificate_points(max_log_n=9), st.data())
    def test_identities_at_large_n(self, point, data):
        inst, _, _ = point
        assert unit_norm_error(adversary.phi_table(inst, inst.k + 1)) <= 1e-13
        j = data.draw(st.integers(0, inst.k))
        t2, t4 = johnson.basis_change_tables(inst.n, inst.k, j)
        assert np.max(np.abs(t2 @ t2.T - np.eye(2))) <= 1e-13
        if t4 is not None:
            assert np.max(np.abs(t4.T @ t4 - np.eye(4))) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(truncating_points())
    def test_truncated_norms_equal_full_rows(self, point):
        # Every row the norms drop must be exactly zero, and the norms must
        # equal the full-row maxima to the bit.
        inst, t = point
        gammas = adversary.gamma_schedule(t, inst.k)
        per_row = full_row_values(inst, t)
        assert np.all(per_row[len(gammas) :] == 0.0)
        want = [float(v) for v in per_row.max(axis=0)]
        rows = whole_rows(inst, t)
        got = [float(getattr(rows, name).max())
               for name in ("forward", "reverse", "reflection", "membership")]
        assert got == want

    def test_reflection_at_a_small_eps_bench_point(self):
        # eps = 2/27110: the two coefficient levels nearly coincide, so the
        # rank-two blocks nearly cancel; the closed form must still match
        # one SVD per row.
        inst = ProblemInstance(482983, 27110, 27112)
        _, want, _ = loop_norms(inst, 2711.0)
        assert_rel(whole_rows(inst, 2711.0).reflection.max(), want)


def referee_reflection_row(inst, gammas, j):
    """Top singular value of block j, phi'_j tilde'_j^T - tilde_j phi_j^T, at 50 digits.

    The coefficients follow `phi_components`' formulas in mpmath; the
    weights are the schedule's float values, taken as exact.
    """
    with mpmath.workdps(50):
        def phi(size):
            n, s, i = mpmath.mpf(inst.n), mpmath.mpf(size), mpmath.mpf(j)
            sqrt = mpmath.sqrt
            return [
                sqrt(i * (s - i + 1) * (n - s - i + 1) / ((n - 2 * i + 2) * (n - 2 * i + 1) * s)),
                sqrt(s / n),
                (n - 2 * s) / sqrt(n * s) * sqrt(i * (n - i + 1) / ((n - 2 * i + 2) * (n - 2 * i))),
                sqrt((n - i + 1) * (s - i) * (n - s - i) / ((n - 2 * i + 1) * (n - 2 * i) * s)),
            ]

        def g(i):
            return mpmath.mpf(float(gammas[i])) if 0 <= i < len(gammas) else mpmath.mpf(0)

        p, q = phi(inst.k), phi(inst.k_prime)
        weights = [g(j - 1), g(j), g(j), g(j + 1)]
        block = mpmath.matrix(4, 4)
        for r in range(4):
            for c in range(4):
                block[r, c] = q[r] * weights[c] * q[c] - weights[r] * p[r] * p[c]
        return mpmath.svd_r(block, compute_uv=False)[0]


class TestReflectionAgainstFiftyDigits:
    """The closed-form row norms against a 50-digit referee and the batched SVD.

    Both float evaluations share the rounded coefficients, whose error the
    near-cancelling blocks amplify, so the kernel is held to the SVD's own
    distance from the referee plus 1e-15 relative, and to 1e-12 outright.
    """

    @staticmethod
    def check_rows(inst, t, rows=None):
        gammas = adversary.gamma_schedule(t, inst.k)
        phi, phi_prime = adversary.phi_table(inst, len(gammas))
        tilde, tilde_prime = adversary.tilde_tables(gammas, phi, phi_prime)
        kernel = adversary.reflection_row_norms(phi, phi_prime, tilde, tilde_prime)
        blocks = (
            phi_prime[:, :, None] * tilde_prime[:, None, :] - tilde[:, :, None] * phi[:, None, :]
        )
        svd = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        if rows is None:
            spread = np.linspace(0, len(gammas) - 1, 6).astype(int).tolist()
            rows = {0, len(gammas) - 1, int(np.argmax(kernel)), *spread}
        for j in sorted(rows):
            want = referee_reflection_row(inst, gammas, j)
            if want == 0:
                assert kernel[j] == 0.0, (j, kernel[j])
                continue
            kernel_gap = float(abs(mpmath.mpf(kernel[j]) - want) / want)
            svd_gap = float(abs(mpmath.mpf(svd[j]) - want) / want)
            assert kernel_gap <= 1e-12, (j, kernel_gap)
            assert kernel_gap <= svd_gap + 1e-15, (j, kernel_gap, svd_gap)

    @pytest.mark.parametrize(
        "n, k, kp, t",
        [
            (4961, 102, 190, 1.0),
            (8101, 324, 379, 1.1781818181818182),
            (6604, 555, 564, 12.333333333333332),
            (70455, 1780, 1782, 177.99999999999997),
            (384563, 9833, 9834, 1966.6),
            (764967, 17496, 17567, 49.28450704225352),
            # eps = 1/k: row 0 nearly cancels, and both evaluations sit 5e-13 off.
            (644104, 26471, 26472, 5294.2),
        ],
    )
    def test_bench_points(self, n, k, kp, t):
        self.check_rows(ProblemInstance(n, k, kp), t)

    def test_planted_near_cancelling_blocks(self):
        # k' = k + 1 with n >> k and t >> k: phi'_j ~ phi_j and the weights
        # are all near 1, so every block is a difference of near-equal terms.
        inst = ProblemInstance(10**9, 100, 101)
        self.check_rows(inst, 1e6, rows=range(inst.k + 1))
