import math

import numpy as np
import pytest

from countbench import adversary, bruteforce, johnson, linalg
from countbench.adversary import ProblemInstance
from countbench.bruteforce import LiftKind, lift

INST = ProblemInstance(8, 2, 3)


class TestPsiGram:
    def test_known_overlap(self):
        basis_x = johnson.subset_basis(8, 2)
        basis_y = johnson.subset_basis(8, 3)
        psi = bruteforce.psi_gram(INST)
        x = basis_x.index_of({1, 2})
        assert psi[x, basis_y.index_of({1, 2, 3})] == pytest.approx(2.0 / math.sqrt(6.0))
        assert psi[x, basis_y.index_of({4, 5, 6})] == 0.0

    def test_row_sums_constant(self):
        psi = bruteforce.psi_gram(INST)
        sums = psi.sum(axis=1)
        assert np.max(sums) - np.min(sums) < 1e-10


class TestMembershipMask:
    def test_known_entries(self):
        basis_x = johnson.subset_basis(8, 2)
        basis_y = johnson.subset_basis(8, 3)
        x = basis_x.index_of({1, 2})
        y = basis_y.index_of({1, 2, 3})
        assert bruteforce.delta_membership_mask(INST, 3)[x, y] == 1.0
        assert bruteforce.delta_membership_mask(INST, 1)[x, y] == 0.0

    def test_entry_count_oracle(self):
        n, k, kp = INST.n, INST.k, INST.k_prime
        expected = math.comb(n - 1, k) * math.comb(n - 1, kp - 1) + math.comb(
            n - 1, k - 1
        ) * math.comb(n - 1, kp)
        mask = bruteforce.delta_membership_mask(INST, 5)
        assert int(mask.sum()) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bruteforce.delta_membership_mask(INST, 9)


class TestLift:
    def test_identity_row_lift_is_isometry(self):
        basis = johnson.subset_basis(8, 2)
        v = lift(np.eye(len(basis)), LiftKind.ROW_PSI, basis)
        assert v.shape == (len(basis) * 8, len(basis))
        assert np.max(np.abs(v.T @ v - np.eye(len(basis)))) < 1e-12

    def test_row_composition_identity(self):
        rng = np.random.default_rng(2)
        basis_x = johnson.subset_basis(8, 2)
        basis_y = johnson.subset_basis(8, 3)
        m = rng.standard_normal((len(basis_x), len(basis_y)))
        direct = lift(m, LiftKind.ROW_PSI_PSI_STAR, basis_x)
        staged = lift(lift(m, LiftKind.ROW_PSI_STAR, basis_x), LiftKind.ROW_PSI, basis_x)
        # Equal up to multiplication-order rounding.
        assert np.max(np.abs(direct - staged)) < 1e-15

    def test_col_composition_identity(self):
        rng = np.random.default_rng(3)
        basis_x = johnson.subset_basis(8, 2)
        basis_y = johnson.subset_basis(8, 3)
        m = rng.standard_normal((len(basis_x), len(basis_y)))
        direct = lift(m, LiftKind.COL_PSI_PSI_STAR, basis_y)
        staged = lift(lift(m, LiftKind.COL_PSI, basis_y), LiftKind.COL_PSI_STAR, basis_y)
        assert np.max(np.abs(direct - staged)) < 1e-15

    def test_state_gen_difference_matches_entry_definition(self):
        rng = np.random.default_rng(4)
        basis_x = johnson.subset_basis(INST.n, INST.k)
        basis_y = johnson.subset_basis(INST.n, INST.k_prime)
        gamma = adversary.adversary_matrix(INST, 2.0)
        lifted = lift(gamma, LiftKind.ROW_PSI, basis_x) - lift(
            gamma, LiftKind.COL_PSI, basis_y
        )
        psi_x = bruteforce.psi_matrix(INST.n, INST.k)
        psi_y = bruteforce.psi_matrix(INST.n, INST.k_prime)
        for _ in range(100):
            x = int(rng.integers(len(basis_x)))
            y = int(rng.integers(len(basis_y)))
            i = int(rng.integers(INST.n))
            expected = gamma[x, y] * (psi_x[x, i] - psi_y[y, i])
            assert lifted[x * INST.n + i, y] == pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch(self):
        basis = johnson.subset_basis(8, 2)
        with pytest.raises(ValueError):
            lift(np.zeros((3, 5)), LiftKind.ROW_PSI, basis)


class TestProjectionPair:
    def test_uniform_projector(self):
        pi0, pi1 = bruteforce.build_projection_pair(4)
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
        e1 = johnson.irrep_projectors(8, 2).projectors[1]
        assert np.max(np.abs(xi.T @ xi - e1)) < 1e-9

    def test_invalid_channel(self):
        with pytest.raises(ValueError):
            bruteforce.build_xi(INST, 1, 0, 1)

    @pytest.mark.parametrize("hatted", [False, True])
    def test_normalisers_match_coefficients(self, hatted):
        size = INST.k_prime if hatted else INST.k
        for j in range(size + 1):
            coeffs = adversary.phi_components(INST.n, size, j)
            for comp, (el, m) in enumerate(bruteforce.XI_CHANNELS):
                if bruteforce._xi_is_declared_zero(j, el, m, size):
                    continue
                raw = bruteforce._xi_raw(INST, j, el, m, hatted)
                norm = linalg.spectral_norm(raw)
                assert norm == pytest.approx(coeffs[comp], abs=1e-9)


class TestKronApply:
    @pytest.mark.parametrize("seed", [17, 18])
    @pytest.mark.parametrize(
        "shape", [(4, 4), (math.comb(6, 1), math.comb(6, 2))], ids=["square", "transporter"]
    )
    def test_matches_dense_kron(self, shape, seed):
        n = 6
        rng = np.random.default_rng(seed)
        block_op = rng.standard_normal(shape)
        ground_op = rng.standard_normal((n, n))
        m = rng.standard_normal((shape[1] * n, 7))
        for ground, dense in ((ground_op, ground_op), (None, np.eye(n))):
            got = bruteforce._kron_apply(block_op, m, n, ground)
            want = np.kron(block_op, dense) @ m
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

    def test_delta_memb_uniform_over_elements(self):
        report = bruteforce.verify("DELTA_MEMB", INST, t=2.0)
        assert report.details["spread_over_i"] <= 1e-10
        assert len(report.details["per_i"]) == INST.n

    def test_hadamard_step_against_projection(self):
        sched = adversary.gamma_schedule(2.0, INST.k)
        stepped = adversary.hadamard_psi_step(sched.gammas, INST)
        gamma = adversary.adversary_matrix(INST, 2.0)
        had = gamma * bruteforce.psi_gram(INST)
        fam = johnson.irrep_projectors(INST.n, INST.k)
        for j in range(INST.k + 1):
            phi = johnson.transporter(INST.n, INST.k, INST.k_prime, j).matrix
            projected = float(np.sum(phi * had)) / fam.dimension(j)
            assert projected == pytest.approx(stepped[j], abs=1e-9)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_gram_power_coefficients_match_iterated_step(self, ell):
        t = 2.0 * ell
        coeffs = adversary.gamma_schedule(t, INST.k).gammas
        for _ in range(ell):
            coeffs = adversary.hadamard_psi_step(coeffs, INST)
        had = adversary.adversary_matrix(INST, t) * bruteforce.psi_gram(INST) ** ell
        fam = johnson.irrep_projectors(INST.n, INST.k)
        for j in range(INST.k + 1):
            phi = johnson.transporter(INST.n, INST.k, INST.k_prime, j).matrix
            projected = float(np.sum(phi * had)) / fam.dimension(j)
            assert projected == pytest.approx(coeffs[j], abs=1e-8)

    def test_psi_power_requires_schedule_room(self):
        with pytest.raises(ValueError):
            bruteforce.verify("PSI_POWER", INST, t=1.0, ell=1)

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            bruteforce.verify("NOPE", INST)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            bruteforce.verify("NORM_GAMMA", ProblemInstance(16, 2, 7))

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
        gamma = adversary.adversary_matrix(INST, 2.0)
        assert feas.gamma_norm == pytest.approx(linalg.spectral_norm(gamma), abs=1e-9)
        per_i = [
            linalg.spectral_norm(gamma * bruteforce.delta_membership_mask(INST, i))
            for i in range(1, INST.n + 1)
        ]
        assert feas.membership_norm == pytest.approx(per_i[0], abs=1e-8)
        basis_x = johnson.subset_basis(INST.n, INST.k)
        basis_y = johnson.subset_basis(INST.n, INST.k_prime)
        fwd = linalg.spectral_norm(
            lift(gamma, LiftKind.ROW_PSI, basis_x) - lift(gamma, LiftKind.COL_PSI, basis_y)
        )
        rev = linalg.spectral_norm(
            lift(gamma, LiftKind.ROW_PSI_STAR, basis_x)
            - lift(gamma, LiftKind.COL_PSI_STAR, basis_y)
        )
        assert feas.state_gen_norm == pytest.approx(max(fwd, rev), abs=1e-8)
        refl = linalg.spectral_norm(
            lift(gamma, LiftKind.ROW_PSI_PSI_STAR, basis_x)
            - lift(gamma, LiftKind.COL_PSI_PSI_STAR, basis_y)
        )
        assert feas.reflection_norm == pytest.approx(refl, abs=1e-8)
        brute_power = linalg.spectral_norm(gamma * bruteforce.psi_gram(INST))
        assert brute_power >= feas.psi_power_bound - 1e-9
