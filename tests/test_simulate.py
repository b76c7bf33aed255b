import itertools
import math
import tracemalloc

import numpy as np
import pytest
from batches import columns, pack

from countbench import _pcg64, adversary, cli, simulate
from countbench.simulate import DECIDE_LARGE, DECIDE_SMALL


def success_floor(batch, target=2.0 / 3.0):
    """Check the observed success rate clears target minus 3 binomial SEs."""
    agg = simulate.aggregate(batch)
    return agg["success_rate"] >= target - 3.0 * agg["standard_error"]


def spent(out, resource):
    """A trial's cost, once it is checked to be all of ``resource``."""
    assert out.resource == resource
    return out.cost


def loglog_slope(xs, ys):
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    lx -= lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


class TestCoupon:
    def test_one_sided_on_small_sets(self):
        for seed in range(200):
            out = simulate.trial(simulate.coupon(16, 1.0, 200), seed, true_size=16)
            assert out.decision == DECIDE_SMALL and out.correct

    def test_zero_budget_decides_small(self):
        out = simulate.trial(simulate.coupon(8, 1.0, 0), 3, true_size=16)
        assert out.decision == DECIDE_SMALL and not out.correct
        assert spent(out, "copies") == 0

    def test_full_collection_budget_detects_large(self):
        k, eps = 32, 1.0
        k_prime = 64
        budget = math.ceil(k_prime * sum(1.0 / i for i in range(1, k_prime + 1)))
        outs = [
            simulate.trial(simulate.coupon(k, eps, budget), (101, i), true_size=k_prime)
            for i in range(10_000)
        ]
        rate = sum(o.correct for o in outs) / len(outs)
        assert rate >= 0.99

    def test_copies_tally(self):
        out = simulate.trial(simulate.coupon(8, 1.0, 37), 5)
        assert spent(out, "copies") == 37


class TestCollision:
    def test_degenerate_singleton_always_small(self):
        out = simulate.trial(simulate.collision(1, 1.0, 8), 2, true_size=1)
        assert out.statistic == 8 * 7 / 2.0
        assert out.decision == DECIDE_SMALL

    def test_success_both_hypotheses(self):
        k, eps = 256, 0.5
        samples = int(8 * math.sqrt(k) / eps)
        setup = simulate.collision(k, eps, samples)
        for true_size in (256, 384):
            outs = [
                simulate.trial(setup, (7, true_size, i), true_size=true_size)
                for i in range(10_000)
            ]
            assert success_floor(pack(outs, setup))

    def test_mean_pair_count_matches_expectation(self):
        k, eps, samples, size = 256, 0.5, 256, 256
        outs = [
            simulate.trial(simulate.collision(k, eps, samples), (13, i), true_size=size)
            for i in range(10_000)
        ]
        mean_pairs = float(np.mean([o.statistic for o in outs]))
        expected = samples * (samples - 1) / (2.0 * size)
        assert abs(mean_pairs - expected) <= 0.02 * expected

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            simulate.trial(simulate.collision(8, 1.0, 1), 0)


class TestOverlap:
    def test_whole_ground_set_always_succeeds(self):
        # |x| = n makes every measurement land on the uniform direction.
        for seed in range(50):
            out = simulate.trial(simulate.overlap(64, 32, 1.0, 16), seed, true_size=64)
            assert out.statistic == 1.0 and out.decision == DECIDE_LARGE

    def test_success_at_reference_point(self):
        n, k, eps = 1024, 64, 1.0
        copies = int(64 * n / (k * eps * eps))
        setup = simulate.overlap(n, k, eps, copies)
        for true_size in (64, 128):
            outs = [
                simulate.trial(setup, (3, true_size, i), true_size=true_size)
                for i in range(5_000)
            ]
            assert success_floor(pack(outs, setup))

    def test_single_copy_uninformative_floor(self):
        outs = [
            simulate.trial(simulate.overlap(1000, 500, 0.002, 1), (23, i)) for i in range(4_000)
        ]
        rate = sum(o.correct for o in outs) / len(outs)
        assert 0.45 <= rate <= 0.56

    def test_tally(self):
        out = simulate.trial(simulate.overlap(64, 8, 1.0, 12), 4)
        assert spent(out, "copies") == 12


class TestGrowthStage:
    def test_quarter_overlap(self):
        # sin(theta) = 1/2: pi/(4 theta) = 3/2 rounds to one iteration, which
        # leaves sin^2(2 theta) = 3/4 outside (two would too: sin^2(4 theta)).
        iterations, probability = simulate.growth_stage(1, 4)
        assert iterations == 1
        assert probability == pytest.approx(0.75, abs=1e-15)

    def test_no_over_rotation_near_half_overlap(self):
        # known/size = 7/16: one iteration succeeds with probability
        # sin^2(2 asin(sqrt(7/16))) = 63/64; two would over-rotate to 0.062.
        iterations, probability = simulate.growth_stage(7, 16)
        assert iterations == 1
        assert probability == pytest.approx(63 / 64, abs=1e-15)

    def test_every_stage_up_to_half_succeeds_three_quarters(self):
        worst = min(
            simulate.growth_stage(known, size)[1]
            for size in range(2, 200)
            for known in range(1, size // 2 + 1)
        )
        assert worst >= 0.75 - 1e-15

    def test_bootstrap_meets_target_at_small_k(self):
        # Growth target 8 = k/2 takes stages up to known/size = 7/16, where
        # two iterations over-rotate; ceil(pi/4 sqrt(size/known)) picks two
        # there, and this batch then succeeds only 0.305 of the time.
        outs = simulate.run_batch("bootstrap", dict(n=4096, k=16, eps=0.125), 200, 3)
        assert simulate.aggregate(outs)["success_rate"] >= 0.9

    def test_bootstrap_charges_growth_stage_iterations(self):
        n, k, eps, target = 4096, 64, 0.125, 8
        grown = 0
        for seed in range(20):
            out = simulate.trial(simulate.bootstrap(n, k, eps, retries=0), seed, true_size=k)
            if out.failed:
                continue
            grown += 1
            growth = sum(simulate.growth_stage(s, k)[0] for s in range(1, target))
            peer = simulate.trial(simulate.subset(n, k, eps, target), 0, true_size=k)
            assert spent(out, "reflections") == growth + spent(peer, "reflections")
        assert grown > 0


class TestPhaseEstimation:
    def test_on_grid_phase_is_exact(self):
        # omega = 3/16 sits on the 16-point grid: outcomes 3 and 13 take all mass.
        dist = simulate.phase_estimation_distribution(math.pi * 3 / 16, 16)
        assert dist[3] == pytest.approx(0.5, abs=1e-12)
        assert dist[13] == pytest.approx(0.5, abs=1e-12)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_error_mass_bound(self):
        # a = 1/4 against a hypothesis at 0.6 takes an 18-point grid.
        a = 0.25
        estimate = simulate._PhaseEstimation(a, 0.6, lambda size: a)
        m_points = estimate.m_points
        assert m_points == 18
        rng = np.random.default_rng(5)
        samples = [estimate(rng, 0)[:2] for _ in range(10_000)]
        bound = math.pi / m_points + (math.pi / m_points) ** 2
        dist = simulate.phase_estimation_distribution(math.asin(math.sqrt(a)), m_points)
        exact_mass = sum(
            p
            for m, p in enumerate(dist)
            if abs(math.sin(math.pi * m / m_points) ** 2 - a) <= bound
        )
        assert exact_mass >= 0.81
        hits = sum(abs(value - a) <= bound for _, value in samples)
        se = math.sqrt(exact_mass * (1.0 - exact_mass) / 10_000)
        assert abs(hits / 10_000 - exact_mass) <= 4 * se

    def test_distribution_normalised(self):
        for theta in (0.0, 0.3, math.pi / 4, math.pi / 2):
            dist = simulate.phase_estimation_distribution(theta, 37)
            assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_offset_next_to_an_integer_stays_normalised(self):
        # m / M + omega lands at 1 + 8.8e-8 here; unreduced, the sines lost
        # ~1e-9 relative precision and the normalisation guard aborted.
        dist = simulate.phase_estimation_distribution(0.18652775043497855, 4278)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m_points", [2, 3, 16, 37, 1000, 4278, 17357, 100_000])
    def test_in_place_grid_keeps_the_bits_of_the_expression(self, m_points):
        # pi/4 and pi/2 divide by pi to exactly 1/4 and 1/2, so on a grid of
        # 4 | M points one offset is exactly 0 and the s == 0 fix-up is read.
        thetas = [0.0, math.pi / 4, math.pi / 2, math.pi * (m_points // 3) / m_points]
        thetas.append(float(np.random.default_rng(m_points).random()) * math.pi / 2)
        for theta in thetas:
            got = simulate.phase_estimation_distribution(theta, m_points)
            np.testing.assert_array_equal(got, expression_distribution(theta, m_points))

    def test_in_place_grid_holds_few_arrays(self):
        # The result's M floats beside temporaries of 4096 points (about 25 B
        # each).  The expression held about seven arrays of M floats at its
        # peak, and the whole-grid build three and a mask.
        m_points = 2**20
        tracemalloc.start()
        try:
            simulate.phase_estimation_distribution(0.3, m_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m_points + 64 * 4096

    def test_grid_cap_admits_its_own_size_and_rejects_one_more(self, monkeypatch):
        points = simulate._grid_points(0.1, 0.1001)
        monkeypatch.setattr(simulate, "MAX_GRID_POINTS", points)
        assert simulate._grid_points(0.1, 0.1001) == points
        monkeypatch.setattr(simulate, "MAX_GRID_POINTS", points - 1)
        with pytest.raises(ValueError, match=f"{points} points exceeds cap"):
            simulate._grid_points(0.1, 0.1001)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate.phase_estimation_distribution(0.3, 1)
        with pytest.raises(ValueError):
            simulate.phase_estimation_distribution(-0.1, 8)
        with pytest.raises(ValueError):
            simulate.phase_estimation_distribution(2.0, 8)


class TestQuantumCounting:
    def test_success_at_reference_point(self):
        for true_size in (16, 32):
            outs = simulate.run_batch(
                "qcount", dict(n=1024, k=16, eps=1.0, true_size=true_size), 1000, 7
            )
            assert success_floor(outs)

    def test_reflection_budget(self):
        out = simulate.trial(simulate.qcount(1024, 16, 1.0), 0)
        assert spent(out, "reflections") <= 20 * math.sqrt(1024 / 16)

    def test_membership_oracle_variant(self):
        out = simulate.trial(simulate.qcount(1024, 16, 1.0, oracle="membership"), 0)
        assert spent(out, "membership") > 0

    def test_doubling_n_scales_by_sqrt2(self):
        tallies = [
            spent(simulate.trial(simulate.qcount(n, 16, 1.0), 1), "reflections")
            for n in (1024, 2048, 4096, 8192)
        ]
        for a, b in zip(tallies, tallies[1:]):
            assert math.sqrt(2.0) * 0.75 <= b / a <= math.sqrt(2.0) * 1.25

    def test_huge_gap_needs_minimal_grid(self):
        out = simulate.trial(simulate.qcount(16, 1, 7.0), 2)
        assert spent(out, "reflections") <= 15


class TestKnownSubsetCounting:
    def test_success_at_reference_point(self):
        for true_size in (64, 96):
            outs = simulate.run_batch(
                "subset",
                dict(n=4096, k=64, eps=0.5, ell=16, true_size=true_size),
                1000,
                11,
            )
            assert success_floor(outs)

    def test_reflection_budget_and_free_elements(self):
        out = simulate.trial(simulate.subset(4096, 64, 0.5, 16), 0)
        assert spent(out, "reflections") <= 20 * (1.0 / 0.5) * math.sqrt(64 / 16)

    def test_state_generation_variant_doubles(self):
        refl = simulate.trial(simulate.subset(4096, 64, 0.5, 16), 0)
        gen = simulate.trial(simulate.subset(4096, 64, 0.5, 16, oracle="state_generation"), 0)
        assert spent(gen, "state_generation") == 2 * spent(refl, "reflections")

    def test_full_subset_is_out_of_regime_but_runs(self):
        setup = simulate.subset(32, 4, 0.5, 4)
        outs = [simulate.trial(setup, (1, i)) for i in range(800)]
        assert success_floor(pack(outs, setup))

    def test_ell_validation(self):
        with pytest.raises(ValueError):
            simulate.trial(simulate.subset(4096, 64, 0.5, 0), 0)
        with pytest.raises(ValueError):
            simulate.trial(simulate.subset(4096, 64, 0.5, 65), 0)


class TestSampleThenCount:
    def test_minimal_sample_stage(self):
        # eps = 1, k = 8: a single sample suffices before estimating.
        out = simulate.trial(simulate.sample_count(64, 8, 1.0), 0)
        assert spent(out, "state_generation") >= 1

    def test_success_at_reference_point(self):
        for true_size in (64, 80):
            outs = simulate.run_batch(
                "sample-count", dict(n=4096, k=64, eps=0.25, true_size=true_size), 1000, 13
            )
            assert success_floor(outs)

    def test_state_generation_budget(self):
        outs = simulate.run_batch("sample-count", dict(n=4096, k=64, eps=0.25), 200, 5)
        mean_gen = simulate.aggregate(outs)["mean_state_generation"]
        assert mean_gen <= 40 * 64 ** (1.0 / 3.0) / 0.25 ** (2.0 / 3.0)

    def test_budget_exhaustion_flags_failure(self):
        class StuckRng:
            """Draws only zeros."""

            def integers(self, low, high=None, size=None):
                return 0 if size is None else np.zeros(size, dtype=np.int64)

        found, consumed = simulate._collect_distinct(3, 10, 30, StuckRng())
        assert found == 1 and consumed == 30

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            simulate.trial(simulate.sample_count(64, 3, 0.5), 0)  # ell = 2 exceeds k/2


class TestBootstrapCounting:
    def test_eps_one_skips_growth(self):
        out = simulate.trial(simulate.bootstrap(1024, 64, 1.0), 0, true_size=64)
        peer = simulate.trial(simulate.subset(1024, 64, 1.0, 1), 0, true_size=64)
        assert spent(out, "reflections") == spent(peer, "reflections")

    def test_success_at_reference_point(self):
        for true_size in (64, 72):
            outs = simulate.run_batch(
                "bootstrap", dict(n=4096, k=64, eps=0.125, true_size=true_size), 1000, 17
            )
            assert success_floor(outs)

    def test_reflection_budget(self):
        outs = simulate.run_batch("bootstrap", dict(n=4096, k=64, eps=0.125), 300, 19)
        ell = 8
        budget = 10 * (math.sqrt(64 * ell) + (1.0 / 0.125) * math.sqrt(64 / ell))
        assert simulate.aggregate(outs)["mean_reflections"] <= budget

    def test_growth_target_validation(self):
        with pytest.raises(ValueError):
            simulate.trial(simulate.bootstrap(4096, 4, 0.125), 0)  # 8 > k/2


class TestDeterminismAndScaling:
    def test_identical_seeds_bitwise_identical(self):
        a = simulate.run_batch("qcount", dict(n=1024, k=16, eps=1.0), 50, 99)
        b = simulate.run_batch("qcount", dict(n=1024, k=16, eps=1.0), 50, 99)
        assert columns(a) == columns(b)
        c = simulate.run_batch("qcount", dict(n=1024, k=16, eps=1.0), 50, 100)
        assert columns(a) != columns(c)

    def test_qcount_slope(self):
        ns = [1024, 2048, 4096, 8192]
        tallies = [
            spent(simulate.trial(simulate.qcount(n, 16, 1.0), 1), "reflections") for n in ns
        ]
        assert abs(loglog_slope(ns, tallies) - 0.5) <= 0.08

    def test_subset_slope(self):
        ells = [4, 8, 16, 32]
        tallies = [
            spent(simulate.trial(simulate.subset(8192, 1024, 0.5, ell), 1), "reflections")
            for ell in ells
        ]
        assert abs(loglog_slope(ells, tallies) + 0.5) <= 0.08

    def test_sample_count_scaling_against_prediction(self):
        eps = 0.25
        ks = [256, 512, 1024, 2048]
        predicted = [k ** (1.0 / 3.0) / eps ** (2.0 / 3.0) for k in ks]
        actual = []
        for k in ks:
            outs = simulate.run_batch(
                "sample-count", dict(n=16384, k=k, eps=eps), 50, 23
            )
            actual.append(simulate.aggregate(outs)["mean_state_generation"])
        assert abs(loglog_slope(predicted, actual) - 1.0) <= 0.15

    def test_bootstrap_scaling_against_prediction(self):
        k = 4096
        epses = [1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32]
        predicted, actual = [], []
        for eps in epses:
            ell = math.ceil(1.0 / eps)
            predicted.append(math.sqrt(k * ell) + (1.0 / eps) * math.sqrt(k / ell))
            outs = simulate.run_batch(
                "bootstrap", dict(n=16384, k=k, eps=eps), 40, 29
            )
            actual.append(simulate.aggregate(outs)["mean_reflections"])
        assert abs(loglog_slope(predicted, actual) - 1.0) <= 0.15


# Traced bytes per trial of a 2^14-trial batch, and of a whole 2^14-trial
# `simulate` command.  With CPython 3.11 and numpy 2.4 an overlap batch
# reads 47.8 and its command 47.9; qcount reads 36.9 and 36.8.  That is
# the 19-byte columns and one block's temporaries (generator words as
# Python ints and the block's outcomes), which 2^14 trials share 16
# ways; 2^18 overlap trials read 20.8.  One outcome record per trial
# read 153.0; 32 packed seed bytes per trial beside them read 168.4;
# per-trial generator-state dicts and tally objects read 735.
BATCH_BYTES_PER_TRIAL_CAP = 56


def traced(run):
    """``run()``'s value and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        value = run()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchMemory:
    def test_batch_holds_outcomes_and_packed_seeds_only(self):
        params = dict(n=4096, k=64, eps=0.5, copy_count=256)
        simulate.run_batch("overlap", params, 16, 1)  # first-call allocations
        batch, peak = traced(lambda: simulate.run_batch("overlap", params, 2**14, 3))
        assert len(batch.large) == 2**14
        assert peak / 2**14 <= BATCH_BYTES_PER_TRIAL_CAP

    @pytest.mark.parametrize(
        "argv",
        [
            ["qcount", "--n", "1024", "--k", "16", "--eps", "1"],
            ["overlap", "--n", "4096", "--k", "64", "--eps", "0.5", "--copies", "256"],
        ],
        ids=["qcount", "overlap"],
    )
    def test_simulate_command_holds_the_same_per_trial_bytes(self, tmp_path, capsys, argv):
        argv = ["simulate", *argv, "--out", str(tmp_path)]
        assert cli.main(argv + ["--trials", "16"]) == 0  # first-call allocations
        code, peak = traced(lambda: cli.main(argv + ["--trials", str(2**14)]))
        assert code == 0 and f"{2**14} trials" in capsys.readouterr().out
        assert peak / 2**14 <= BATCH_BYTES_PER_TRIAL_CAP

    @pytest.mark.parametrize(
        "set_up, args",
        [(simulate.coupon, (16, 1.0)), (simulate.collision, (16, 1.0))],
        ids=["coupon", "collision"],
    )
    def test_draw_cap_admits_its_own_size_and_rejects_one_more(self, monkeypatch, set_up, args):
        monkeypatch.setattr(simulate, "MAX_DRAWS", 40)
        set_up(*args, 40)
        with pytest.raises(ValueError, match="= 41 exceeds cap MAX_DRAWS = 40"):
            set_up(*args, 41)


# The matching-algorithm table: each term of ``adversary.theorem_tradeoff``
# that a quantum procedure is meant to meet, and every variable it names.
# A row, keyed by the procedure, gives the term's path in the trade-off
# dict, the ``aggregate`` tally that counts the procedure's calls, its
# constant (the geometric mean of tally / term over every point of one run
# with these grids, 200 trials and seed 1) and its sweeps: the variable,
# its exponent in the term, the fixed parameters and the grid, each over
# >= 2 decades and, for eps, at eps <= 1/8, past the pre-asymptotic asin
# regime.
MATCHING_TABLE = {
    "qcount": (  # sqrt(n/k)/eps
        "reflection_terms.sqrt_n_over_k_over_eps", "mean_reflections", 12.76,
        [("n", 1 / 2, dict(k=64, eps=1 / 8), [2**10, 2**12, 2**14, 2**16, 2**18]),
         ("k", -1 / 2, dict(n=2**20, eps=1 / 8), [8, 64, 512, 4096]),
         ("eps", -1, dict(n=2**16, k=1024), [1 / 8, 1 / 32, 1 / 128, 1 / 512, 1 / 1024])],
    ),
    "subset": (  # sqrt(k/ell)/eps
        "reflection_terms.sqrt_k_over_copies_over_eps", "mean_reflections", 13.17,
        [("ell", -1 / 2, dict(n=2**16, k=2048, eps=1 / 8), [4, 16, 64, 256, 512]),
         ("k", 1 / 2, dict(n=2**20, eps=1 / 8, ell=4), [64, 512, 4096, 16384]),
         ("eps", -1, dict(n=2**20, k=4096, ell=16), [1 / 8, 1 / 32, 1 / 128, 1 / 512, 1 / 1024])],
    ),
    "sample-count": (  # k^(1/3)/eps^(2/3)
        "state_generation_terms.k_third_over_eps_two_thirds", "mean_state_generation", 36.98,
        [("k", 1 / 3, dict(n=2**22, eps=1 / 8), [64, 512, 4096, 32768, 2**18]),
         ("eps", -2 / 3, dict(n=2**20, k=4096), [1 / 8, 1 / 32, 1 / 128, 1 / 512, 1 / 1024])],
    ),
    "bootstrap": (  # sqrt(k/eps)
        "fifth_case_reflection", "mean_reflections", 14.26,
        [("k", 1 / 2, dict(n=2**22, eps=1 / 8), [64, 512, 4096, 32768]),
         ("eps", -1 / 2, dict(n=2**22, k=8192), [1 / 8, 1 / 32, 1 / 128, 1 / 512, 1 / 1024])],
    ),
}


def tradeoff_term(path, params):
    value = adversary.theorem_tradeoff(
        params["n"], params["k"], params["eps"], params.get("ell", 0)
    )
    for key in path.split("."):
        value = value[key]
    return value


class TestMatchingAlgorithmTable:
    """Every trade-off term is met by a simulated procedure, exponent and constant."""

    @pytest.mark.parametrize("procedure", list(MATCHING_TABLE))
    def test_procedure_meets_its_term(self, procedure):
        path, tally, constant, sweeps = MATCHING_TABLE[procedure]
        for variable, exponent, fixed, grid in sweeps:
            assert math.log10(max(grid) / min(grid)) >= 2.0
            tallies = []
            for value in grid:
                params = dict(fixed, **{variable: value})
                outs = simulate.run_batch(procedure, params, 200, 1)
                assert success_floor(outs), (variable, value)
                tallies.append(simulate.aggregate(outs)[tally])
                # A band of max / min = 1.5 around the recorded constant.
                ratio = tallies[-1] / tradeoff_term(path, params)
                assert constant / 1.5**0.5 <= ratio <= constant * 1.5**0.5, (variable, value)
            assert abs(loglog_slope(grid, tallies) - exponent) <= 0.08, variable


class TestRepetitionsAndDispatch:
    def test_majority_vote_reduces_error(self):
        single = simulate.run_batch(
            "qcount", dict(n=256, k=16, eps=0.25), 400, 31
        )
        voted = simulate.run_batch(
            "qcount", dict(n=256, k=16, eps=0.25, repetitions=5), 400, 31
        )
        rate_single = simulate.aggregate(single)["success_rate"]
        rate_voted = simulate.aggregate(voted)["success_rate"]
        assert rate_voted >= rate_single - 0.02
        assert voted.resource == single.resource == "reflections"
        assert voted.cost[0] == 5 * single.cost[0]

    def test_classical_samplers_accept_repetitions(self):
        out = simulate.trial(
            simulate.overlap(1024, 64, 1.0, 256), 41, true_size=128, repetitions=3
        )
        assert spent(out, "copies") == 3 * 256
        out = simulate.trial(simulate.collision(64, 1.0, 64), 41, repetitions=3)
        assert spent(out, "copies") == 3 * 64
        out = simulate.trial(simulate.coupon(16, 1.0, 50), 41, repetitions=3)
        assert spent(out, "copies") == 3 * 50

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_rejected_repetitions_leave_the_generator_unchanged(self, repetitions):
        rng = np.random.default_rng(41)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            simulate.trial(simulate.coupon(16, 1.0, 50), rng, repetitions=repetitions)
        assert rng.bit_generator.state == before

    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            simulate.run_batch("nope", {}, 1, 0)

    def test_majority_vote_reads_the_truth_label(self, monkeypatch):
        # Failed repetitions carry a placeholder decision; the vote among the
        # rest must still be scored against the hidden set's own label.
        def labelled(outs):
            """Where each trial's decision is its hidden set's own label."""
            return outs.says_large == outs.large

        real_collect = simulate._collect_distinct
        calls = itertools.count()

        def every_third_fails(target, size, budget, rng):
            found, consumed = real_collect(target, size, budget, rng)
            return (found - 1 if next(calls) % 3 == 0 else found), consumed

        monkeypatch.setattr(simulate, "_collect_distinct", every_third_fails)
        outs = simulate.run_batch(
            "sample-count", dict(n=4096, k=64, eps=0.25, repetitions=3), 200, 43
        )
        assert not outs.failed.any()
        assert np.array_equal(outs.correct, labelled(outs))
        assert outs.says_large.any()
        monkeypatch.undo()

        params = dict(n=4096, k=64, eps=0.0625, retries=0)
        single = simulate.run_batch("bootstrap", params, 200, 47)
        assert 0.2 <= simulate.aggregate(single)["failure_rate"] <= 0.8
        outs = simulate.run_batch("bootstrap", dict(params, repetitions=3), 200, 47)
        decided = ~outs.failed
        assert 0 < np.count_nonzero(decided) < len(decided)
        assert np.array_equal(outs.correct[decided], labelled(outs)[decided])
        assert not outs.correct[outs.failed].any()


# One call per procedure at a valid point, with eps left free.
PROCEDURE_AT = {
    "coupon": lambda eps: simulate.trial(simulate.coupon(4, eps, 20), 1),
    "collision": lambda eps: simulate.trial(simulate.collision(4, eps, 8), 1),
    "overlap": lambda eps: simulate.trial(simulate.overlap(64, 4, eps, 8), 1),
    "qcount": lambda eps: simulate.trial(simulate.qcount(64, 4, eps), 1),
    "subset": lambda eps: simulate.trial(simulate.subset(64, 4, eps, 1), 1),
    "sample-count": lambda eps: simulate.trial(simulate.sample_count(64, 8, eps), 1),
    "bootstrap": lambda eps: simulate.trial(simulate.bootstrap(64, 8, eps), 1),
}


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("procedure", list(PROCEDURE_AT))
def test_eps_must_be_finite_and_positive(procedure, eps):
    PROCEDURE_AT[procedure](1.0)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        PROCEDURE_AT[procedure](eps)


def test_k_prime_must_be_above_k():
    # (1 + 1e-10) * 10 rounds to k' = k: both hypotheses would have one size.
    with pytest.raises(ValueError, match="not above k"):
        simulate.coupon(10, 1e-10, 50)


def collect_distinct_one_draw_at_a_time(target, size, budget, rng):
    """Reference for `simulate._collect_distinct`: the loop its block draws replaced."""
    seen = set()
    consumed = 0
    while len(seen) < target and consumed < budget:
        seen.add(int(rng.integers(0, size)))
        consumed += 1
    return len(seen), consumed


def expression_distribution(theta, m_points):
    """Reference for `simulate.phase_estimation_distribution`: one temporary per step."""

    def kernel(offsets):
        offsets = offsets - np.round(offsets)
        s = np.sin(np.pi * offsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = (np.sin(np.pi * m_points * offsets) / (m_points * s)) ** 2
        return np.where(s == 0.0, 1.0, value)

    m = np.arange(m_points)
    omega = theta / math.pi
    probs = 0.5 * (kernel(m / m_points - omega) + kernel(m / m_points + omega))
    return probs / float(probs.sum())


def estimate_with_choice(a_small_hyp, a_large_hyp, a_truth, rng):
    """Reference for a run of `simulate._PhaseEstimation`: one `rng.choice` on the grid."""
    m_points = simulate._grid_points(
        math.asin(math.sqrt(a_small_hyp)), math.asin(math.sqrt(a_large_hyp))
    )
    p = simulate.phase_estimation_distribution(math.asin(math.sqrt(a_truth)), m_points)
    estimate = math.sin(math.pi * int(rng.choice(m_points, p=p)) / m_points) ** 2
    if abs(estimate - a_large_hyp) < abs(estimate - a_small_hyp):
        return DECIDE_LARGE, estimate, m_points
    return DECIDE_SMALL, estimate, m_points


def qcount_with_choice(n, k, eps):
    k_prime = simulate._k_prime(k, eps)

    def single(rng, size):
        decision, estimate, m_points = estimate_with_choice(k / n, k_prime / n, size / n, rng)
        return decision, estimate, m_points - 1

    return k, k_prime, "reflections", single


def subset_with_choice(n, k, eps, ell):
    k_prime = simulate._k_prime(k, eps)

    def single(rng, size):
        decision, estimate, m_points = estimate_with_choice(ell / k, ell / k_prime, ell / size, rng)
        return decision, estimate, m_points - 1

    return k, k_prime, "reflections", single


def sample_count_one_draw_at_a_time(n, k, eps):
    k_prime = simulate._k_prime(k, eps)
    ell = math.ceil(k ** (1.0 / 3.0) / (2.0 * eps ** (2.0 / 3.0)))

    def single(rng, size):
        found, consumed = collect_distinct_one_draw_at_a_time(ell, size, 10 * ell, rng)
        if found < ell:
            return None, float(found), consumed
        decision, estimate, m_points = estimate_with_choice(ell / k, ell / k_prime, ell / size, rng)
        return decision, estimate, consumed + 2 * (m_points - 1)

    return k, k_prime, "state_generation", single


def bootstrap_one_draw_per_attempt(n, k, eps, retries=3):
    """Reference for `simulate.bootstrap`: the stage loop its block reads replaced."""
    k_prime = simulate._k_prime(k, eps)
    target = math.ceil(1.0 / eps)

    def single(rng, size):
        reflections = 0
        for known in range(1, target):
            iterations, success_probability = simulate.growth_stage(known, size)
            for _ in range(1 + retries):
                reflections += iterations
                if rng.random() < success_probability:
                    break
            else:
                return None, float(known), reflections
        decision, estimate, m_points = estimate_with_choice(
            target / k, target / k_prime, target / size, rng
        )
        return decision, estimate, reflections + m_points - 1

    return k, k_prime, "reflections", single


def default_rng_states(seed, trials):
    """``(state, inc)`` of ``default_rng((seed, i))`` for i < trials, checking the rest of its state."""
    states = [np.random.default_rng((seed, i)).bit_generator.state for i in range(trials)]
    assert all(
        state["bit_generator"] == "PCG64" and state["has_uint32"] == state["uinteger"] == 0
        for state in states
    )
    return [(state["state"]["state"], state["state"]["inc"]) for state in states]


def as_ints(words):
    """128-bit ints from a (high, low) pair of uint64 word arrays."""
    return [hi << 64 | lo for hi, lo in zip(words[0].tolist(), words[1].tolist())]


def as_words(values):
    """A (high, low) pair of uint64 word arrays from 128-bit ints."""
    return (
        np.array([value >> 64 for value in values], dtype=np.uint64),
        np.array([value & (2**64 - 1) for value in values], dtype=np.uint64),
    )


REFERENCE_PROCEDURES = {
    "qcount": qcount_with_choice,
    "subset": subset_with_choice,
    "sample-count": sample_count_one_draw_at_a_time,
    "bootstrap": bootstrap_one_draw_per_attempt,
}
# One point of every procedure, cheap enough to run a few thousand trials.
BATCH_POINTS = {
    "coupon": dict(k=8, eps=1.0, sample_budget=40),
    "collision": dict(k=8, eps=1.0, sample_count=12),
    "overlap": dict(n=64, k=8, eps=1.0, copy_count=32),
    "qcount": dict(n=1024, k=16, eps=1.0),
    "subset": dict(n=4096, k=64, eps=0.5, ell=16),
    "sample-count": dict(n=4096, k=64, eps=0.25),
    "bootstrap": dict(n=4096, k=64, eps=0.125, retries=1),
}
# Points of each quantum procedure; the full subset's true fraction is 1.
QUANTUM_POINTS = [
    ("qcount", dict(n=1024, k=16, eps=1.0)),
    ("qcount", dict(n=2**16, k=1024, eps=1 / 64)),
    ("subset", dict(n=4096, k=64, eps=0.5, ell=16)),
    ("subset", dict(n=32, k=4, eps=0.5, ell=4)),
    ("sample-count", dict(n=4096, k=64, eps=0.25)),
    ("bootstrap", dict(n=4096, k=64, eps=0.125)),
]


class TestStreamIdenticalFastPaths:
    """Each batch fast path gives the outcomes and generator states of the plain numpy calls."""

    @pytest.mark.parametrize("size", [3, 1000, 2**32 - 1, 2**32, 2**32 + 5])
    @pytest.mark.parametrize(
        "target, budget",
        [(0, 10), (5, 0), (3, 50), (5, 30), (4, 4), (40, 30)],
        ids=["target-0", "budget-0", "early-stop", "size-3-exhausts", "at-budget", "exhausts"],
    )
    @pytest.mark.parametrize("odd_draws_before", [0, 1])
    def test_collect_distinct_matches_one_draw_at_a_time(
        self, size, target, budget, odd_draws_before
    ):
        # One earlier 32-bit draw leaves half a 64-bit output cached in the
        # state, which the rewind must restore as well.
        for seed in range(5):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            if odd_draws_before:
                fast.integers(0, 7)
                slow.integers(0, 7)
            got = simulate._collect_distinct(target, size, budget, fast)
            want = collect_distinct_one_draw_at_a_time(target, size, budget, slow)
            assert got == want
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 2**33 + 7])
    def test_child_states_match_default_rng(self, seed):
        state, inc = _pcg64._child_states(seed, 2001)
        assert list(zip(as_ints(state), as_ints(inc))) == default_rng_states(seed, 2001)
        # A later block's words are the same trials' words.
        later = _pcg64._child_states(seed, 2001, 1000)
        for whole, part in zip((*state, *inc), (*later[0], *later[1])):
            assert np.array_equal(whole[1000:], part)

    def test_child_states_match_default_rng_at_random_seeds(self):
        seeds = np.random.default_rng(2026).integers(0, 2**63, 4).tolist() + [2**100 + 3]
        for seed in seeds:
            state, inc = _pcg64._child_states(seed, 300)
            assert list(zip(as_ints(state), as_ints(inc))) == default_rng_states(seed, 300)

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 2**33 + 7])
    def test_word_kernels_step_as_random_raw(self, seed):
        state, inc = _pcg64._child_states(seed, 2001)
        outputs = []
        for _ in range(4):
            state = _pcg64._mul_add(state, _pcg64._PCG64_MULT, inc)
            outputs.append(_pcg64._xsl_rr(state))
        want = [np.random.default_rng((seed, i)).bit_generator.random_raw(4) for i in range(2001)]
        assert np.array_equal(np.stack(outputs, axis=1), np.array(want))

    @pytest.mark.parametrize("seed", [0, 2**32])
    def test_doubles_read_as_random(self, seed):
        state, inc = _pcg64._child_states(seed, 2001)
        want = [np.random.default_rng((seed, i)).random(3) for i in range(2001)]
        assert np.array_equal(_pcg64._doubles(state, inc, 3), np.array(want))

    @pytest.mark.parametrize("rotation", [0, 1, 32, 63])
    def test_word_kernels_at_planted_rotations(self, rotation):
        # States one LCG step before a state whose high word's top six bits,
        # the output's rotation, are planted; low bits all clear, all set, mixed.
        rng = np.random.default_rng(5)
        inc = rng.bit_generator.state["state"]["inc"]
        inverse = pow(_pcg64._PCG64_MULT, -1, 2**128)
        targets = [rotation << 122 | low for low in (0, 2**122 - 1, 0x0123456789ABCDEF << 40 | 77)]
        befores = [(target - inc) * inverse % 2**128 for target in targets]
        stepped = _pcg64._mul_add(as_words(befores), _pcg64._PCG64_MULT, as_words([inc] * 3))
        assert as_ints(stepped) == targets
        for before, got in zip(befores, _pcg64._xsl_rr(stepped).tolist()):
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": before, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            assert got == rng.bit_generator.random_raw()

    @pytest.mark.parametrize("seed", [0, 2**32])
    def test_size_draw_reads_as_integers(self, seed):
        state, inc = _pcg64._child_states(seed, 2001)
        stepped, large, buffered = _pcg64._draw_sizes(state, inc)
        assert 0 < np.count_nonzero(large) < 2001
        for i, (after, big, half) in enumerate(
            zip(as_ints(stepped), large.tolist(), buffered.tolist())
        ):
            rng = np.random.default_rng((seed, i))
            assert rng.integers(2) == big
            generator = rng.bit_generator.state
            assert generator["state"]["state"] == after
            assert (generator["has_uint32"], generator["uinteger"]) == (1, half)

    def test_child_states_reject_what_seed_sequence_rejects(self):
        for bad, error in ((-1, ValueError), (-(2**40), ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                np.random.default_rng((bad, 0))
            with pytest.raises(error):
                _pcg64._child_states(bad, 3)
        with pytest.raises(ValueError):
            simulate.run_batch("coupon", dict(k=4, eps=1.0, sample_budget=20), 3, -1)

    @pytest.mark.parametrize("repetitions", [1, 2, 3])
    @pytest.mark.parametrize("pin", [None, "k", "k_prime"])
    @pytest.mark.parametrize("procedure", list(BATCH_POINTS))
    def test_batch_trials_equal_single_trials_seeded_by_index(self, procedure, pin, repetitions):
        # Batches of 1, B - 1, B and B + 1 trials, with B = BLOCK_RUNS, are
        # prefixes of the same trials, each seeded by its index; two
        # repetitions can tie the vote.
        params = BATCH_POINTS[procedure]
        setup = simulate.PROCEDURES[procedure](**params)
        true_size = None if pin is None else setup[0 if pin == "k" else 1]
        block = simulate.BLOCK_RUNS
        singles = [simulate.trial(setup, (5, i), true_size, repetitions) for i in range(block + 1)]
        pins = dict(true_size=true_size, repetitions=repetitions)
        for trials in (1, block - 1, block, block + 1):
            batch = simulate.run_batch(procedure, dict(params, **pins), trials, 5)
            assert columns(batch) == columns(pack(singles[:trials], setup))
            assert batch.correct.tolist() == [out.correct for out in singles[:trials]]

    @pytest.mark.parametrize(
        "a_small, a_large",
        [(0.25, 0.5), (1 / 3, 0.34), (0.001, 0.0011), (0.0, 1.0)],
        ids=["grid-24", "grid-891", "grid-4069", "grid-5"],
    )
    @pytest.mark.parametrize("a_truth", [0.0, 0.001, 1 / 3, 0.5, math.sin(1.3) ** 2, 1.0])
    def test_phase_estimation_matches_grid_points_and_choice(self, a_small, a_large, a_truth):
        estimate = simulate._PhaseEstimation(a_small, a_large, lambda size: a_truth)
        assert estimate.cost == estimate.m_points - 1
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        got = [(*estimate(fast, 0)[:2], estimate.m_points) for _ in range(300)]
        want = [estimate_with_choice(a_small, a_large, a_truth, slow) for _ in range(300)]
        assert got == want
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("procedure, params", QUANTUM_POINTS)
    def test_quantum_runs_match_grid_points_and_choice(self, procedure, params):
        # The set-up sizes the grid; each hidden size builds its CDF on its
        # first run, and later runs read it from the set-up's memo.
        k, k_prime, resource, single = simulate.PROCEDURES[procedure](**params)
        _, _, reference_resource, reference = REFERENCE_PROCEDURES[procedure](**params)
        assert resource == reference_resource
        for size in (k, k_prime):
            for i in range(100):
                fast, slow = np.random.default_rng((3, i)), np.random.default_rng((3, i))
                assert single(fast, size) == reference(slow, size)
                assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("procedure, params", QUANTUM_POINTS)
    def test_batch_misses_phase_distribution_at_most_twice(self, procedure, params, monkeypatch):
        real = simulate.phase_estimation_distribution
        calls = []

        def counted(theta, m_points):
            calls.append((theta, m_points))
            return real(theta, m_points)

        monkeypatch.setattr(simulate, "phase_estimation_distribution", counted)
        outs = simulate.run_batch(procedure, params, 300, 8)
        k, k_prime, _, _ = simulate.PROCEDURES[procedure](**params)
        assert {outs.k_prime if big else outs.k for big in outs.large.tolist()} == {k, k_prime}
        assert len(calls) <= 2

    @pytest.mark.parametrize("retries", [0, 3])
    @pytest.mark.parametrize(
        "n, k, eps",
        [(4096, 64, 0.0625), (4096, 16, 0.125), (1024, 64, 1.0)],
        ids=["target-16", "stages-often-fail", "eps-1-no-stage"],
    )
    @pytest.mark.parametrize("repetitions", [1, 3])
    @pytest.mark.parametrize("odd_draws_before", [0, 1])
    def test_bootstrap_matches_one_draw_per_attempt(
        self, n, k, eps, retries, repetitions, odd_draws_before
    ):
        # A terminal failure rewinds the draws of its block it left unread;
        # one that leaked them would shift the next repetition's stream.
        setup = simulate.bootstrap(n, k, eps, retries)
        k, k_prime, resource, reference = bootstrap_one_draw_per_attempt(n, k, eps, retries)
        runs = []

        def recorded(rng, size):
            runs.append(reference(rng, size))
            return runs[-1]

        for i in range(60):
            fast, slow = np.random.default_rng((11, i)), np.random.default_rng((11, i))
            if odd_draws_before:
                fast.integers(0, 7)
                slow.integers(0, 7)
            got = simulate.trial(setup, fast, repetitions=repetitions)
            want = simulate.trial((k, k_prime, resource, recorded), slow, repetitions=repetitions)
            assert got == want
            assert fast.bit_generator.state == slow.bit_generator.state
        failed = sum(decision is None for decision, _, _ in runs)
        if retries == 0 and eps < 1:
            assert 0 < failed < len(runs)
        elif eps == 1:
            assert failed == 0
