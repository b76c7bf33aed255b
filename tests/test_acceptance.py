"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names double as the criterion labels in plain ``pytest -v``.
"""

import json
import math
import time

import numpy as np
import pytest

from countbench import adversary, bruteforce, cli, johnson, simulate
from countbench.adversary import ProblemInstance
from dense_reference import unit_norm_error

SWEEP = [
    (6, 1, 2),
    (7, 1, 2),
    (8, 2, 3),
    (9, 2, 3),
    (10, 2, 3),
    (10, 3, 4),
    (12, 2, 4),
    (12, 3, 4),
]
T_VALUES = (1.0, 2.0, 3.0)
TOL_NORM = 1e-8
TOL_EXACT = 1e-10


def report(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def instances():
    return [ProblemInstance(n, k, kp) for n, k, kp in SWEEP]


def test_criterion_01_closed_form_cross_check_sweep():
    # verify reads the package tolerances; pin them to the criterion's.
    assert (bruteforce.TOL_NORM, bruteforce.TOL_EXACT) == (TOL_NORM, TOL_EXACT)
    start = time.perf_counter()
    failures = []
    for inst in instances():
        for t in T_VALUES:
            for check in bruteforce.CHECK_IDS:
                ell = int(t) // 2 if check == "PSI_POWER" else 0
                result = bruteforce.verify(check, inst, t=t, ell=ell)
                if not result.passed:
                    failures.append((check, inst.n, inst.k, inst.k_prime, t))
    elapsed = time.perf_counter() - start
    report(
        1,
        "all ten cross-checks pass at 1e-8/1e-10 over the sweep and t in {1,2,3}",
        not failures and elapsed < 180.0,
        f"{elapsed:.1f}s, failures: {failures}",
    )


def test_criterion_02_unit_norm_claim():
    worst = max(unit_norm_error(adversary.phi_table(inst, inst.k + 1)) for inst in instances())
    report(2, "coefficient 4-vectors are unit within 1e-12", worst <= 1e-12, f"max {worst:.2e}")


def test_criterion_03_basis_change_tables():
    worst = 0.0
    for inst in instances():
        for level in (inst.k, inst.k_prime):
            for j in range(level + 1):
                t2, t4 = johnson.basis_change_tables(inst.n, level, j)
                worst = max(worst, float(np.max(np.abs(t2 @ t2.T - np.eye(2)))))
                if t4 is not None:
                    worst = max(worst, float(np.max(np.abs(t4 @ t4.T - np.eye(4)))))
                refs = johnson.reference_vectors(inst.n, level, j)
                if refs.w_out is not None:
                    built = np.array(
                        [
                            [refs.w_out @ refs.v, refs.w_out @ refs.v_tilde],
                            [refs.w_in @ refs.v, refs.w_in @ refs.v_tilde],
                        ]
                    )
                    worst = max(worst, float(np.max(np.abs(built - t2))))
                if t4 is not None:
                    rows = [refs.w_empty, refs.w_c, refs.w_d, refs.w_cd]
                    cols = [refs.v_minus, refs.v, refs.v_zero, refs.v_plus]
                    for a, w in enumerate(rows):
                        for b, v in enumerate(cols):
                            if w is not None and v is not None:
                                worst = max(worst, abs(float(w @ v) - t4[a, b]))
    report(
        3,
        "closed-form tables orthogonal (1e-12) and equal to constructed "
        "inner products (1e-10)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_04_projector_ranks():
    ok = True
    for inst in instances():
        for level in (inst.k, inst.k_prime):
            for j, e_j in enumerate(johnson.irrep_projectors(inst.n, level)):
                if int(round(float(np.trace(e_j)))) != johnson.block_dimension(inst.n, j):
                    ok = False
    report(4, "projector ranks equal the block dimensions exactly", ok)


def test_criterion_05_gram_power_inequality():
    worst_shortfall = 0.0
    for inst in instances():
        for ell in (1, 2, 3):
            result = bruteforce.verify("PSI_POWER", inst, t=2.0 * ell, ell=ell)
            worst_shortfall = max(
                worst_shortfall, result.closed_form - result.brute_force
            )
    report(
        5,
        "entrywise Gram powers stay above the overlap bound (slack 1e-9)",
        worst_shortfall <= 1e-9,
        f"worst shortfall {worst_shortfall:.2e}",
    )


def test_criterion_06_membership_index_independence():
    worst_spread = 0.0
    for inst in instances():
        for t in T_VALUES:
            result = bruteforce.verify("DELTA_MEMB", inst, t=t)
            worst_spread = max(worst_spread, result.details["spread_over_i"])
    report(
        6,
        "membership-difference norms agree across all singled-out elements (1e-10)",
        worst_spread <= 1e-10,
        f"max spread {worst_spread:.2e}",
    )


def test_criterion_07_tradeoff_arithmetic():
    a = adversary.theorem_tradeoff(1e6, 1e4, 0.1, 0, 0)
    checks = [
        math.isclose(a["membership_bound"], 100.0, rel_tol=1e-12),
        math.isclose(a["copies_bound"], min(1e4, math.sqrt(1e4) / 0.1, 1e6 / (1e4 * 0.01)), rel_tol=1e-12),
        math.isclose(a["copies_bound"], 1000.0, rel_tol=1e-12),
        math.isclose(a["state_generation_bound"], 100.0, rel_tol=1e-12),
        math.isclose(a["reflection_bound"], 100.0, rel_tol=1e-12),
    ]
    b = adversary.theorem_tradeoff(1e6, 1e4, 0.01, 0, 0)
    checks += [
        math.isclose(b["copies_bound"], 1e4, rel_tol=1e-12),
        math.isclose(b["state_generation_bound"], 10 ** (8.0 / 3.0), rel_tol=1e-12),
        math.isclose(b["membership_bound"], 1000.0, rel_tol=1e-12),
    ]
    c = adversary.theorem_tradeoff(320, 64, 1.0, ell=2, ell_prime=3)
    checks += [
        math.isclose(c["copies_bound"], 5.0, rel_tol=1e-12),
        math.isclose(c["state_generation_bound"], math.sqrt(5.0), rel_tol=1e-12),
        math.isclose(c["reflection_bound"], math.sqrt(5.0), rel_tol=1e-12),
        math.isclose(c["fifth_case_reflection"], 8.0, rel_tol=1e-12),
        math.isclose(c["t_choice"], 24.0, rel_tol=1e-12),
    ]
    report(7, "trade-off evaluator matches three hand-computed cases", all(checks))


def test_criterion_08_simulator_success_rates():
    start = time.perf_counter()
    campaigns = [
        ("coupon", dict(k=32, eps=1.0, sample_budget=160)),
        ("collision", dict(k=256, eps=0.5, sample_count=256)),
        ("overlap", dict(n=1024, k=64, eps=1.0, copy_count=1024)),
        ("qcount", dict(n=1024, k=16, eps=1.0)),
        ("subset", dict(n=4096, k=64, eps=0.5, ell=16)),
    ]
    results = []
    ok = True
    for name, params in campaigns:
        stats = simulate.aggregate(simulate.run_batch(name, params, 1000, 20240817))
        floor = 2.0 / 3.0 - 3.0 * stats["standard_error"]
        results.append(f"{name} {stats['success_rate']:.3f}")
        ok = ok and stats["success_rate"] >= floor
    elapsed = time.perf_counter() - start
    report(
        8,
        "five simulators clear 2/3 minus 3 standard errors over 1000 trials",
        ok and elapsed < 120.0,
        f"{'; '.join(results)}; {elapsed:.1f}s",
    )


def test_criterion_09_query_scaling_slopes():
    ns = [1024, 2048, 4096, 8192]
    qcount_tallies = [
        simulate.trial(simulate.qcount(n, 16, 1.0), 1).cost for n in ns
    ]
    lx = np.log(ns) - np.mean(np.log(ns))
    ly = np.log(qcount_tallies) - np.mean(np.log(qcount_tallies))
    slope_n = float(np.sum(lx * ly) / np.sum(lx * lx))

    ells = [4, 8, 16, 32]
    subset_tallies = [
        simulate.trial(simulate.subset(8192, 1024, 0.5, ell), 1).cost
        for ell in ells
    ]
    lx = np.log(ells) - np.mean(np.log(ells))
    ly = np.log(subset_tallies) - np.mean(np.log(subset_tallies))
    slope_ell = float(np.sum(lx * ly) / np.sum(lx * lx))

    ok = abs(slope_n - 0.5) <= 0.08 and abs(slope_ell + 0.5) <= 0.08
    report(
        9,
        "counting reflections scale as n^0.5 and ell^-0.5 within 0.08",
        ok,
        f"slopes {slope_n:.3f} / {slope_ell:.3f}",
    )


def _reflection(v):
    """2|v><v| - I for a unit vector v."""
    return 2.0 * np.outer(v, v) - np.eye(v.size)


def _uniform(n, members):
    v = np.zeros(n)
    v[:members] = 1.0 / math.sqrt(members)
    return v


def test_criterion_10_rotation_simulator_matches_statevector():
    # Growth stage: the hidden set x is the first `size` elements and the
    # known subset its first `known`; r applications of R_known R_x move the
    # returned success probability onto x minus the known subset.
    worst_growth = 0.0
    for n, size in ((64, 48), (64, 17), (32, 9), (16, 4)):
        x_state = _uniform(n, size)
        for known in range(1, size):
            start = _uniform(n, known)
            iterations, probability = simulate.growth_stage(known, size)
            grover = _reflection(start) @ _reflection(x_state)
            state = np.linalg.matrix_power(grover, iterations) @ start
            fresh = float(np.sum(state[known:size] ** 2))
            worst_growth = max(worst_growth, abs(fresh - probability))

    # Phase estimation: controlled powers of (2|s><s| - I)(I - 2 Pi_x) on the
    # uniform superposition s, then an inverse DFT on the M-point register.
    worst_phase = 0.0
    for n, k in ((64, 5), (64, 16), (32, 16), (20, 3)):
        uniform = _uniform(n, n)
        grover = _reflection(uniform) @ np.diag(1.0 - 2.0 * (np.arange(n) < k))
        for m_points in (8, 16, 37, 64):
            powers = [uniform]
            for _ in range(m_points - 1):
                powers.append(grover @ powers[-1])
            grid = np.arange(m_points)
            inverse_dft = np.exp(-2j * math.pi * np.outer(grid, grid) / m_points) / m_points
            outcome = np.sum(np.abs(inverse_dft @ np.array(powers)) ** 2, axis=1)
            expected = simulate.phase_estimation_distribution(
                math.asin(math.sqrt(k / n)), m_points
            )
            worst_phase = max(worst_phase, float(np.max(np.abs(outcome - expected))))
    report(
        10,
        "growth-stage rotation and phase-estimation distribution match "
        "explicit statevectors at n <= 64",
        max(worst_growth, worst_phase) <= 1e-12,
        f"max deviation {worst_growth:.2e} / {worst_phase:.2e}",
    )


def test_criterion_11_deterministic_outputs(tmp_path):
    verify_argv = ["verify", "--instance", "6,1,2", "--instance", "8,2,3", "--t", "1",
                   "--t", "2"]
    sim_argv = ["simulate", "qcount", "--n", "1024", "--k", "16", "--eps", "1",
                "--trials", "250", "--seed", "9"]
    pairs = []
    for tag, argv, files in (
        ("verify", verify_argv, ("verify.csv", "verify.json")),
        ("simulate", sim_argv, ("simulate_qcount.csv", "simulate_qcount.json")),
    ):
        out_a, out_b = tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        pairs.append(
            all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files)
        )
    report(11, "repeated runs with fixed seeds are byte-identical", all(pairs))
