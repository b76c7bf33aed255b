"""Checks of the benchmark's own parts.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from reference import certificate_norms  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    inner = tracer._span("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer._span("outer", body)()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["incl_s"] == pytest.approx(
        totals["outer"]["self_s"] + totals["inner"]["incl_s"], abs=1e-9
    )
    assert 0.005 < totals["outer"]["self_s"] < totals["inner"]["incl_s"]


@pytest.mark.parametrize(
    "n, k, k_prime, ell, ell_prime",
    [(500, 100, 200, 1, 0), (3000, 150, 151, 3, 2), (700, 120, 133, 0, 1)],
)
def test_reference_matches_package(n, k, k_prime, ell, ell_prime):
    from countbench import adversary

    inst = adversary.ProblemInstance(n, k, k_prime)
    t = max(1.0, 2.0 * ell, 8.0 * ell_prime, 1.0 / (5.0 * inst.eps))
    report = adversary.dual_feasibility_report(inst, t=t, ell=ell)
    ref = certificate_norms(n, k, k_prime, t, ell)
    got = {
        "gamma_norm": report.gamma_norm,
        "psi_power_bound": report.psi_power_bound,
        "membership_norm": report.membership_norm,
        "state_gen_forward": report.state_gen_pair[0],
        "state_gen_reverse": report.state_gen_pair[1],
        "reflection_norm": report.reflection_norm,
    }
    for name, value in ref.items():
        assert got[name] == pytest.approx(value, rel=1e-13), name


def test_plans_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        for seed in (0, 7):
            assert workloads.plan(workload, seed, 30) == workloads.plan(workload, seed, 30)
        assert workloads.plan(workload, 0, 30) != workloads.plan(workload, 1, 30)


def test_bounds_points_stay_in_the_stated_box():
    plan = workloads.bounds_plan(3, 30)
    assert len(plan) >= 100
    for argv in plan:
        n, k = int(argv[2]), int(argv[4])
        eps = float(argv[6])
        assert 100 <= k <= 30000 and 5 * k <= n <= 50 * k
        assert 1.0 / k - 1e-15 <= eps <= 1.0
        assert abs((1 + eps) * k - round((1 + eps) * k)) < 1e-9


def test_mixed_plan_covers_every_procedure_evenly():
    plan = workloads.plan("bounds-simulate", 5, 30)
    counts = {proc: 0 for proc in workloads.SIM_PROCEDURES}
    for argv in plan:
        if argv[0] == "simulate":
            counts[argv[1]] += 1
    assert len(set(counts.values())) == 1
    assert sum(argv[0] == "bounds" for argv in plan) >= 100


def test_verify_plan_is_the_recorded_sweep():
    argv = workloads.verify_plan(11)[0]
    assert argv.count("--instance") == 8 and argv.count("--t") == 3
    assert len(workloads.expected_verify_rows()) == 240


def test_closed_form_gate_allows_only_the_last_printed_digit():
    assert workloads._closed_form_matches("0.928401213131", "0.928401213131")
    assert workloads._closed_form_matches("0.928401213132", "0.928401213131")
    assert not workloads._closed_form_matches("0.928401213141", "0.928401213131")
    assert not workloads._closed_form_matches("3.14159265360", "3.14159265358")
