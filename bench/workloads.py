"""Seeded work plans and correctness gates for the two workloads.

A plan is a list of operations, each an argument list for
`countbench.cli.main`; the same (seed, seconds) always gives the same
plan.  Each coordinate of a parameter point is drawn inside one of
`count` equal strata, and a fixed design decides which strata of the
different coordinates go together.  The seed jitters the points inside
their strata and orders the operations.  The work of a plan, and the
spread of its operation costs, therefore barely depend on the seed.
Letting the seed pair the strata as well made the cost of the simulate
batches vary by 13% and the median bounds latency by 18% between seeds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-sweep", "bounds-simulate")

EXPECTED_VERIFY = Path(__file__).with_name("verify_expected.csv")

# bounds points: k log-uniform in [1e2, 3e4], eps = d/k with d log-uniform in
# [1, k], n = k * U[5, 50].  Cost is linear in k, so these stand in for k = 1e6.
BOUNDS_K = (1e2, 3e4)
BOUNDS_N_OVER_K = (5.0, 50.0)
BOUNDS_POINTS_PER_SECOND = 4
BOUNDS_MIN_POINTS = 100  # ten samples beyond p90

# simulate batches: eps = 2^-a for a in 0..6, n log-uniform in [1e3, 1e6],
# and the quantum procedures aim their phase grid at M in [10, 5000] points.
SIM_PROCEDURES = ("coupon", "collision", "overlap", "qcount", "subset", "sample-count", "bootstrap")
SIM_EPS_EXPONENTS = 7
SIM_N = (1e3, 1e6)
SIM_GRID = (10.0, 5000.0)
SIM_TRIALS = 300
SIM_BATCHES_PER_SECOND = 1.5  # per procedure
SIM_MIN_BATCHES = 15  # per procedure

REL_TOL = 1e-12


def _spread(count: int, which: int) -> np.ndarray:
    """A fixed, well-mixed permutation of range(count); each `which` gives another one."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return np.argsort(np.modf((np.arange(count) + 0.5) * golden * (1 + which))[0])


def _jittered(rng: np.random.Generator, strata: np.ndarray) -> np.ndarray:
    """One uniform draw inside each given stratum of len(strata) equal parts of [0, 1)."""
    return (strata + rng.random(len(strata))) / len(strata)


def plan(workload: str, seed: int, seconds: int) -> list[list[str]]:
    if workload == "verify-sweep":
        return verify_plan(seed)
    if workload == "bounds-simulate":
        ops = bounds_plan(seed, seconds) + simulate_plan(seed, seconds)
        return [ops[i] for i in np.random.default_rng([seed, 3]).permutation(len(ops))]
    raise ValueError(f"unknown workload {workload!r}")


def _log_uniform(lo: float, hi: float, u):
    return lo * (hi / lo) ** u


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------


def expected_verify_rows() -> dict:
    """(check_id, n, k, k', t, ell) -> closed_form text, as recorded at the seed commit."""
    with EXPECTED_VERIFY.open(newline="") as fh:
        return {
            (r["check_id"], r["n"], r["k"], r["k_prime"], r["t"], r["ell"]): r["closed_form"]
            for r in csv.DictReader(fh)
        }


def verify_plan(seed: int) -> list[list[str]]:
    """The CLI's default sweep as one call; the seed only orders instances and t values."""
    rows = expected_verify_rows()
    instances = sorted({(int(n), int(k), int(kp)) for _, n, k, kp, _, _ in rows})
    t_values = sorted({float(t) for *_, t, _ in rows})
    rng = np.random.default_rng([seed, 0])
    argv = ["verify"]
    for idx in rng.permutation(len(instances)):
        argv += ["--instance", ",".join(map(str, instances[idx]))]
    for idx in rng.permutation(len(t_values)):
        argv += ["--t", repr(t_values[idx])]
    return [argv]


def _closed_form_matches(got: str, want: str) -> bool:
    # The CSV prints 12 significant digits, so besides REL_TOL one unit in
    # the last printed digit is allowed.
    a, b = float(got), float(want)
    digit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
    return abs(a - b) <= max(REL_TOL * abs(b), digit)


def check_verify(out_dir: Path, exit_code: int) -> tuple[int, int, list[str]]:
    """Gate the sweep's CSV: every recorded row present, passed, closed form unchanged."""
    expected = expected_verify_rows()
    problems = [] if exit_code == 0 else [f"verify exited with {exit_code}"]
    path = out_dir / "verify.csv"
    got = {}
    if path.exists():
        with path.open(newline="") as fh:
            for r in csv.DictReader(fh):
                key = (r["check_id"], r["n"], r["k"], r["k_prime"], r["t"], r["ell"])
                got[key] = r
    failed = 0
    for key, closed_form in expected.items():
        row = got.get(key)
        if row is None or row["pass"] != "true" or not _closed_form_matches(
            row["closed_form"], closed_form
        ):
            failed += 1
            problems.append(f"row {key}: {'missing' if row is None else dict(row)}")
    if len(got) != len(expected):
        problems.append(f"{len(got)} rows, expected {len(expected)}")
        failed = max(failed, 1)
    return len(expected), failed, problems


# ---------------------------------------------------------------------------
# bounds-simulate: bounds points
# ---------------------------------------------------------------------------


def bounds_plan(seed: int, seconds: int) -> list[list[str]]:
    count = max(BOUNDS_MIN_POINTS, BOUNDS_POINTS_PER_SECOND * seconds)
    rng = np.random.default_rng([seed, 1])
    index = np.arange(count)
    k = np.rint(_log_uniform(*BOUNDS_K, _jittered(rng, index))).astype(int)
    d = np.maximum(1, np.rint(k ** _jittered(rng, _spread(count, 1)))).astype(int)
    lo, hi = BOUNDS_N_OVER_K
    n = np.rint(k * (lo + (hi - lo) * _jittered(rng, _spread(count, 2))))
    return [
        [
            "bounds",
            "--n", str(int(n[i])),
            "--k", str(int(k[i])),
            "--eps", repr(float(d[i] / k[i])),
            "--ell", str(i % 4),
            "--ell-prime", str(i % 3),
        ]
        for i in range(count)
    ]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_bounds(argv: list[str], stdout: str, exit_code: int) -> list[str]:
    """Compare one point's reported norms with the benchmark's own evaluation."""
    from reference import certificate_norms

    if exit_code != 0:
        return [f"exit code {exit_code}"]
    payload = json.loads(stdout)
    if "note" in payload:
        return [f"note: {payload['note']}"]
    feas = payload["dual_feasibility"]
    n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
    eps = float(_flag(argv, "--eps"))
    ell, ell_prime = int(_flag(argv, "--ell")), int(_flag(argv, "--ell-prime"))
    k_prime = round((1.0 + eps) * k)
    # The theorem's cutoff max(2 ell, c' ell', 1/(5 eps)) with the CLI's default c' = 8.
    t = max(1.0, 2.0 * ell, 8.0 * ell_prime, 1.0 / (5.0 * eps))
    problems = []
    if (feas["n"], feas["k"], feas["k_prime"]) != (n, k, k_prime) or not _close(feas["t"], t):
        problems.append(f"instance or cutoff differs: {feas}")
    ref = certificate_norms(n, k, k_prime, t, ell)
    got = dict(feas)
    got["state_gen_forward"], got["state_gen_reverse"] = feas["state_gen_pair"]
    for name, value in ref.items():
        if not _close(got[name], value):
            problems.append(f"{name}: got {got[name]!r}, reference {value!r}")
    return problems


# ---------------------------------------------------------------------------
# bounds-simulate: simulate batches
# ---------------------------------------------------------------------------


def _multiple(x: float, step: int, least: int = 1) -> int:
    return step * max(least, round(x / step))


def _sim_params(proc: str, a: int, u1: float, u2: float) -> dict:
    """One parameter point of a procedure; k is a multiple of 2^a so k' is whole."""
    step, eps = 1 << a, 2.0 ** -a
    n = round(_log_uniform(*SIM_N, u1))
    # A phase grid of M points separates the hypotheses when the rotated
    # fraction r is about (4 pi / (eps M))^2.
    grid_ratio = (4.0 * math.pi / (eps * _log_uniform(*SIM_GRID, u2))) ** 2
    if proc == "coupon":
        return {"k": _multiple(_log_uniform(256, 2048, u1), step), "eps": eps}
    if proc == "collision":
        return {"k": _multiple(_log_uniform(64, 1024, u1), step), "eps": eps}
    if proc == "overlap":
        k = _multiple(n * _log_uniform(0.01, 0.1, u2) / (1 + eps), step)
        return {"n": n, "k": k, "eps": eps}
    if proc == "qcount":
        k = _multiple(n * min(grid_ratio, 0.2 / (1 + eps)), step)
        return {"n": n, "k": k, "eps": eps}
    # Bootstrap's growth stage fails too often unless k >= 32/eps.
    least = 32 if proc == "bootstrap" else max(1, 128 // step)
    k = _multiple(n * 0.05 / (1 + eps), step, least)
    n = max(n, math.ceil(20 * (1 + eps) * k))
    if proc == "subset":
        ell = min(k // 2, max(1, round(grid_ratio * k)))
        return {"n": n, "k": k, "eps": eps, "ell": ell}
    return {"n": n, "k": k, "eps": eps}  # sample-count, bootstrap


def simulate_plan(seed: int, seconds: int) -> list[list[str]]:
    per_proc = max(SIM_MIN_BATCHES, round(SIM_BATCHES_PER_SECOND * seconds))
    rng = np.random.default_rng([seed, 2])
    batches = []
    index = np.arange(per_proc)
    exps = index % SIM_EPS_EXPONENTS
    for proc in SIM_PROCEDURES:
        u1 = _jittered(rng, index)
        u2 = _jittered(rng, _spread(per_proc, 1))
        for i in range(per_proc):
            params = _sim_params(proc, int(exps[i]), float(u1[i]), float(u2[i]))
            argv = ["simulate", proc, "--trials", str(SIM_TRIALS)]
            argv += ["--seed", str(int(rng.integers(2**31)))]
            for key, value in params.items():
                argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
            batches.append(argv)
    return batches


def check_simulate(out_dir: Path, proc: str, exit_code: int) -> list[str]:
    """A batch must clear 2/3 minus three standard errors."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    stats = json.loads((out_dir / f"simulate_{proc.replace('-', '_')}.json").read_text())
    floor = 2.0 / 3.0 - 3.0 * stats["standard_error"]
    if stats["success_rate"] < floor:
        return [f"success {stats['success_rate']:.3f} below {floor:.3f}"]
    return []
