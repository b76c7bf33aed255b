"""Command-line front end: verification sweeps, bound reports, simulations.

Exit-code contract: 0 all good, 1 at least one cross-check failed,
2 usage or configuration error.  Output files are deterministic given
(config, seed): the per-check millis column is zeroed unless --timing
is passed (wall time is inherently nondeterministic), and all floats
use a fixed format.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__, adversary, bruteforce, simulate
from .adversary import ProblemInstance

DEFAULT_INSTANCES = (
    (6, 1, 2),
    (7, 1, 2),
    (8, 2, 3),
    (9, 2, 3),
    (10, 2, 3),
    (10, 3, 4),
    (12, 2, 4),
    (12, 3, 4),
)
DEFAULT_T_VALUES = (1.0, 2.0, 3.0)

VERIFY_CSV_HEADER = (
    "check_id,n,k,k_prime,t,ell,closed_form,brute_force,discrepancy,pass,millis"
)
SIMULATE_CSV_HEADER = (
    "trial,true_size,decision,correct,failed,statistic,"
    "copies,state_generation,reflections,membership"
)


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_bool(x: bool) -> str:
    return "true" if x else "false"


def parse_config(path: str) -> dict[str, list[str]]:
    """Flat key=value file; repeated keys accumulate into lists."""
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values.setdefault(key.strip(), []).append(value.strip())
    return values


def _blas_single_threaded():
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        from contextlib import nullcontext

        return nullcontext()
    return threadpool_limits(limits=1)


def _parse_instance(text: str) -> ProblemInstance:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 3:
        raise ValueError(f"instance must be n,k,k_prime, got {text!r}")
    n, k, k_prime = (int(p) for p in parts)
    return ProblemInstance(n=n, k=k, k_prime=k_prime)


def _resolve_seed(args, config: dict[str, list[str]]) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"][-1])
    env = os.environ.get("WORKBENCH_SEED")
    if env is not None:
        return int(env)
    return 0


def _scalar(config: dict, key: str, cast, fallback):
    if key in config:
        return cast(config[key][-1])
    return fallback


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countbench",
        description="Verification workbench for set-size distinction query bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="master seed (env WORKBENCH_SEED as fallback)")
    common.add_argument("--jobs", type=int, help="worker pool size (default 1)")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the cross-check sweep"
    )
    p_verify.add_argument(
        "--instance",
        action="append",
        metavar="N,K,KPRIME",
        help="instance to sweep (repeatable; default: the built-in list)",
    )
    p_verify.add_argument(
        "--t", action="append", type=float, metavar="T", help="cutoff values to sweep"
    )
    p_verify.add_argument(
        "--checks",
        nargs="+",
        choices=bruteforce.CHECK_IDS,
        help="restrict to these checks",
    )
    p_verify.add_argument("--tol-norm", type=float, help="norm-comparison tolerance (default 1e-8)")
    p_verify.add_argument("--tol-exact", type=float, help="algebraic-identity tolerance (default 1e-10)")
    p_verify.add_argument(
        "--timing",
        action="store_true",
        help="write measured wall times into the CSV (breaks byte-for-byte determinism)",
    )

    p_bounds = sub.add_parser(
        "bounds", parents=[common], help="evaluate the trade-off branches"
    )
    p_bounds.add_argument("--n", type=float, required=True)
    p_bounds.add_argument("--k", type=float, required=True)
    p_bounds.add_argument("--eps", type=float, required=True)
    p_bounds.add_argument("--ell", type=float, default=0.0, help="copies available")
    p_bounds.add_argument("--ell-prime", type=float, default=0.0, help="state-generation calls")
    p_bounds.add_argument("--cprime", type=float, help="cutoff-selection constant (default 8)")
    p_bounds.add_argument(
        "--feasibility-threshold",
        type=float,
        help="constant-norm proxy threshold (default 0.25)",
    )

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="run a simulation campaign"
    )
    p_sim.add_argument("procedure", choices=simulate.PROCEDURES)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--k", type=int)
    p_sim.add_argument("--eps", type=float)
    p_sim.add_argument("--budget", type=int, help="coupon: samples to draw (default 5k)")
    p_sim.add_argument(
        "--samples", type=int, help="collision: samples to draw (default 8 sqrt(k)/eps)"
    )
    p_sim.add_argument(
        "--copies", type=int, help="overlap: copies to consume (default 64 n/(k eps^2))"
    )
    p_sim.add_argument("--ell", type=int, help="subset: known elements")
    p_sim.add_argument("--true-size", type=int, help="pin the hidden-set size")
    p_sim.add_argument(
        "--oracle",
        choices=("reflections", "membership", "state_generation"),
        help="which oracle implements the rotations",
    )
    p_sim.add_argument("--repetitions", type=int, default=1, help="majority-vote rounds")
    p_sim.add_argument("--retries", type=int, help="bootstrap: growth-stage retries")
    return parser


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_items(instances, t_values, checks):
    items = []
    for inst in instances:
        for t in t_values:
            for check in checks:
                ell = int(t) // 2 if check == "PSI_POWER" else 0
                items.append((check, inst, float(t), ell))
    return items


def cmd_verify(args) -> int:
    config = parse_config(args.config) if args.config else {}
    if args.instance is not None:
        instance_texts = args.instance
    else:
        instance_texts = config.get(
            "instance", [f"{n},{k},{kp}" for n, k, kp in DEFAULT_INSTANCES]
        )
    instance_texts = [text for text in instance_texts if text.strip()]
    if not instance_texts:
        raise ValueError("empty instance list")
    instances = [_parse_instance(text) for text in instance_texts]
    t_values = (
        args.t
        if args.t is not None
        else [float(v) for v in config.get("t", [str(t) for t in DEFAULT_T_VALUES])]
    )
    if not t_values:
        raise ValueError("empty t list")
    checks = tuple(args.checks) if args.checks else bruteforce.CHECK_IDS
    tol_norm = args.tol_norm if args.tol_norm is not None else _scalar(
        config, "tol_norm", float, bruteforce.TOL_NORM
    )
    tol_exact = args.tol_exact if args.tol_exact is not None else _scalar(
        config, "tol_exact", float, bruteforce.TOL_EXACT
    )
    jobs = args.jobs if args.jobs is not None else _scalar(config, "jobs", int, 1)
    out_dir = Path(args.out if args.out is not None else _scalar(config, "out", str, "out"))
    seed = _resolve_seed(args, config)

    items = _verify_items(instances, t_values, checks)
    start = time.perf_counter()
    runner = lambda item: bruteforce.verify(
        item[0], item[1], t=item[2], ell=item[3], tol_norm=tol_norm, tol_exact=tol_exact
    )
    if jobs > 1:
        # Without a cap, each worker's BLAS spawns its own thread pool and
        # the kernels thrash instead of overlapping.
        with _blas_single_threaded(), ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(runner, items))
    else:
        reports = [runner(item) for item in items]
    sweep_s = time.perf_counter() - start
    reports.sort(key=lambda r: (r.check_id, r.n, r.k, r.k_prime, r.t, r.ell))

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [VERIFY_CSV_HEADER]
    for r in reports:
        millis = int(round(r.wall_ms)) if args.timing else 0
        lines.append(
            ",".join(
                [
                    r.check_id,
                    str(r.n),
                    str(r.k),
                    str(r.k_prime),
                    _fmt_float(r.t),
                    str(r.ell),
                    _fmt_float(r.closed_form),
                    _fmt_float(r.brute_force),
                    _fmt_float(r.discrepancy),
                    _fmt_bool(r.passed),
                    str(millis),
                ]
            )
        )
    (out_dir / "verify.csv").write_text("\n".join(lines) + "\n")

    failures = [r for r in reports if not r.passed]
    summary = {
        "version": __version__,
        "seed": seed,
        "tolerances": {"norm": tol_norm, "exact": tol_exact},
        "instances": [[i.n, i.k, i.k_prime] for i in instances],
        "t_values": list(t_values),
        "checks": {cid: bruteforce.CHECK_DESCRIPTIONS[cid] for cid in checks},
        "rows": len(reports),
        "failures": len(failures),
        "all_passed": not failures,
    }
    (out_dir / "verify.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"verify: {len(reports)} rows, {len(failures)} failures "
        f"({sweep_s:.1f}s); reports in {out_dir}"
    )
    for r in failures:
        print(
            f"FAIL {r.check_id} n={r.n} k={r.k} k'={r.k_prime} t={r.t:g} "
            f"discrepancy={r.discrepancy:.3e} tol={r.tolerance:.0e}",
            file=sys.stderr,
        )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    config = parse_config(args.config) if args.config else {}
    cprime = args.cprime if args.cprime is not None else _scalar(config, "cprime", float, 8.0)
    threshold = (
        args.feasibility_threshold
        if args.feasibility_threshold is not None
        else _scalar(config, "feasibility_threshold", float, 0.25)
    )
    report = adversary.theorem_tradeoff(
        args.n, args.k, args.eps, ell=args.ell, ell_prime=args.ell_prime, cprime=cprime
    )
    payload = {"version": __version__, "tradeoff": report.as_dict()}
    feasibility = None
    note = None
    try:
        inst = ProblemInstance.from_eps(int(args.n), int(args.k), args.eps)
        t = max(1.0, report.t_choice)
        feasibility = adversary.dual_feasibility_report(
            inst, t=t, ell=int(args.ell), feasibility_threshold=threshold
        ).as_dict()
    except (ValueError, OverflowError) as exc:
        note = f"dual feasibility unavailable: {exc}"
    payload["dual_feasibility"] = feasibility
    if note:
        payload["note"] = note
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate_params(args) -> dict:
    def require(name):
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"procedure {args.procedure!r} needs --{name.replace('_', '-')}")
        return value

    proc = args.procedure
    k = require("k")
    eps = require("eps")
    params: dict = {"k": k, "eps": eps}
    if proc == "coupon":
        params["sample_budget"] = args.budget if args.budget is not None else 5 * k
    elif proc == "collision":
        default = math.ceil(8.0 * math.sqrt(k) / eps)
        params["sample_count"] = args.samples if args.samples is not None else default
    elif proc == "overlap":
        n = require("n")
        default = math.ceil(64.0 * n / (k * eps * eps))
        params.update(
            n=n, copy_count=args.copies if args.copies is not None else default
        )
    else:
        params["n"] = require("n")
        if proc == "subset":
            params["ell"] = require("ell")
        if proc == "bootstrap" and args.retries is not None:
            params["retries"] = args.retries
        if args.oracle is not None and proc in ("qcount", "subset"):
            params["oracle"] = args.oracle
    if args.repetitions != 1:
        params["repetitions"] = args.repetitions
    if args.true_size is not None:
        params["true_size"] = args.true_size
    return params


def cmd_simulate(args) -> int:
    config = parse_config(args.config) if args.config else {}
    if args.trials < 1:
        raise ValueError("need at least one trial")
    seed = _resolve_seed(args, config)
    out_dir = Path(args.out if args.out is not None else _scalar(config, "out", str, "out"))
    params = _simulate_params(args)

    outcomes = simulate.run_batch(args.procedure, params, args.trials, seed)
    stats = simulate.aggregate(outcomes)

    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.procedure.replace("-", "_")
    lines = [SIMULATE_CSV_HEADER]
    for idx, out in enumerate(outcomes):
        lines.append(
            ",".join(
                [
                    str(idx),
                    str(out.true_size),
                    out.decision,
                    _fmt_bool(out.correct),
                    _fmt_bool(out.failed),
                    _fmt_float(out.statistic),
                    str(out.tally.copies),
                    str(out.tally.state_generation),
                    str(out.tally.reflections),
                    str(out.tally.membership),
                ]
            )
        )
    (out_dir / f"simulate_{tag}.csv").write_text("\n".join(lines) + "\n")

    payload = {
        "version": __version__,
        "procedure": args.procedure,
        "seed": seed,
        "params": {key: params[key] for key in sorted(params)},
        **stats,
    }
    (out_dir / f"simulate_{tag}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"simulate {args.procedure}: {stats['trials']} trials, "
        f"success {stats['success_rate']:.3f} +- {stats['standard_error']:.3f}; "
        f"reports in {out_dir}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    handlers = {"verify": cmd_verify, "bounds": cmd_bounds, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
