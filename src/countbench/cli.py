"""Command-line front end: verification sweeps, bound reports, simulations.

Exit-code contract: 0 all good, 1 at least one cross-check failed,
2 usage error.  Output files are deterministic for given flags, seed and
BLAS configuration: the per-check millis column is zeroed unless --timing
is passed (wall time is inherently nondeterministic), and all floats use
a fixed format.

Each `simulate` procedure is a sub-command built from `SIMULATE_FLAGS`,
so argparse rejects any option it does not read; options follow its name.

Only `verify` imports `bruteforce` (and with it `johnson`): `bounds` and
`simulate` read the closed side alone, and `--checks` reads the check ids
only when it is given.

`adversary` returns plain numbers, math.inf included; `bounds` alone
writes each non-finite one as JSON null, so its stdout is strict JSON.
Likewise the `simulate` module returns each trial's hidden size and
decision as booleans (``large``, ``says_large``); the `simulate` command
alone writes a decision as the text ``k`` or ``k_prime``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, adversary, simulate
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
SIMULATE_CSV_HEADER = "trial,true_size,decision,correct,failed,statistic," + ",".join(
    simulate.RESOURCES
)


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_bool(x: bool) -> str:
    return "true" if x else "false"


def _fmt_detail(value) -> str:
    """A FAIL line's detail: a flag, a count, or a float to four digits."""
    if isinstance(value, bool):
        return _fmt_bool(value)
    return str(value) if isinstance(value, int) else f"{value:.3e}"


def _parse_instance(text: str) -> ProblemInstance:
    parts = text.replace(" ", "").split(",")
    if len(parts) != 3 or not all(parts):
        raise ValueError(f"instance must be n,k,k_prime, got {text!r}")
    n, k, k_prime = (int(p) for p in parts)
    return ProblemInstance(n=n, k=k, k_prime=k_prime)


def _check_id(text: str) -> str:
    """One --checks value, which must name a check, in argparse's choices wording."""
    from . import bruteforce

    if text not in bruteforce.CHECK_IDS:
        choices = ", ".join(map(repr, bruteforce.CHECK_IDS))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by `main`."""
    parser = argparse.ArgumentParser(
        prog="countbench",
        description="Verification workbench for set-size distinction query bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory (default: out)")

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
        action="extend",
        type=_check_id,
        metavar="CHECK_ID",
        help="restrict to these checks (repeatable; an unknown id lists the valid ones)",
    )
    p_verify.add_argument(
        "--timing",
        action="store_true",
        help="write measured wall times into the CSV, and the memoised rows, each n's "
        "build step and the BLAS configuration into verify.json (breaks byte-for-byte "
        "determinism)",
    )

    p_bounds = sub.add_parser(
        "bounds", parents=[common], help="evaluate the trade-off branches"
    )
    p_bounds.add_argument("--n", type=float, required=True)
    p_bounds.add_argument("--k", type=float, required=True)
    p_bounds.add_argument("--eps", type=float, required=True)
    p_bounds.add_argument("--ell", type=float, default=0.0, help="copies available")
    p_bounds.add_argument("--ell-prime", type=float, default=0.0, help="state-generation calls")

    p_sim = sub.add_parser("simulate", help="run a simulation campaign")
    procedures = p_sim.add_subparsers(dest="procedure", required=True)
    shared = argparse.ArgumentParser(add_help=False, parents=[common])
    shared.add_argument("--trials", type=int, required=True)
    shared.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    shared.add_argument("--k", type=int, required=True)
    shared.add_argument("--eps", type=float, required=True)
    shared.add_argument("--true-size", type=int, help="pin the hidden-set size")
    shared.add_argument("--repetitions", type=int, default=1, help="majority-vote rounds")
    for proc, flags in SIMULATE_FLAGS.items():
        p_proc = procedures.add_parser(proc, parents=[shared])
        for flag, spec in flags.items():
            p_proc.add_argument(f"--{flag}", **spec)
    return parser


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# The thread-count variables that OpenBLAS, OpenMP, MKL, BLIS and Accelerate read.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas_config() -> dict:
    """The BLAS build and thread settings that timed rows ran under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "thread_variables": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
    }


def cmd_verify(args) -> int:
    from . import bruteforce

    # Repeated --instance, --t or --checks values name the same rows once.
    if args.instance is not None:
        instances = list(dict.fromkeys(_parse_instance(text) for text in args.instance))
    else:
        instances = [ProblemInstance(*triple) for triple in DEFAULT_INSTANCES]
    t_values = tuple(dict.fromkeys(args.t)) if args.t else DEFAULT_T_VALUES
    for t in t_values:
        if not (math.isfinite(t) and t >= 1):
            raise ValueError(f"--t must be finite and >= 1, got {t!r}")
    checks = tuple(dict.fromkeys(args.checks)) if args.checks else bruteforce.CHECK_IDS
    out_dir = Path(args.out)

    # bruteforce.sweep picks the run order and ends each memo; the reports
    # are sorted below, so the run order moves no output byte.
    build_s = {} if args.timing else None
    start = time.perf_counter()
    reports = bruteforce.sweep(instances, t_values, checks, build_s)
    sweep_s = time.perf_counter() - start
    reports.sort(key=lambda r: (r.check_id, r.n, r.k, r.k_prime, r.t, r.ell))

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [VERIFY_CSV_HEADER]
    for r in reports:
        millis = int(round(r.wall_ms)) if args.timing else 0
        lines.append(
            f"{r.check_id},{r.n},{r.k},{r.k_prime},{_fmt_float(r.t)},{r.ell},"
            f"{_fmt_float(r.closed_form)},{_fmt_float(r.brute_force)},"
            f"{_fmt_float(r.discrepancy)},{_fmt_bool(r.passed)},{millis}"
        )
    (out_dir / "verify.csv").write_text("\n".join(lines) + "\n")

    failures = [r for r in reports if not r.passed]
    summary = {
        "version": __version__,
        "tolerances": {"norm": bruteforce.TOL_NORM, "exact": bruteforce.TOL_EXACT},
        "instances": [[i.n, i.k, i.k_prime] for i in instances],
        "t_values": list(t_values),
        "checks": {cid: bruteforce.CHECK_DESCRIPTIONS[cid] for cid in checks},
        "rows": len(reports),
        "failures": len(failures),
        "all_passed": not failures,
    }
    if args.timing:
        # Rows whose millis is a memo lookup, not the cost of the check.
        summary["memoised"] = [
            [r.check_id, r.n, r.k, r.k_prime, r.t, r.ell] for r in reports if r.memoised
        ]
        # Each n's build step, which no row's millis includes.
        summary["build_ms"] = [[n, int(round(s * 1000.0))] for n, s in build_s.items()]
        summary["blas"] = _blas_config()
    (out_dir / "verify.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"verify: {len(reports)} rows, {len(failures)} failures "
        f"({sweep_s:.1f}s); reports in {out_dir}"
    )
    for r in failures:
        # A row can fail on a detail alone, with its discrepancy in tolerance.
        details = "".join(f" {name}={_fmt_detail(value)}" for name, value in r.details.items())
        print(
            f"FAIL {r.check_id} n={r.n} k={r.k} k'={r.k_prime} t={r.t:g} "
            f"discrepancy={r.discrepancy:.3e} tol={r.tolerance:.0e}{details}",
            file=sys.stderr,
        )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _whole(name: str, x: float) -> int:
    if not x.is_integer():
        raise ValueError(f"{name} = {x!r} is not a whole number")
    return int(x)


def _finite_or_none(value):
    """``value`` for JSON: every non-finite float, at any depth, becomes None."""
    if isinstance(value, dict):
        return {key: _finite_or_none(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(val) for val in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def cmd_bounds(args) -> int:
    tradeoff = adversary.theorem_tradeoff(
        args.n, args.k, args.eps, ell=args.ell, ell_prime=args.ell_prime
    )
    payload = {"version": __version__, "tradeoff": tradeoff, "dual_feasibility": None}
    try:
        inst = ProblemInstance.from_eps(_whole("n", args.n), _whole("k", args.k), args.eps)
        payload["dual_feasibility"] = adversary.dual_feasibility_report(
            inst, t=max(1.0, tradeoff["t_choice"]), ell=_whole("ell", args.ell)
        )._asdict()
    except (ValueError, OverflowError) as exc:
        payload["note"] = f"dual feasibility unavailable: {exc}"
    print(json.dumps(_finite_or_none(payload), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


# The options each procedure reads besides the shared ones, with their
# add_argument keywords.  --n comes before the budget whose default it enters.
_NEEDED = {"type": int, "required": True}
SIMULATE_FLAGS = {
    "coupon": {"budget": {"type": int, "help": "samples to draw (default 5k)"}},
    "collision": {"samples": {"type": int, "help": "samples to draw (default 8 sqrt(k)/eps)"}},
    "overlap": {
        "n": _NEEDED, "copies": {"type": int, "help": "copies to use (default 64 n/(k eps^2))"}
    },
    "qcount": {"n": _NEEDED, "oracle": {"choices": ("reflections", "membership")}},
    "subset": {
        "n": _NEEDED, "ell": _NEEDED, "oracle": {"choices": ("reflections", "state_generation")}
    },
    "sample-count": {"n": _NEEDED},
    "bootstrap": {
        "n": _NEEDED, "retries": {"type": int, "help": "growth-stage retries (default 3)"}
    },
}
# Budget flag -> (keyword of the procedure, default from the parameters so far).
_BUDGETS = {
    "budget": ("sample_budget", lambda p: 5 * p["k"]),
    "samples": ("sample_count", lambda p: math.ceil(8.0 * math.sqrt(p["k"]) / p["eps"])),
    "copies": (
        "copy_count",
        lambda p: math.ceil(64.0 * p["n"] / (p["k"] * p["eps"] * p["eps"])),
    ),
}


def _simulate_params(args) -> dict:
    # Before the default budgets, which divide by eps.
    try:
        adversary.k_prime(args.k, args.eps)
    except ValueError as exc:
        raise ValueError(f"--eps {args.eps!r} with --k {args.k}: {exc}") from None
    params: dict = {}
    for name in ("k", "eps", *SIMULATE_FLAGS[args.procedure], "true_size"):
        value = getattr(args, name)
        if name in _BUDGETS:
            key, default = _BUDGETS[name]
            params[key] = value if value is not None else default(params)
        elif value is not None:
            params[name] = value
    if args.repetitions != 1:
        params["repetitions"] = args.repetitions
    return params


def _texts(column: np.ndarray, memo: dict, text) -> list[str]:
    """``text`` of each entry of ``column``, each distinct entry formatted once per ``memo``.

    ``memo`` is keyed by the entries' 64-bit patterns, so 0.0 and -0.0 stay apart.
    """
    return [
        memo[key] if key in memo else memo.setdefault(key, text(value))
        for key, value in zip(column.view(np.int64).tolist(), column.tolist())
    ]


def _write_trials(report, batch) -> None:
    """``batch``'s CSV rows, one `simulate.BLOCK_RUNS` slice at a time.

    A row is the trial's index, its head (true size, decision, correct,
    failed), its statistic and its tally.  Each distinct head, statistic
    and tally is formatted once per batch.
    """
    heads = {
        (large, says_large, correct, failed): (
            f"{batch.k_prime if large else batch.k},{'k_prime' if says_large else 'k'},"
            f"{_fmt_bool(correct)},{_fmt_bool(failed)},"
        )
        for large, says_large, correct, failed in itertools.product((False, True), repeat=4)
    }
    columns = batch.large, batch.says_large, batch.correct, batch.failed
    # Every trial spends the set-up's one resource; the other tally columns read 0.
    tally = ",".join("{}" if name == batch.resource else "0" for name in simulate.RESOURCES)
    statistics: dict = {}
    tallies: dict = {}
    for start in range(0, len(batch.large), simulate.BLOCK_RUNS):
        part = slice(start, start + simulate.BLOCK_RUNS)
        rows = zip(
            itertools.count(start),
            zip(*(column[part].tolist() for column in columns)),
            _texts(batch.statistic[part], statistics, _fmt_float),
            _texts(batch.cost[part], tallies, tally.format),
        )
        report.write("".join(f"{i},{heads[head]}{stat},{spent}\n" for i, head, stat, spent in rows))


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    params = _simulate_params(args)

    batch = simulate.run_batch(args.procedure, params, args.trials, args.seed)
    stats = simulate.aggregate(batch)

    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.procedure.replace("-", "_")
    with (out_dir / f"simulate_{tag}.csv").open("w") as report:
        report.write(SIMULATE_CSV_HEADER + "\n")
        _write_trials(report, batch)

    payload = {
        "version": __version__,
        "procedure": args.procedure,
        "seed": args.seed,
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
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
