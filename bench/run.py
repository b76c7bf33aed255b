"""countbench benchmark: one seeded workload, timed from outside the package.

Usage, from the repository root:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* verify-sweep: `countbench verify` on the default sweep, 8 instances x
  3 cutoffs x 10 checks = 240 rows, in one call.  The seed only orders
  the instances and cutoffs.  One sweep is the unit of work, so this
  workload takes as long as a sweep (about a minute), whatever --seconds.
  The call is its one timed operation, so its op_p50_ms and op_p90_ms
  are the sweep's latency; the gate still counts the 240 rows.
* bounds-simulate: `countbench bounds` at 4 points per second of
  --seconds (at least 100), k log-uniform in [1e2, 3e4], and
  `countbench simulate` for all seven procedures, 1.5 batches of 300
  trials per procedure per second of --seconds, at seeded parameter
  points; the two kinds of operation run in one seeded order.  At
  --seconds 30 the timed phase lasts about 30 s on a 2-CPU machine.

Each workload is a closed loop with a single client: one process, no
--jobs, BLAS at its default thread count; an operation starts when the
previous one has returned.  The work a plan holds depends only on
(seed, seconds), so a faster program finishes sooner.

Every measured run starts a fresh interpreter (worker.py), because the
package's caches live as long as the process.  With --trace 0 the run
also starts the worker a few times only to set up, and reports the
median set-up time.  With --trace 1 it runs the workload once untraced
and once with spans around the package's public functions, and reports
per-layer metrics plus the tracing overhead (traced minus untraced wall
time).

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  A longer record, with the
machine facts, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5  # workers started per untraced run; set-up time is their median
DEADLINE_S = 175.0  # a run must end within 180 s
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit() -> str:
    """HEAD read from .git without running git, so nothing outside the checkout is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


class Runner:
    """Starts workers one after another and waits for each to end."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def run(self, trace: int, setup_only: bool = False) -> dict:
        a = self.args
        self.count += 1
        tag = f"{a.workload}-seed{a.seed}-{os.getpid()}-{self.count}"
        work_dir = WORK / tag
        result = WORK / f"{tag}.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(trace),
            "--work-dir", str(work_dir), "--result", str(result),
        ]
        if trace:
            cmd += ["--trace-file", str(WORK / "traces" / f"{a.workload}-seed{a.seed}.jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        try:
            spawned_at = time.monotonic()
            subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                cwd=ROOT, env=self.env, stdout=sys.stderr, check=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            return json.loads(result.read_text())
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            result.unlink(missing_ok=True)


def percentile_ms(seconds: list, q: int) -> float:
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.run(trace=0, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    measured = runner.run(trace=0)
    setups.append(measured["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (measured["wall_s"], "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "op_p50_ms": (percentile_ms(measured["op_s"], 50), "ms"),
        "op_p90_ms": (percentile_ms(measured["op_s"], 90), "ms"),
    }
    measured["setup_samples_s"] = setups
    return metrics, measured


def per_layer(runner: Runner) -> tuple[dict, dict]:
    plain = runner.run(trace=0)
    traced = runner.run(trace=1)
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["layers"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    for key in ("attempted", "failed"):
        traced[key] += plain[key]
    traced["problems"] += plain["problems"]
    return metrics, traced


def main(argv=None) -> int:
    args = _parse(argv)
    # Turn SIGTERM into SystemExit, so that a running worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "countbench" / "__init__.py").is_file():
        print(f"error: no countbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args, deadline=time.monotonic() + DEADLINE_S)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        metrics, record = (per_layer if args.trace else end_to_end)(runner)
    except subprocess.SubprocessError as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1

    wanted = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != wanted:
        print(f"error: metrics {sorted(set(metrics) ^ wanted)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted, failed = record["attempted"], record["failed"]
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        machine=machine_facts(), fail_frac=failed / attempted,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    record.pop("layers", None)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in record["problems"][:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"{args.workload} seed={args.seed}: {attempted} ops, fail_frac={failed / attempted:g}")
    if "op_s" in record:
        by_kind = {}
        for kind, seconds in zip(record["op_kind"], record["op_s"]):
            by_kind.setdefault(kind, []).append(seconds)
        for kind, seconds in sorted(by_kind.items()):
            print(f"  {kind}: {len(seconds)} ops, p50 {percentile_ms(seconds, 50):.6g} ms, "
                  f"p90 {percentile_ms(seconds, 90):.6g} ms, busy {sum(seconds):.6g} s")
        if record["trials"]:
            print(f"  simulate trials_per_s = {record['trials'] / sum(by_kind['simulate']):.6g} 1/s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
