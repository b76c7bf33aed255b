"""One measured run of a workload in a fresh interpreter.

`run.py` starts this script once per run, because countbench keeps
caches for the life of a process (the `johnson` lru caches, the
`bruteforce` instance workspaces and the phase-estimation distributions)
and a second pass in the same process would skip most of the work.
The script writes its result as JSON to the path given by `--result`.
Set-up time runs from `--spawned-at` (the parent's `time.monotonic()`
just before the start) to the first timed call, so it covers starting
the interpreter, importing numpy and countbench and making the plan.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import workloads
from countbench import cli
from tracing import Tracer


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--trace-file")
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _trials(plan, proc=None) -> int:
    return sum(
        int(argv[argv.index("--trials") + 1])
        for argv in plan
        if argv[0] == "simulate" and proc in (None, argv[1])
    )


def run_plan(plan, work_dir: Path, tracer=None):
    """Run the operations back to back; return per-op seconds, outputs and wall time."""
    latencies, outputs = [], []
    wall_start = time.perf_counter()
    for index, argv in enumerate(plan):
        if tracer is not None:
            tracer.op_id = index
        stdout = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(stdout):
            code = cli.main(argv + ["--out", str(work_dir / f"op{index}")])
        latencies.append(time.perf_counter() - start)
        outputs.append((code, stdout.getvalue()))
    return latencies, outputs, time.perf_counter() - wall_start


def gate(workload, plan, outputs, work_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the workload's correctness gate."""
    if workload == "verify-sweep":
        return workloads.check_verify(work_dir / "op0", outputs[0][0])
    problems, failed = [], 0
    rerun_procs = set()
    for index, (argv, (code, stdout)) in enumerate(zip(plan, outputs)):
        if argv[0] == "bounds":
            found = workloads.check_bounds(argv, stdout, code)
        else:
            proc = argv[1]
            found = workloads.check_simulate(work_dir / f"op{index}", proc, code)
            # Determinism: the first batch of each procedure runs again with
            # the same seed and must write the same aggregate JSON.
            if not found and proc not in rerun_procs:
                rerun_procs.add(proc)
                name = f"simulate_{proc.replace('-', '_')}.json"
                again = work_dir / f"rerun{index}"
                with redirect_stdout(io.StringIO()):
                    cli.main(argv + ["--out", str(again)])
                if (again / name).read_bytes() != (work_dir / f"op{index}" / name).read_bytes():
                    found = ["aggregate JSON differs on a rerun with the same seed"]
        if found:
            failed += 1
            problems += [f"op {index} {' '.join(argv)}: {p}" for p in found]
    return len(plan), failed, problems


def layer_metrics(tracer: Tracer, misses: dict, plan) -> dict:
    """Every per-layer metric, zero where the workload does not reach the layer."""
    totals = tracer.totals()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    for name in ("bruteforce.build_xi", "bruteforce.lift", "linalg.spectral_norm",
                 "linalg.orthonormal_column_basis"):
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.self_s", get(name, "self_s"), "s")
    put("bruteforce.verify.self_s", get("bruteforce.verify", "self_s"), "s")
    for cid in sorted({key[0] for key in workloads.expected_verify_rows()}):
        put(f"bruteforce.check.{cid}.s", get(f"bruteforce.verify.{cid}", "incl_s"), "s")
    for name in ("johnson.irrep_projectors", "johnson.transporter", "johnson.reference_vectors"):
        put(f"{name}.self_s", get(name, "self_s"), "s")
        put(f"{name}.misses", misses.get(name, 0), "count")
    for name in ("johnson.subset_basis", "johnson.inclusion_matrix"):
        put(f"{name}.self_s", get(name, "self_s"), "s")
    for fn in ("norm_delta_reflection", "phi_table", "tilde_tables", "norm_delta_state_gen",
               "norm_delta_membership", "assemble_adversary"):
        put(f"adversary.{fn}.self_s", get(f"adversary.{fn}", "self_s"), "s")
    put("adversary.phi_components.calls", get("adversary.phi_components", "calls"), "count")
    for proc in workloads.SIM_PROCEDURES:
        busy = get(f"simulate.run_batch.{proc}", "incl_s")
        rate = _trials(plan, proc) / busy if busy else 0.0
        put(f"simulate.run_batch.{proc}.trials_per_s", rate, "1/s")
    pe = "simulate.phase_estimation_distribution"
    put(f"{pe}.self_s", get(pe, "self_s"), "s")
    put(f"{pe}.misses", misses.get(pe, 0), "count")
    put("cli.main.self_s", get("cli.main", "self_s"), "s")
    put("trace.spans", len(tracer.spans), "count")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    work_dir = Path(args.work_dir)
    plan = workloads.plan(args.workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        misses_before = tracer.cache_misses()
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        latencies, outputs, wall_s = run_plan(plan, work_dir, tracer)
        result.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            op_s=latencies,
            op_kind=[argv[0] for argv in plan],
            trials=_trials(plan),
        )
        if tracer is not None:
            # Read the trace before the gate, whose reruns would add to it.
            after = tracer.cache_misses()
            misses = {name: after[name] - misses_before[name] for name in after}
            result["layers"] = layer_metrics(tracer, misses, plan)
            if args.trace_file:
                tracer.write(args.trace_file)
        attempted, failed, problems = gate(args.workload, plan, outputs, work_dir)
        # No misses would mean the caches were warm, i.e. the run did not start fresh.
        if tracer is not None and args.workload == "verify-sweep" and (
            misses["johnson.irrep_projectors"] == 0
        ):
            failed += 1
            problems.append("johnson.irrep_projectors had no misses: caches were warm")
        result.update(attempted=attempted, failed=failed, problems=problems)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
