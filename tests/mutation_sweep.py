"""Off-suite mutation sweep: which one-operator defects do verify's own rows miss?

Usage, from the repository root:

    python tests/mutation_sweep.py --out mutation_survivors.json
    python tests/mutation_sweep.py --root ../parent --files adversary.py --out adv.json

Each mutant swaps one binary operator of one module, + with - or * with /,
addressed by the position of its ``ast.BinOp`` in ``ast.walk`` order; the
rest of the file keeps its bytes, so line numbers hold.  Every mutant runs
in one temporary copy of the repository tree (``--root`` names it) less
IGNORED, whole because tier-1 reads files beside the code, README.md among
them; the tree itself is never written.  The unmutated copy must first
pass both judges below.

The default ``countbench verify`` sweep judges each mutant first: exit 0
means every row passed and the mutant survives; exit 1 with FAIL lines is
a killing row; anything else (a traceback, exit 2, more than SWEEP_TIMEOUT
seconds) is a crash.  The sweep's survivors then run tier-1 (``pytest
-x``), which kills a survivor by failing any test.  Each run's address
space is capped at MEMORY_CAP.

The JSON lists every sweep survivor with its file, line, enclosing
function, the original and mutated source line and the tier-1 verdict; it
also records the totals per file.  A mutant takes about 2 s under the
sweep, and a tier-1 run up to a minute.  The script is not collected by
pytest: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

MODULES = ("adversary.py", "bruteforce.py", "johnson.py", "linalg.py")
SWAP = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*"}
IGNORED = shutil.ignore_patterns(".git", ".bench_work", ".hypothesis", "__pycache__", "out")
# Address-space cap of each run, so that a mutant that sizes an array wrong
# fails with a MemoryError instead of taking the machine's memory.
MEMORY_CAP = 3 << 30
# Seconds before a sweep run counts as a crash, and a tier-1 run as a kill.
SWEEP_TIMEOUT = 120.0
TIER1_TIMEOUT = 1200.0


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """Character offset of (1-based line, UTF-8 byte column) in the joined source."""
    return sum(len(line) for line in lines[: lineno - 1]) + len(
        lines[lineno - 1].encode()[:col].decode()
    )


def mutants(source: str):
    """(index, line, function, mutated source) for each swappable BinOp, in ast.walk order."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    functions = sorted(
        (node.lineno, node.end_lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    binops = [n for n in ast.walk(tree) if isinstance(n, ast.BinOp) and type(n.op) in SWAP]
    for index, node in enumerate(binops):
        start = _offset(lines, node.left.end_lineno, node.left.end_col_offset)
        stop = _offset(lines, node.right.lineno, node.right.col_offset)
        # The gap between the operands holds the operator, with any closing
        # and opening parentheses, spaces and line breaks around it.
        gap = source[start:stop]
        at = start + next(i for i, ch in enumerate(gap) if ch in "+-*/")
        mutated = source[:at] + SWAP[type(node.op)] + source[at + 1 :]
        line = source.count("\n", 0, at) + 1
        inner = [name for first, last, name in functions if first <= line <= last]
        yield index, line, inner[-1] if inner else "<module>", mutated


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run(cmd, cwd, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(cwd) / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stderr


def judge_by_sweep(work: Path) -> str:
    code, stderr = _run(
        [sys.executable, "-m", "countbench", "verify", "--out", str(work / "out")],
        work,
        SWEEP_TIMEOUT,
    )
    if code == 0:
        return "survived"
    if code == 1 and "Traceback" not in stderr and "FAIL " in stderr:
        return "failed a row"
    return "crashed"


def judge_by_tier1(work: Path) -> str:
    code, _ = _run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--no-header"],
        work,
        TIER1_TIMEOUT,
    )
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="repository tree to copy (default: this one)")
    parser.add_argument("--files", nargs="+", default=list(MODULES), choices=MODULES)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    root = Path(args.root)
    totals, survivors = {}, []
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        work = Path(tmp) / "tree"
        shutil.copytree(root, work, ignore=IGNORED)
        if judge_by_sweep(work) != "survived" or judge_by_tier1(work) != "survived":
            parser.error(f"the unmutated tree at {root} does not pass the verify sweep and tier-1")
        for module in args.files:
            path = work / "src" / "countbench" / module
            source = path.read_text()
            original = source.splitlines()
            verdicts = Counter()
            for index, line, function, mutated in mutants(source):
                path.write_text(mutated)
                verdict = judge_by_sweep(work)
                verdicts[verdict] += 1
                if verdict == "survived":
                    row = {"file": module, "index": index, "line": line, "function": function,
                           "source": original[line - 1].strip(),
                           "mutant": mutated.splitlines()[line - 1].strip(),
                           "tier1": judge_by_tier1(work)}
                    survivors.append(row)
                    verdict += f", tier-1 {row['tier1']}"
                print(f"{module}:{line} #{index} {function}: {verdict}", flush=True)
            path.write_text(source)
            count = sum(verdicts.values())
            totals[module] = {"mutants": count, **verdicts,
                              "sweep_kill_rate": 1 - verdicts["survived"] / count}
    report = {"totals": totals, "survivors": survivors}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(totals, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
