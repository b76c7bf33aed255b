"""What the benchmark under bench/ expects of the package.

The bench tracer wraps package functions by name, and the verify-sweep
gate compares each row's closed form with ``bench/verify_expected.csv``.
These tests read both from bench/ without changing them, so a package
change that breaks either fails here and not only in a benchmark run.
The traced names are also the only code in src/ that nothing else in
src/ may leave unreferenced.
"""

import ast
import csv
import hashlib
import importlib
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from countbench import bruteforce, cli
from countbench.adversary import ProblemInstance

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "countbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.TRACED])
def test_tracer_targets_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"countbench.{module}"), attr))


@pytest.fixture
def tracer(monkeypatch):
    """A Tracer installed for one test; monkeypatch undoes its wrappers."""
    for module_name, attr, _ in tracing.TRACED:
        module = importlib.import_module(f"countbench.{module_name}")
        # Set to itself, so that monkeypatch undoes the tracer's wrapper.
        monkeypatch.setattr(module, attr, getattr(module, attr))
    installed = tracing.Tracer()
    installed.install()
    return installed


def test_every_eigvalsh_runs_inside_a_traced_spectral_norm(monkeypatch, tracer):
    # The per-layer trace charges solve time to linalg.spectral_norm; an
    # eigvalsh called anywhere else would land in its caller's self time.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def timed(*args, **kwargs):
        calls.append(perf_counter())
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", timed)
    bruteforce.clear_memos()
    inst = ProblemInstance(10, 3, 4)
    checks = ("DELTA_MEMB", "V_DECOMP", "PHI_COMMUTE", "DELTA_GEN", "NORM_GAMMA", "PSI_POWER")
    for check in checks:
        for t in (1.0, 2.0, 3.0):
            assert bruteforce.verify(check, inst, t=t).passed
    norms = [(start, end) for name, start, end, *_ in tracer.spans if name == "linalg.spectral_norm"]
    # Per row, DELTA_MEMB takes two solves (one per block at element n),
    # DELTA_GEN two (one per lifted difference), NORM_GAMMA and PSI_POWER one.
    assert len(calls) >= 3 * (2 + 2 + 1 + 1)
    assert all(any(start <= at <= end for start, end in norms) for at in calls)


def test_a_traced_sweep_spans_every_row_and_ends_with_cache_misses(tmp_path, tracer):
    # The worker's warm-cache gate reads johnson.irrep_projectors' misses
    # after a traced sweep.  The sweep empties that memo before each n's
    # DELTA_GEN rows; the johnson memos carry their counts across a clear,
    # where a plain lru_cache would read 0 here.
    argv = ["verify", "--instance", "7,1,2", "--instance", "6,1,2", "--t", "1", "--t", "2"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    with (tmp_path / "verify.csv").open(newline="") as fh:
        rows = Counter(r["check_id"] for r in csv.DictReader(fh))
    spans = Counter(tag for name, *_, tag in tracer.spans if name == "bruteforce.verify")
    assert spans == rows and sum(rows.values()) == 2 * 2 * len(bruteforce.CHECK_IDS)
    assert tracer.cache_misses()["johnson.irrep_projectors"] > 0


def _definitions_and_uses():
    """Definitions of src/, and the (module, owner, method, name) uses.

    Definitions are the top-level (module, name) pairs and the
    (module, class, method) triples of non-dunder methods and properties.
    A use is a name, attribute or import in code (docstrings do not count);
    its owner is the top-level definition it sits in, or None at module
    level, and its method the method of that class it sits in, or None.
    """
    defined, methods, uses = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            if owner is not None:
                defined.add((path.stem, owner))
            method_of = {}
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    if not item.name.startswith("__"):
                        methods.add((path.stem, owner, item.name))
                    method_of.update((id(sub), item.name) for sub in ast.walk(item))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used = sub.id
                elif isinstance(sub, ast.Attribute):
                    used = sub.attr
                elif isinstance(sub, ast.alias):
                    used = sub.name
                else:
                    continue
                uses.add((path.stem, owner, method_of.get(id(sub)), used))
    return defined, methods, uses


def test_src_holds_no_code_only_tests_call():
    # The tracer wraps its targets by name, so a traced function stays in
    # src/ even when only the tests call it: bruteforce.build_xi, the
    # full-size channel the block-coordinate pass is gated against, waits
    # for a benchmark change that drops it from tracing.TRACED.
    traced = {(module, attr) for module, attr, _ in tracing.TRACED}
    defined, methods, uses = _definitions_and_uses()
    unused = sorted(
        f"{module}.{name}"
        for module, name in defined - traced
        if not any(
            used == name and (use_module, owner) != (module, name)
            for use_module, owner, _, used in uses
        )
    )
    unused += sorted(
        f"{module}.{cls}.{name}"
        for module, cls, name in methods
        if not any(
            used == name and (use_module, owner, method) != (module, cls, name)
            for use_module, owner, method, used in uses
        )
    )
    assert unused == []


# DELTA_GEN reports the closed form of the side with the larger of two
# round-off-sized gaps, PSI_COEFFS that of the block with the largest gap.
# The recorded CSV holds those picks, so moving the brute-force side by one
# ulp can flip one and fail the benchmark gate.
ROUND_OFF_PICKED = ("DELTA_GEN", "PSI_COEFFS")
PICKED_ROWS = {
    key: closed_form
    for key, closed_form in workloads.expected_verify_rows().items()
    if key[0] in ROUND_OFF_PICKED
}


@pytest.mark.parametrize("key", PICKED_ROWS, ids=",".join)
def test_round_off_picked_closed_forms_match_the_recorded_sweep(key):
    check, n, k, k_prime, t, ell = key
    report = bruteforce.verify(
        check, ProblemInstance(int(n), int(k), int(k_prime)), t=float(t), ell=int(ell)
    )
    assert report.passed
    got = cli._fmt_float(report.closed_form)
    assert workloads._closed_form_matches(got, PICKED_ROWS[key]), (got, PICKED_ROWS[key])


# sha256 over the brute_force and discrepancy cells of every DELTA_GEN and
# PSI_COEFFS row of the default sweep, as the CLI prints them, one line
# "check_id,n,k,k_prime,t,ell,brute_force,discrepancy" per row in CSV order.
# The round-off picks above rest on these bits; recorded before the
# bounded-memory DELTA_GEN (one lifted array, the COL lift subtracted one
# row block of gamma at a time) and unedited since.
PICKED_CELLS_DIGEST = "850eb688a8eee2d677b8578dfab6eb5b6b3c08b4be24529c72909305a98d4aee"


def test_round_off_picked_cells_are_pinned(tmp_path):
    assert cli.main(["verify", "--checks", *ROUND_OFF_PICKED, "--out", str(tmp_path)]) == 0
    with (tmp_path / "verify.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = ("check_id", "n", "k", "k_prime", "t", "ell", "brute_force", "discrepancy")
    text = "".join(",".join(r[f] for f in fields) + "\n" for r in rows)
    assert len(rows) == len(PICKED_ROWS)
    assert hashlib.sha256(text.encode()).hexdigest() == PICKED_CELLS_DIGEST
