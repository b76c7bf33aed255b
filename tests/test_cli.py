import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from countbench import adversary, bruteforce, cli, johnson, simulate
from countbench.adversary import ProblemInstance


def run(argv):
    return cli.main(argv)


@pytest.mark.skipif(shutil.which("countbench") is None, reason="script not installed")
def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        ["countbench", "simulate", "coupon", "--k", "8", "--eps", "1",
         "--trials", "20", "--seed", "1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "simulate_coupon.json").exists()


def test_python_m_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for module in ("countbench", "countbench.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "simulate", "coupon", "--k", "8", "--eps",
             "1", "--trials", "20", "--seed", "1", "--out", str(tmp_path / module)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert (tmp_path / module / "simulate_coupon.json").exists()


# Runs cli.main on each argv list of the JSON in argv[1], in one process, and
# prints the countbench modules then loaded.
LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys
from countbench import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.startswith("countbench."))))
"""
VERIFIER_MODULES = {"countbench.bruteforce", "countbench.johnson"}


def test_only_verify_loads_the_verifier(tmp_path):
    # bounds and simulate read the closed side alone; a fresh process shows
    # what each command imports.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {
        "bounds-simulate": [
            ["bounds", "--n", "1000", "--k", "10", "--eps", "0.5"],
            ["simulate", "coupon", "--trials", "3", "--k", "64", "--eps", "1"],
        ],
        "verify": [["verify", "--instance", "6,1,2", "--t", "1", "--checks", "TABLES"]],
    }
    loaded = {}
    for name, argvs in runs.items():
        argvs = [argv + ["--out", str(tmp_path / name)] for argv in argvs]
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES_SCRIPT, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        loaded[name] = set(json.loads(proc.stdout))
    assert not loaded["bounds-simulate"] & VERIFIER_MODULES
    assert loaded["verify"] >= VERIFIER_MODULES


# OpenBLAS reads the first of these that is set.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_blas_threads_move_no_pass_or_closed_form(tmp_path):
    # One BLAS thread and the default write the same pass and closed_form
    # columns; only brute_force and discrepancy may move, at round-off level.
    # DELTA_GEN and PSI_COEFFS pick their closed form by the larger of two
    # round-off gaps, so their closed_form cells are left out.
    src = Path(__file__).resolve().parents[1] / "src"
    header = cli.VERIFY_CSV_HEADER.split(",")
    written = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = str(src)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        proc = subprocess.run(
            [sys.executable, "-m", "countbench", "verify", "--instance", "8,2,3",
             "--instance", "12,3,4", "--t", "1", "--t", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [dict(zip(header, line.split(",")))
                for line in (out / "verify.csv").read_text().splitlines()[1:]]
        written.append([
            (row["check_id"], row["n"], row["k"], row["k_prime"], row["t"], row["pass"],
             None if row["check_id"] in ("DELTA_GEN", "PSI_COEFFS") else row["closed_form"])
            for row in rows
        ])
    assert len(written[0]) == 2 * 2 * len(bruteforce.CHECK_IDS)
    assert written[0] == written[1]


class TestVerifyCommand:
    def test_single_instance_passes(self, tmp_path):
        out = tmp_path / "reports"
        code = run(["verify", "--instance", "6,1,2", "--t", "1", "--out", str(out)])
        assert code == 0
        csv_lines = (out / "verify.csv").read_text().splitlines()
        assert csv_lines[0] == cli.VERIFY_CSV_HEADER
        assert len(csv_lines) == 11  # header + 10 checks
        assert all(",true," in line for line in csv_lines[1:])
        summary = json.loads((out / "verify.json").read_text())
        assert summary["all_passed"] and summary["failures"] == 0
        assert set(summary["checks"]) == set_of_checks()

    def test_unmeetable_tolerance_fails(self, tmp_path, monkeypatch):
        # The tolerances are read at call time, so patching them reaches the CLI.
        monkeypatch.setattr(bruteforce, "TOL_NORM", 1e-30)
        monkeypatch.setattr(bruteforce, "TOL_EXACT", 1e-30)
        code = run(["verify", "--instance", "6,1,2", "--t", "2", "--out", str(tmp_path / "r")])
        assert code == 1

    def test_fail_line_names_the_details(self, tmp_path, capsys, monkeypatch):
        # An entry off by 1e-7 breaks Gamma's symmetry: DELTA_REFL's gap stays
        # under TOL_NORM, and only its structure residual fails the row.
        original = bruteforce.adversary_matrix

        def planted(inst, t):
            gamma = np.array(original(inst, t))
            gamma[0, 0] += 1e-7
            return gamma

        monkeypatch.setattr(bruteforce, "adversary_matrix", planted)
        bruteforce.clear_memos()
        argv = ["verify", "--instance", "8,2,3", "--t", "2", "--checks", "DELTA_REFL"]
        assert run(argv + ["--out", str(tmp_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        match = re.fullmatch(
            r"FAIL DELTA_REFL n=8 k=2 k'=3 t=2 discrepancy=(\S+) tol=1e-08 "
            r"structure_residual=(\S+)",
            line,
        )
        assert match, line
        assert float(match[1]) <= bruteforce.TOL_NORM
        assert float(match[2]) > bruteforce.TOL_EXACT

    def test_fail_line_names_a_short_channel_count(self, tmp_path, capsys, monkeypatch):
        # A channel pass that compared three of the nine live channels of level k = 2.
        monkeypatch.setattr(bruteforce, "_channel_norms", lambda inst: (0.0, 0.0, 3))
        argv = ["verify", "--instance", "8,2,3", "--t", "1", "--checks", "PHI_COMMUTE"]
        assert run(argv + ["--out", str(tmp_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "FAIL PHI_COMMUTE n=8 k=2 k'=3 t=1 discrepancy=1.000e+00 tol=1e-08 channels_compared=3"
        )

    def test_empty_instance_list_is_usage_error(self, tmp_path):
        code = run(["verify", "--instance", "", "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.parametrize("bad", ["6,1", "8,,2,3", ",8,2,3", "8,2,3,"])
    def test_bad_instance_is_usage_error(self, tmp_path, bad):
        # An empty field is rejected, not dropped, before --out is created.
        code = run(["verify", "--instance", bad, "--out", str(tmp_path / "r")])
        assert code == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_non_finite_cutoff_is_usage_error(self, tmp_path, capsys, t):
        code = run(["verify", "--instance", "6,1,2", f"--t={t}", "--out", str(tmp_path / "r")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --t must be finite")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--t=-3", "--checks", "V_DECOMP"],
            ["--t", "0", "--checks", "TABLES", "PROJECTORS"],
            ["--t", "0.5"],
            ["--t", "1", "--t", "0.999", "--checks", "NORM_GAMMA"],
        ],
        ids=["schedule-free", "zero", "all-checks", "after-a-valid-t"],
    )
    def test_cutoff_below_one_is_usage_error(self, tmp_path, capsys, argv):
        # Rejected up front, before any row is computed, whichever checks run.
        code = run(["verify", "--instance", "6,1,2", *argv, "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --t must be finite and >= 1")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("15,3,4", "lifted dimension C(n,k')*n = 20475 exceeds cap"),
            ("8,3,3", "need k < k'"),
            ("21,1,2", "ground set size 21 exceeds cap 20"),
        ],
        ids=["over-cap", "k-equals-k-prime", "ground-set-over-cap"],
    )
    def test_inadmissible_instance_fails_before_any_row(
        self, tmp_path, capsys, monkeypatch, bad, message
    ):
        # Placed after a valid instance, it is still rejected before any check runs.
        calls = []
        original = bruteforce.verify

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bruteforce, "verify", counting)
        argv = ["--instance", "6,1,2", "--instance", bad, "--t", "1", "--t", "2"]
        code = run(["verify", *argv, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: instance {bad}: ") and message in err
        assert calls == []
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--instance", "6,1,2", "--t", "1", "--t", "1"],
            ["--instance", "6,1,2", "--instance", "6, 1, 2", "--t", "1"],
            ["--instance", "6,1,2", "--instance", "6,1,2", "--t", "1", "--t", "1.0"],
            ["--instance", "6,1,2", "--t", "1", "--checks", *bruteforce.CHECK_IDS, "NORM_GAMMA"],
        ],
        ids=["t", "instance", "both", "checks"],
    )
    def test_repeated_values_give_each_row_once(self, tmp_path, argv):
        out = tmp_path / "r"
        assert run(["verify", *argv, "--out", str(out)]) == 0
        assert len((out / "verify.csv").read_text().splitlines()) == 11  # header + 10 checks
        summary = json.loads((out / "verify.json").read_text())
        assert summary["instances"] == [[6, 1, 2]] and summary["t_values"] == [1.0]
        assert summary["rows"] == 10

    @pytest.mark.parametrize(
        "checks",
        [["NOPE"], ["TABLES", "NOPE"], ["TABLES", "--checks", "NOPE"]],
        ids=["alone", "after-a-valid-id", "in-a-second-flag"],
    )
    def test_unknown_check_is_usage_error(self, tmp_path, capsys, checks):
        # argparse rejects it, naming the valid ids, before --out is made.
        out = tmp_path / "r"
        code = run(["verify", "--instance", "6,1,2", "--checks", *checks, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        choices = ", ".join(map(repr, bruteforce.CHECK_IDS))
        assert f"argument --checks: invalid choice: 'NOPE' (choose from {choices})" in err
        assert not out.exists()

    def test_repeated_checks_flags_add_up(self, tmp_path):
        out = tmp_path / "r"
        argv = ["verify", "--instance", "6,1,2", "--t", "2",
                "--checks", "DELTA_GEN", "--checks", "DELTA_REFL", "NORM_GAMMA"]
        assert run(argv + ["--out", str(out)]) == 0
        rows = (out / "verify.csv").read_text().splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == ["DELTA_GEN", "DELTA_REFL", "NORM_GAMMA"]

    def test_cutoff_above_k_passes_delta_gen(self, tmp_path):
        # At t > k the k' level's block k+1 carries g_k c0'_{k+1}; brute force
        # reads 0.3 at (8,2,3), t = 5, and the closed form must include it.
        out = tmp_path / "r"
        argv = ["verify", "--instance", "8,2,3", "--t", "5", "--checks", "DELTA_GEN"]
        assert run(argv + ["--out", str(out)]) == 0
        assert (out / "verify.csv").read_text().splitlines()[1].split(",")[9] == "true"

    def test_jobs_flag_is_gone(self, tmp_path):
        argv = ["verify", "--instance", "6,1,2", "--t", "1", "--jobs", "2"]
        assert run(argv + ["--out", str(tmp_path / "r")]) == 2

    def test_summary_reports_sweep_wall_time(self, tmp_path, capsys):
        argv = ["verify", "--instance", "8,2,3", "--instance", "9,2,3", "--t", "1"]
        start = time.perf_counter()
        assert run(argv + ["--out", str(tmp_path / "r")]) == 0
        elapsed = time.perf_counter() - start
        match = re.search(r"\(([0-9.]+)s\)", capsys.readouterr().out)
        # One decimal is printed, so allow half a unit of rounding.
        assert float(match.group(1)) <= elapsed + 0.05

    def test_timing_flag_fills_millis(self, tmp_path):
        out = tmp_path / "timed"
        code = run(
            ["verify", "--instance", "8,2,3", "--t", "2", "--timing", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "verify.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[-1].isdigit() for row in rows)

    def test_timing_lists_memoised_rows(self, tmp_path):
        bruteforce.clear_memos()
        argv = ["verify", "--instance", "7,1,2", "--t", "1", "--t", "2", "--t", "3",
                "--checks", "TABLES", "V_DECOMP", "NORM_GAMMA"]
        # Default mode: two runs write the same bytes with no memo listing.
        a, b, timed = tmp_path / "a", tmp_path / "b", tmp_path / "timed"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "verify.csv").read_bytes() == (b / "verify.csv").read_bytes()
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()
        assert "memoised" not in json.loads((a / "verify.json").read_text())

        bruteforce.clear_memos()
        assert run(argv + ["--timing", "--out", str(timed)]) == 0
        memoised = json.loads((timed / "verify.json").read_text())["memoised"]
        assert sorted(memoised) == [
            [check, 7, 1, 2, t, 0] for check in ("TABLES", "V_DECOMP") for t in (2.0, 3.0)
        ]

    def test_timing_lists_rows_served_by_the_shared_channel_pass(self, tmp_path):
        # V_DECOMP and PHI_COMMUTE share one channel pass: the check that runs
        # second is served from the memo already at the first cutoff.
        bruteforce.clear_memos()
        argv = ["verify", "--instance", "7,1,2", "--t", "1", "--t", "2", "--t", "3",
                "--checks", "V_DECOMP", "PHI_COMMUTE", "--timing", "--out", str(tmp_path)]
        assert run(argv) == 0
        memoised = json.loads((tmp_path / "verify.json").read_text())["memoised"]
        assert sorted(memoised) == sorted(
            [["PHI_COMMUTE", 7, 1, 2, t, 0] for t in (1.0, 2.0, 3.0)]
            + [["V_DECOMP", 7, 1, 2, t, 0] for t in (2.0, 3.0)]
        )

    def test_timing_records_the_blas_configuration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        argv = ["verify", "--instance", "6,1,2", "--t", "1", "--checks", "TABLES"]
        timed = tmp_path / "timed"
        assert run(argv + ["--timing", "--out", str(timed)]) == 0
        blas = json.loads((timed / "verify.json").read_text())["blas"]
        built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (blas["name"], blas["version"]) == (built["name"], built["version"])
        assert blas["cpu_count"] == os.cpu_count()
        variables = blas["thread_variables"]
        assert sorted(variables) == sorted(cli.BLAS_THREAD_VARIABLES) and len(variables) == 5
        assert variables["OPENBLAS_NUM_THREADS"] == "1" and variables["MKL_NUM_THREADS"] is None

    def test_default_run_records_no_blas_configuration(self, tmp_path, monkeypatch):
        # The thread settings differ between the two runs; neither shows in the bytes.
        argv = ["verify", "--instance", "6,1,2", "--t", "1", "--checks", "TABLES"]
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert run(argv + ["--out", str(a)]) == 0
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()
        assert "blas" not in json.loads((a / "verify.json").read_text())

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["verify", "--instance", "6,1,2", "--t", "1"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "verify.csv").read_bytes() == (b / "verify.csv").read_bytes()
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()


# The default instances in an order that is not level-major: (12,2,4) and
# (12,3,4), which share the k' = 4 level, are apart, and so are (10,2,3) and
# (10,3,4), which share the (10,3) family.
SCRAMBLED = ((12, 2, 4), (10, 3, 4), (6, 1, 2), (12, 3, 4), (9, 2, 3), (10, 2, 3),
             (7, 1, 2), (8, 2, 3))


def _instance_flags(instances):
    return [flag for triple in instances for flag in ("--instance", ",".join(map(str, triple)))]


class TestLevelMajorSweep:
    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        bruteforce.clear_memos()
        yield
        bruteforce.clear_memos()

    def test_instance_order_moves_no_byte(self, tmp_path):
        assert sorted(SCRAMBLED) == sorted(cli.DEFAULT_INSTANCES)
        written = []
        for name, order in (("default", cli.DEFAULT_INSTANCES), ("scrambled", SCRAMBLED)):
            bruteforce.clear_memos()
            out = tmp_path / name
            assert run(["verify", *_instance_flags(order), "--out", str(out)]) == 0
            written.append((out / "verify.csv").read_bytes())
        assert written[0] == written[1]

    def test_each_level_is_done_once(self, tmp_path, monkeypatch):
        passes = Counter()
        level_channels = bruteforce._level_channels

        def counting_pass(n, level, hatted):
            passes[n, level, hatted] += 1
            return level_channels(n, level, hatted)

        monkeypatch.setattr(bruteforce, "_level_channels", counting_pass)
        records = _count_memo_misses(monkeypatch, "_level")
        table_gaps = _count_memo_misses(monkeypatch, "_level_table_gap")
        eighs, gammas, eigh_rows = Counter(), Counter(), Counter()
        eigh, adversary_matrix = np.linalg.eigh, bruteforce.adversary_matrix
        verify, running = bruteforce.verify, [None]

        def recording(check_id, inst, t, ell):
            running[0] = check_id
            try:
                return verify(check_id, inst, t, ell)
            finally:
                running[0] = None

        def counting_eigh(a, *args, **kwargs):
            eighs[len(a)] += 1
            eigh_rows[running[0]] += 1
            return eigh(a, *args, **kwargs)

        def counting_gamma(inst, t):
            gammas[inst, t] += 1
            return adversary_matrix(inst, t)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(bruteforce, "adversary_matrix", counting_gamma)
        monkeypatch.setattr(bruteforce, "verify", recording)
        # From empty Johnson memos, whose miss counts run on across the sweep's clears.
        johnson.clear_caches()
        families, phis = (johnson.irrep_projectors.cache_info().misses,
                          johnson.transporter.cache_info().misses)
        argv = ["verify", *_instance_flags(SCRAMBLED), "--timing", "--out", str(tmp_path)]
        assert run(argv) == 0
        assert passes[12, 4, True] == 1
        assert records[12, 4] == 1 and records[10, 3] == 1
        # Every level's pass, record and TABLES gap ran once, and no other
        # did: one eigh of L per level, in the record that the channel pass
        # and PROJECTORS share.
        levels = {(n, level) for n, k, k_prime in SCRAMBLED for level in (k, k_prime)}
        for misses in (records, table_gaps):
            assert set(misses) == levels and set(misses.values()) == {1}
        assert eighs == Counter(math.comb(n, level) for n, level in levels)
        # Every eigh of L runs in an n's build step, which reads the bases
        # off each family before the families are freed and before the n's
        # first row, so no row is charged for one; --timing writes each n's
        # build step to verify.json instead.
        assert eigh_rows == {None: len(levels)}
        build_ms = json.loads((tmp_path / "verify.json").read_text())["build_ms"]
        assert [n for n, _ in build_ms] == sorted({n for n, _, _ in SCRAMBLED})
        # Each projector family and each Phi_j is built once.
        assert johnson.irrep_projectors.cache_info().misses - families == len(levels)
        assert johnson.transporter.cache_info().misses - phis == sum(
            k + 1 for _, k, _ in SCRAMBLED
        )
        # Gamma is assembled twice per (instance, t), not once per check:
        # for the five cutoff checks but DELTA_GEN, and, after the memos are
        # emptied, for DELTA_GEN's, from the cached Phi_j.
        assert set(gammas.values()) == {2} and set(gammas) == {
            (ProblemInstance(*triple), t) for triple in SCRAMBLED for t in cli.DEFAULT_T_VALUES
        }
        assert set(passes) == {(n, k, False) for n, k, _ in SCRAMBLED} | {
            (n, k_prime, True) for n, _, k_prime in SCRAMBLED
        }
        assert set(passes.values()) == {1}
        # The schedule-free rows that missed no memo: all four at t = 2 and 3,
        # and at t = 1 PHI_COMMUTE, which reads V_DECOMP's channel norms, and
        # PROJECTORS, whose gaps the build step read.
        memoised = json.loads((tmp_path / "verify.json").read_text())["memoised"]
        served = [("PHI_COMMUTE", 1.0), ("PROJECTORS", 1.0)] + [
            (check, t)
            for check in ("V_DECOMP", "PHI_COMMUTE", "TABLES", "PROJECTORS")
            for t in (2.0, 3.0)
        ]
        assert len(memoised) == 80 and sorted(memoised) == sorted(
            [check, *triple, t, 0] for triple in SCRAMBLED for check, t in served
        )

    def test_a_row_whose_levels_are_both_done_is_memoised(self, tmp_path):
        # (12,3,4) shares the (12,3) level with (12,2,3) and the (12,4) level
        # with (12,2,4), so its TABLES row misses no memo, even at the first
        # cutoff.  The build step reads every level's PROJECTORS gap before
        # the first row, so no PROJECTORS row misses one.
        triples = ((12, 2, 3), (12, 2, 4), (12, 3, 4))
        argv = ["verify", *_instance_flags(triples), "--checks", "TABLES", "PROJECTORS",
                "--t", "1", "--timing", "--out", str(tmp_path)]
        assert run(argv) == 0
        memoised = json.loads((tmp_path / "verify.json").read_text())["memoised"]
        assert sorted(memoised) == sorted(
            [["PROJECTORS", *triple, 1.0, 0] for triple in triples] + [["TABLES", 12, 3, 4, 1.0, 0]]
        )

    @pytest.mark.parametrize(
        "checks", [None, ("V_DECOMP", "DELTA_GEN")], ids=["default", "no-PROJECTORS"]
    )
    def test_memos_end_with_their_level(self, tmp_path, monkeypatch, checks):
        # (12,2,4) and (12,3,4) share the k' = 4 pass; (13,1,2) moves to a
        # larger n.  Each n builds its families, reads every level's record
        # off them and frees them before its first row; then it runs its
        # rows but DELTA_GEN, and, with every memo emptied, its DELTA_GEN
        # rows.  So every level's record is held from the n's first row, no
        # level memo lies under a DELTA_GEN row, and no family under any
        # row.  With no PROJECTORS the build step still builds the records
        # that V_DECOMP reads.
        held = []
        verify = bruteforce.verify

        def sizes(*memos):
            return sum(memo.cache_info().currsize for memo in memos)

        def recording(check_id, inst, t, ell):
            level = (bruteforce._hatted_level_channels, bruteforce._level)
            before = sizes(*level), sizes(bruteforce._level)
            families = sizes(johnson.irrep_projectors)
            report = verify(check_id, inst, t, ell)
            after = sizes(*level), sizes(bruteforce._level)
            held.append((check_id, inst.n, before, after, families + sizes(johnson.irrep_projectors)))
            return report

        monkeypatch.setattr(bruteforce, "verify", recording)
        triples = ((12, 2, 4), (12, 3, 4), (13, 1, 2))
        argv = ["verify", *_instance_flags(triples), "--t", "1", "--t", "2"]
        argv += ["--checks", *checks] if checks else []
        assert run(argv + ["--out", str(tmp_path)]) == 0
        assert len(held) == 3 * 2 * len(checks or bruteforce.CHECK_IDS)
        levels = {12: 3, 13: 2}
        for n in levels:
            order = [check_id == "DELTA_GEN" for check_id, at, *_ in held if at == n]
            assert order == sorted(order), n
        for check_id, n, before, after, families in held:
            assert families == 0, check_id
            if check_id == "DELTA_GEN":
                assert before[0] == after[0] == 0, check_id
            else:
                assert before[1] == after[1] == levels[n], check_id
        # After the sweep every bruteforce memo is empty.
        assert not [
            name for name, value in vars(bruteforce).items()
            if hasattr(value, "cache_info") and value.cache_info().currsize
        ]
        # Of the Johnson objects only the n = 13 Phi_0 and Phi_1 are left: the
        # (13,1) and (13,2) families were freed before the first n = 13 row.
        assert johnson.irrep_projectors.cache_info().currsize == 0
        assert johnson.transporter.cache_info().currsize == 2

    def test_delta_gen_runs_with_the_families_freed(self, tmp_path, monkeypatch):
        # Every default check and cutoff at the default n = 12 instances.
        # Each DELTA_GEN row finds no projector family cached and builds no
        # Phi_j: it sums Gamma from the seven that the earlier phases left.
        johnson.clear_caches()
        families, phis = johnson.irrep_projectors, johnson.transporter
        built = families.cache_info().misses
        verify = bruteforce.verify
        seen = []

        def recording(check_id, inst, t, ell):
            held, before = families.cache_info().currsize, phis.cache_info()
            report = verify(check_id, inst, t, ell)
            if check_id == "DELTA_GEN":
                after = phis.cache_info()
                seen.append((held, before.currsize, after.misses - before.misses))
            return report

        monkeypatch.setattr(bruteforce, "verify", recording)
        argv = ["verify", "--instance", "12,2,4", "--instance", "12,3,4", "--out", str(tmp_path)]
        assert run(argv) == 0
        assert seen == [(0, 3 + 4, 0)] * 2 * len(cli.DEFAULT_T_VALUES)
        # The (12,2), (12,3) and (12,4) families, each built once.
        assert families.cache_info().misses - built == 3

    @pytest.mark.parametrize("check", [None, *bruteforce.CHECK_IDS], ids=lambda c: c or "default")
    def test_no_row_runs_with_a_family_cached(self, tmp_path, monkeypatch, check):
        # Every default instance and cutoff, with every check or one alone.
        # Each n's build step reads its families and frees them before the
        # n's first row, so every row starts and ends with no family cached
        # and builds none: each of the 14 default families is built once,
        # and each level's record once if a check reads one.  TABLES alone
        # reads neither a Phi_j nor a record, so it builds no family.
        johnson.clear_caches()
        families = johnson.irrep_projectors
        built = families.cache_info().misses
        records = _count_memo_misses(monkeypatch, "_level")
        verify = bruteforce.verify
        held = set()

        def recording(check_id, inst, t, ell):
            held.add(families.cache_info().currsize)
            report = verify(check_id, inst, t, ell)
            held.add(families.cache_info().currsize)
            return report

        monkeypatch.setattr(bruteforce, "verify", recording)
        argv = ["verify", "--out", str(tmp_path)]
        assert run(argv + (["--checks", check] if check else [])) == 0
        assert held == {0}
        assert families.cache_info().misses - built == (0 if check == "TABLES" else 14)
        no_record = {"TABLES", "NORM_GAMMA", "DELTA_MEMB", "PSI_POWER", "DELTA_GEN"}
        assert len(records) == (0 if check in no_record else 14)
        assert set(records.values()) <= {1}


def _count_memo_misses(monkeypatch, name) -> Counter:
    """Swap a per-level memo of bruteforce for an empty one of the same size
    whose misses are counted by (n, level)."""
    memo = getattr(bruteforce, name)
    misses = Counter()

    def counting(n, level):
        misses[n, level] += 1
        return memo.__wrapped__(n, level)

    size = memo.cache_info().maxsize
    monkeypatch.setattr(bruteforce, name, functools.lru_cache(maxsize=size)(counting))
    return misses


def set_of_checks():
    from countbench import bruteforce

    return set(bruteforce.CHECK_IDS)


# Every numpy.linalg routine that calls LAPACK.
LAPACK_ROUTINES = (
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals", "tensorinv",
    "tensorsolve",
)


class TestBoundsCommand:
    def test_reference_point(self, capsys):
        code = run(["bounds", "--n", "1e6", "--k", "1e4", "--eps", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        tradeoff = payload["tradeoff"]
        assert tradeoff["membership_bound"] == 100.0
        assert tradeoff["copies_bound"] == 1000.0
        assert payload["dual_feasibility"]["feasible"] is True

    @pytest.fixture
    def no_lapack(self, monkeypatch):
        # Each LAPACK-backed numpy.linalg routine raises.
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK routine called")

        for name in LAPACK_ROUTINES:
            monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize(
        "flags",
        [
            "--n 2000 --k 100 --eps 0.05",  # t = 4 < k
            "--n 1000 --k 10 --eps 1 --ell 8",  # t = 16 > k: the row past k is live
            "--n 250000 --k 25000 --eps 0.0004 --ell-prime 2",
        ],
    )
    def test_bounds_calls_no_lapack(self, no_lapack, capsys, flags):
        assert run(["bounds", *flags.split()]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "note" not in payload and payload["dual_feasibility"]["reflection_norm"] > 0

    def test_reflection_at_k_prime_equal_k_calls_no_lapack(self, no_lapack):
        # k' = k has no CLI form (eps > 0), so the norm is called directly.
        inst = ProblemInstance(8, 3, 3)
        assert adversary.norm_delta_reflection(inst, 2.5) > 0

    def test_out_of_regime_is_flagged_not_rejected(self, capsys):
        code = run(["bounds", "--n", "30", "--k", "10", "--eps", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tradeoff"]["regime_n"] is False

    def test_zero_eps_is_usage_error(self):
        assert run(["bounds", "--n", "100", "--k", "10", "--eps", "0"]) == 2

    @pytest.mark.parametrize(
        "n, k, eps",
        [("nan", "10", "1"), ("1e400", "10", "1"), ("100", "10", "inf")],
    )
    def test_non_finite_input_is_usage_error(self, capsys, n, k, eps):
        assert run(["bounds", "--n", n, "--k", k, "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--n", "100.5", "--k", "10"], "n"),
            (["--n", "100", "--k", "10.5"], "k"),
            (["--n", "100", "--k", "10", "--ell", "1.7"], "ell"),
        ],
    )
    def test_non_whole_input_skips_dual_feasibility(self, capsys, flags, name):
        assert run(["bounds", *flags, "--eps", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dual_feasibility"] is None
        assert payload["note"].startswith(f"dual feasibility unavailable: {name} = ")
        assert payload["tradeoff"][name] == float(flags[flags.index(f"--{name}") + 1])

    @pytest.mark.parametrize(
        "n, k, eps, k_prime",
        [
            ("1e13", "1e12", "0.5", 1_500_000_000_000),
            ("1e9", "1e8", "0.1", 110_000_000),
            ("1e8", "1e7", "1e-6", 10_000_010),
        ],
    )
    def test_large_k_reports_dual_feasibility(self, capsys, n, k, eps, k_prime):
        # Only the rows j <= floor(t) + 1 are built, however large k is; and
        # (1 + 0.1) * 1e8 = 110000000.00000001 names a whole k'.  At the
        # regime edge eps = 1/k, k = 1e7 builds t = 2e5 rows, under MAX_ROWS.
        assert run(["bounds", "--n", n, "--k", k, "--eps", eps]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "note" not in payload
        assert payload["dual_feasibility"]["k_prime"] == k_prime

    @pytest.mark.parametrize(
        "flags, rows",
        [
            ("--n 1e10 --k 1e9 --eps 1e-9", 200_000_002),  # t = 1/(5 eps) = 2e8
            ("--n 1e9 --k 1e8 --eps 0.5 --ell 1e9", 100_000_001),  # t = 2 ell > k
        ],
    )
    def test_a_schedule_past_the_row_cap_is_refused_before_it_is_allocated(
        self, capsys, flags, rows
    ):
        # A whole schedule of weights alone would be 8 bytes per row (1.5 GiB
        # and 763 MiB); the whole command stays under 1 MB.
        tracemalloc.start()
        try:
            code = run(["bounds", *flags.split()])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dual_feasibility"] is None
        assert payload["note"] == (
            f"dual feasibility unavailable: {rows} rows exceed cap "
            f"MAX_ROWS = {adversary.MAX_ROWS}"
        )
        assert peak <= 1e6

    def test_a_level_past_float64_is_named_in_the_note(self, capsys):
        # (n+2)^2 k = 2e311: the coefficient products would overflow.
        assert run(["bounds", "--n", "1e104", "--k", "2e103", "--eps", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dual_feasibility"] is None
        assert payload["note"] == (
            "dual feasibility unavailable: (n+2)^2 * size overflows float64 "
            "at n=1e+104, size=2e+103"
        )

    def test_a_level_inside_float64_keeps_its_output(self, capsys):
        # sha256 of the stdout, recorded when the reflection norm came to be
        # formed from each block's 2x2 Gram; (n+2)^2 k' = 1.5e305 stays finite.
        assert run(["bounds", "--n", "1e102", "--k", "1e101", "--eps", "0.5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0202ae2de366db6586d7e942db694b509775d0cf0f8c685235ea877f23730c90"
        )

    @pytest.mark.parametrize(
        "eps, reason",
        [
            ("1e-12", "k' = (1+eps)k = 10 is not above k = 10"),
            ("1e308", "k' = (1+eps)k overflows, with k = 10, eps = 1e+308"),
        ],
        ids=["k-prime-equals-k", "overflow"],
    )
    def test_bounds_and_simulate_share_the_k_prime_rule(self, tmp_path, capsys, eps, reason):
        # bounds reported dual feasibility at k' = k here, or noted that it
        # "cannot convert float infinity to integer", where simulate refused.
        assert run(["bounds", "--n", "100", "--k", "10", "--eps", eps]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dual_feasibility"] is None
        assert payload["note"] == f"dual feasibility unavailable: {reason}"
        out = tmp_path / "s"
        argv = ["simulate", "coupon", "--k", "10", "--eps", eps, "--trials", "3", "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: --eps {float(eps)!r} with --k 10: {reason}\n"

    @pytest.mark.parametrize("flag", ["--ell", "--ell-prime"])
    def test_an_infinite_cutoff_gets_a_note(self, capsys, flag):
        # Either copy count at 1e308 takes t_choice to inf; bounds printed a
        # full report there, with "t": null and every gamma_j = 1.
        assert run(["bounds", "--n", "100", "--k", "10", "--eps", "1", flag, "1e308"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tradeoff"]["t_choice"] is None
        assert payload["dual_feasibility"] is None
        assert payload["note"] == (
            "dual feasibility unavailable: cutoff parameter must be finite and >= 1, got inf"
        )

    def test_copies_enter_the_branches(self, capsys):
        code = run(
            ["bounds", "--n", "320", "--k", "64", "--eps", "1", "--ell", "2",
             "--ell-prime", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tradeoff"]["t_choice"] == 24.0

    @pytest.mark.parametrize(
        "flags, path",
        [
            ("--n 1e6 --k 1e4 --eps 0.1", "state_generation_terms.sqrt_k_over_ell_over_eps"),
            ("--n 1e6 --k 1e4 --eps 0.1", "reflection_terms.sqrt_k_over_copies_over_eps"),
            ("--n 100 --k 10 --eps 1e-170", "copies_terms.n_over_k_eps2"),
        ],
        ids=["no-copies-state", "no-copies-reflection", "k-eps2-underflows"],
    )
    def test_an_infinite_term_prints_null(self, capsys, flags, path):
        # theorem_tradeoff reads these terms as math.inf (test_adversary).
        assert run(["bounds", *flags.split()]) == 0
        value = json.loads(capsys.readouterr().out)["tradeoff"]
        for key in path.split("."):
            value = value[key]
        assert value is None

    @pytest.mark.parametrize(
        "n, k, eps",
        [
            ("1e300", "1e-300", "0.5"),  # sqrt(n/k) overflows
            ("100", "10", "1e-170"),  # k eps^2 underflows to 0
            ("100", "5e-324", "0.5"),  # k eps^2 underflows to 0
            ("100", "10", "5e-324"),  # and 1/(5 eps) overflows
            ("1e-300", "1e300", "0.5"),  # sqrt(n/k) underflows to 0
        ],
    )
    def test_stdout_is_strict_json_at_extreme_points(self, capsys, n, k, eps):
        def reject(constant):
            raise ValueError(f"non-finite number {constant} in the output")

        assert run(["bounds", "--n", n, "--k", k, "--eps", eps]) == 0
        json.loads(capsys.readouterr().out, parse_constant=reject)


# sha256 of the concatenated `bounds` stdout over these points, recorded
# when the reflection norm came to be formed from each block's 2x2 Gram
# (no printed number moved by more than 5e-16 relative).  The points cover
# bench-style (n, k, eps) with ell and ell' in 0..3, out-of-regime points,
# every non-whole note path and k = 1e8 and 1e12.
PINNED_BOUNDS_POINTS = (
    "--n 2000 --k 100 --eps 0.05",
    "--n 15000 --k 1000 --eps 0.01 --ell 1 --ell-prime 1",
    "--n 6000 --k 300 --eps 0.1 --ell 2",
    "--n 50000 --k 2000 --eps 0.5 --ell 3 --ell-prime 2",
    "--n 1200 --k 150 --eps 1.0 --ell-prime 3",
    "--n 40000 --k 5000 --eps 0.002 --ell 1",
    "--n 900 --k 100 --eps 0.25 --ell 2 --ell-prime 1",
    "--n 3000 --k 200 --eps 0.035 --ell 3 --ell-prime 3",
    "--n 250000 --k 25000 --eps 0.0004 --ell-prime 2",
    "--n 320 --k 64 --eps 1 --ell 2 --ell-prime 3",
    "--n 30 --k 10 --eps 0.5",
    "--n 1000 --k 10 --eps 2.0 --ell 1",
    "--n 100.5 --k 10 --eps 1",
    "--n 100 --k 10.5 --eps 1",
    "--n 100 --k 10 --eps 1 --ell 1.7",
    "--n 1000 --k 100 --eps 0.123",
    "--n 1e9 --k 1e8 --eps 0.1",
    "--n 1e13 --k 1e12 --eps 0.5",
)
PINNED_BOUNDS_SHA256 = "48a86d7d5d880e2f8d91d2f557350ecf3fbbe09f37c184fff9136e2742a2e291"


def test_bounds_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for point in PINNED_BOUNDS_POINTS:
        assert run(["bounds", *point.split()]) == 0, point
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_BOUNDS_SHA256


# sha256 of the concatenated `bounds` stdout over points whose schedules end
# at or past a CHUNK_ROWS block edge, recorded before one closed-row kernel
# served both `bounds` and `verify`, with each point's schedule rows: 1023,
# 1024, 1025 and 2049 rows, a Gram-power range of 1025 rows at t > k, and
# t > k at k = 1024.
PINNED_BLOCK_EDGE_POINTS = {
    "--n 100000000 --k 10000000 --eps 0.0001957": 1023,
    "--n 10000 --k 2000 --eps 0.5 --ell 511": 1024,
    "--n 100000000 --k 10000000 --eps 0.0001955": 1025,
    "--n 100000000 --k 10000000 --eps 0.0000977": 2049,
    "--n 10000 --k 2000 --eps 0.5 --ell 1024": 2001,
    "--n 10000 --k 1024 --eps 0.5 --ell 600": 1025,
}
PINNED_BLOCK_EDGE_SHA256 = "759080dcfba8891e231337874c3533c79bba8a8366d5db831df4c39e7b8fac61"


def test_bounds_stdout_at_block_edges_is_pinned(capsys):
    digest = hashlib.sha256()
    for point, rows in PINNED_BLOCK_EDGE_POINTS.items():
        assert run(["bounds", *point.split()]) == 0, point
        out = capsys.readouterr().out
        report = json.loads(out)["dual_feasibility"]
        assert adversary.live_rows(report["t"], report["k"]) == rows, point
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED_BLOCK_EDGE_SHA256


# sha256 of simulate_<proc>.csv and .json for 60 trials, recorded before the
# seven procedures shared one trial driver.  The cases cover every procedure,
# --repetitions 3, a pinned --true-size, each --oracle variant and a
# bootstrap with --retries 0 whose growth stage often fails.
PINNED_SIMULATE = {
    "coupon --k 16 --eps 1 --seed 11": (
        "1734efbff21e6f0b10834dd58afe5e2bd78465ded82cc796e0f4b52ffa55c06d",
        "ea7ba5eb2cc96960545598ece34a5a4ef5afb4562e615698bb7c65a6bac9dd17",
    ),
    "coupon --k 16 --eps 1 --budget 40 --repetitions 3 --seed 12": (
        "21d4021601acb468d1d98f028bc24f113e1afba8d88283eb932920f038518509",
        "9597cff39867785a180afadd35a6efe14d94c271f43948d1286bf83208c0cf7b",
    ),
    "collision --k 64 --eps 0.5 --seed 13": (
        "7db442d47a3c767d26bcf781a32f7ec61447e19ed65d58994252c0c844d4b9eb",
        "2166b22a28d727db75a68f83d00eb2b989872a3aede0c05b4f0e3de8efe0ecc7",
    ),
    "collision --k 64 --eps 0.5 --samples 90 --true-size 96 --seed 14": (
        "618d24bcf11e0f88dc2b9698a43a2c3627f5a11bd92568787eabf46cc08e117b",
        "ecf0ef231d2af584b527e51b98bcb3a11819ed395a6ff340b9791ab71e885ad6",
    ),
    "overlap --n 4096 --k 64 --eps 0.5 --seed 15": (
        "be5f76b9a36b8446d2b18f0ceccfa23d394850c47bf3b7ea5076b2b263162d61",
        "eda8c08a5a9ebc9e4568507d2f37ee3795945f6800b059e2cb7174bf02587df4",
    ),
    "overlap --n 4096 --k 64 --eps 0.5 --copies 500 --repetitions 3 --seed 16": (
        "e83e9d9092a926c38ee566681031ce66fde3ac2bc7baf78425e31b390a6bde67",
        "6b8d62acfbb087b206a637f1a4e325c0ef794805f484ee7fd59bdda3ac127d74",
    ),
    "qcount --n 1024 --k 16 --eps 1 --seed 17": (
        "77fa5007df8462a40c9073100b49d748a3742233ead96ece60992c049d117111",
        "5c68fc7352e78c5bec6c10cf914485afe513296edd1b67acdaf2e56815cc3292",
    ),
    "qcount --n 1024 --k 16 --eps 1 --oracle reflections --true-size 32 --seed 18": (
        "24ad549528f14b60fc84ea7d1101d607743083636113306efe50df72010fa502",
        "9f6a89ee44413d9626d55cb0b0b1cbcc0d04c0ee253e1bb8a57a40f8af97814c",
    ),
    "qcount --n 1024 --k 16 --eps 0.25 --oracle membership --repetitions 3 --seed 19": (
        "bd7e1365d6a1eb61c791b95b2b246fdcc8b584d2a18c251db0acfacb1f686473",
        "19d5b47e1a9365e4da9f54b284c5166d091f69f5ab609996fadb42cf708b3eda",
    ),
    "subset --n 4096 --k 64 --eps 0.5 --ell 16 --seed 20": (
        "524fbb9e52aca3754297ba687ef54d1139905152a5afce202dd179fe784467f1",
        "310c5764b22f08178fc81909c2fce18d5050d35a48408e96ad164ec662f25082",
    ),
    "subset --n 4096 --k 64 --eps 0.5 --ell 16 --oracle reflections --true-size 64 --seed 21": (
        "ad6ca4cfdca221bf2abafd3047d2efdfb5c86b80888172c4f3fc63ca254c7382",
        "7e24905566e0c2f9cd2b302f2119b63b5be468cbc4085d84a2ea8153ea278818",
    ),
    "subset --n 4096 --k 64 --eps 0.5 --ell 32 --oracle state_generation --repetitions 3 --seed 22": (
        "f979132a8f9de0e697125061368d3ecdd91e49895aec6e656384c7f52283fc14",
        "e567cc58c5089504c11a41faf73d00bccb40ffecd9b795fc1297dcfe4c2a9844",
    ),
    "sample-count --n 4096 --k 64 --eps 0.25 --seed 23": (
        "8bd2c6771b8a9347e89169f369fff68d3d060a83dd60e07de5239a46855db054",
        "793436bd7e5d149d50e0d8f26af0e1d4aa037605526778022639b0a2836fd1e5",
    ),
    "sample-count --n 4096 --k 64 --eps 0.25 --true-size 80 --repetitions 3 --seed 24": (
        "4420931873e242a3b9ce14899a587f3a36f2813b610d6e126f44c7e9a5f1593d",
        "a784d25e8330ad9ed9b81742bdd6d6cf11223a5481642e2b990ea3a863170feb",
    ),
    "bootstrap --n 4096 --k 64 --eps 0.125 --seed 25": (
        "26d8d615ef91fdb4cba85ba2e85e4974d9c782bbe34f2e468a7dc52dd36f41ba",
        "a9a5decc97ecebb4a3d84b042d2f06b0fab592fef6fc52d2f9dfff86b5123be7",
    ),
    "bootstrap --n 4096 --k 64 --eps 0.0625 --retries 0 --seed 26": (
        "180b4be25b0d73def939aab9e145f3bb3f6c54ffaafb0dd663d2aec3045e202d",
        "bdbbee24f83cd103513057e9aa5cca3edf28381033a25ebe080bf6bffea2a9be",
    ),
    "bootstrap --n 4096 --k 64 --eps 0.0625 --retries 0 --repetitions 3 --seed 27": (
        "106787c106ff5552fcb1bf412178ad4203b708ae55cfc9027c7e7dde130e9704",
        "6de1dd061e8a645c0dc40f14f08713724e480a38032d1dc7b32f14188fc55513",
    ),
}
# sample-count with every third sampling stage cut one element short,
# keyed by --repetitions.
PINNED_FAILING_SAMPLE_COUNT = {
    "1": (
        "175ca4c94ce8e9afb94141f373626d1917d5603ad4aac844e404482b681478f0",
        "3a7fd569c0a91415edb68d30c7bfb994f9426acd091559b3e8f0b511edcb25b0",
    ),
    "3": (
        "f4eaa61677b1f4b241e0215b215e6e44aa6fae125ceedf46414a0128f00c9101",
        "aa39b3a2fec2dfaa5ccd3128e918cdb5312dcdf461225be95f289ea2114c1477",
    ),
}


class TestSimulateCommand:
    def test_qcount_aggregate(self, tmp_path):
        out = tmp_path / "sim"
        code = run(
            ["simulate", "qcount", "--n", "1024", "--k", "16", "--eps", "1",
             "--trials", "400", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "simulate_qcount.json").read_text())
        assert payload["success_rate"] >= 0.66
        assert payload["trials"] == 400
        csv_lines = (out / "simulate_qcount.csv").read_text().splitlines()
        assert csv_lines[0] == cli.SIMULATE_CSV_HEADER
        assert len(csv_lines) == 401

    def test_zero_trials_is_usage_error(self, tmp_path):
        code = run(
            ["simulate", "coupon", "--k", "8", "--eps", "1", "--trials", "0",
             "--out", str(tmp_path / "s")]
        )
        assert code == 2

    def test_too_many_trials_is_usage_error(self, tmp_path, capsys):
        # One trial past the cap is rejected by name before any trial runs.
        out = tmp_path / "s"
        trials = simulate.MAX_TRIALS + 1
        code = run(
            ["simulate", "overlap", "--n", "1000", "--k", "10", "--eps", "1",
             "--trials", str(trials), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        message = capsys.readouterr().err
        assert str(trials) in message and str(simulate.MAX_TRIALS) in message

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["qcount", "--n", "1024", "--k", "16", "--eps", "1", "--repetitions", "1000000000"],
             "1 trials x 1000000000 repetitions exceed cap MAX_TRIALS"),
            (["coupon", "--k", "16", "--eps", "1", "--repetitions", "1000000000"],
             "1 trials x 1000000000 repetitions exceed cap MAX_TRIALS"),
            (["overlap", "--n", "1024", "--k", "16", "--eps", "1",
              "--copies", "100000000000000000000"],
             "copy count 100000000000000000000 exceeds the int64 limit"),
            # Each run's 2^62 copies fit; the trial's 2^63 do not fit the cost column.
            (["overlap", "--n", "1024", "--k", "16", "--eps", "1",
              "--copies", "4611686018427387904", "--repetitions", "2"],
             "summed cost 9223372036854775808 exceeds the cost column's int64 limit 2^63 - 1"),
        ],
        ids=["qcount-runs", "coupon-runs", "overlap-copies", "overlap-cost"],
    )
    def test_oversized_batch_is_usage_error(self, tmp_path, capsys, argv, named):
        # Each ended in a traceback with exit 1, or ran until it was killed.
        out = tmp_path / "s"
        code = run(["simulate", *argv, "--trials", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_ground_set_is_named_before_the_copy_count(self, tmp_path, capsys, n):
        # The default copy count 64n/(k eps^2) is not positive here; the
        # ground set is what is wrong, and it is checked first.
        out = tmp_path / "s"
        code = run(
            ["simulate", "overlap", "--n", n, "--k", "4", "--eps", "1",
             "--trials", "3", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        message = capsys.readouterr().err
        assert "ground set size n = " + n in message and "copy" not in message

    def test_unknown_procedure_is_usage_error(self, tmp_path):
        code = run(["simulate", "warp", "--trials", "10", "--out", str(tmp_path / "s")])
        assert code == 2

    def test_missing_parameter_is_usage_error(self, tmp_path):
        code = run(
            ["simulate", "qcount", "--k", "16", "--eps", "1", "--trials", "10",
             "--out", str(tmp_path / "s")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["coupon", "--k", "8", "--eps", "1", "--oracle", "membership",
              "--retries", "9", "--ell", "2", "--n", "100"],
             ["--ell", "--n", "--oracle", "--retries"]),
            (["bootstrap", "--n", "4096", "--k", "64", "--eps", "0.125",
              "--oracle", "membership", "--budget", "5"],
             ["--budget", "--oracle"]),
            (["overlap", "--n", "4096", "--k", "64", "--eps", "0.5", "--samples", "9"],
             ["--samples"]),
        ],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, unread):
        out = tmp_path / "s"
        code = run(["simulate", *argv, "--trials", "3", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        message = capsys.readouterr().err
        for flag in unread:
            assert flag in message

    @pytest.mark.parametrize(
        "proc, eps",
        [("collision", "0"), ("coupon", "inf"), ("coupon", "0"), ("coupon", "-0.5"),
         ("overlap", "nan"),
         # (1+eps)k rounds to k, or overflows: no k' above k.
         ("overlap", "1e-200"), ("collision", "1e-200"), ("coupon", "1e-10"),
         ("coupon", "1e308")],
    )
    def test_bad_eps_is_usage_error(self, tmp_path, capsys, proc, eps):
        out = tmp_path / "s"
        argv = ["simulate", proc, "--k", "4", "--eps", eps, "--trials", "3", "--out", str(out)]
        if proc == "overlap":
            argv += ["--n", "64"]
        assert run(argv) == 2
        assert not out.exists()
        assert "--eps" in capsys.readouterr().err

    def test_oversized_phase_grid_is_usage_error(self, tmp_path, capsys):
        # k/n = 1e-18 needs a grid of ~1.5e10 points, 113 GiB of outcome
        # distribution: rejected by name before any of it is allocated.
        out = tmp_path / "s"
        code = run(
            ["simulate", "qcount", "--n", "1000000000000000000", "--k", "1", "--eps", "1",
             "--trials", "1", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        message = capsys.readouterr().err
        assert "15168951184 points" in message
        assert str(simulate.MAX_GRID_POINTS) in message

    @pytest.mark.parametrize(
        "argv, named",
        [
            # The default budget 5k asks for 37.3 GiB of draws.
            (["coupon", "--k", "1000000000", "--eps", "1"], "sample budget = 5000000000"),
            (["collision", "--k", "1000", "--eps", "1", "--samples", "2000000000"],
             "sample count = 2000000000"),
            # Each run counts the draws of every element in one array of k' entries.
            (["coupon", "--k", "10000000", "--eps", "1", "--budget", "10"],
             "k' = 20000000"),
            (["collision", "--k", "10000000", "--eps", "1"], "k' = 20000000"),
            (["sample-count", "--n", str(2**37), "--k", str(2**36), "--eps", str(2**-15)],
             "10 ell = 20971520"),
            (["bootstrap", "--n", str(2**27), "--k", str(2**26), "--eps", str(2**-25)],
             "ceil(1/eps) = 33554432"),
        ],
        ids=["coupon-budget", "collision-samples", "coupon-k-prime", "collision-k-prime",
             "sample-count-budget", "bootstrap-target"],
    )
    def test_oversized_draws_are_usage_errors(self, tmp_path, capsys, argv, named):
        # Rejected by name at set-up, before any draw array or --out exists.
        out = tmp_path / "s"
        code = run(["simulate", *argv, "--trials", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        message = capsys.readouterr().err
        assert named in message and f"MAX_DRAWS = {simulate.MAX_DRAWS}" in message

    def test_every_procedure_runs_with_the_flags_it_reads(self, tmp_path):
        values = {"n": "4096", "budget": "300", "samples": "90", "copies": "500",
                  "ell": "16", "oracle": "reflections", "retries": "2"}
        assert list(cli.SIMULATE_FLAGS) == list(simulate.PROCEDURES)
        for proc, flags in cli.SIMULATE_FLAGS.items():
            argv = ["simulate", proc, "--k", "64", "--eps", "0.5", "--trials", "3",
                    "--out", str(tmp_path)]
            for flag in flags:
                argv += [f"--{flag}", values[flag]]
            assert run(argv) == 0, proc

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "coupon", "--k", "32", "--eps", "1", "--trials", "200",
                "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "simulate_coupon.csv").read_bytes() == (b / "simulate_coupon.csv").read_bytes()
        assert (a / "simulate_coupon.json").read_bytes() == (b / "simulate_coupon.json").read_bytes()

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WORKBENCH_SEED", "21")
        out = tmp_path / "env"
        code = run(
            ["simulate", "collision", "--k", "16", "--eps", "1", "--trials", "50",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "simulate_collision.json").read_text())
        assert payload["seed"] == 0

    def test_coupon_default_budget(self, tmp_path):
        out = tmp_path / "c"
        code = run(
            ["simulate", "coupon", "--k", "32", "--eps", "1", "--trials", "50",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "simulate_coupon.json").read_text())
        assert payload["params"]["sample_budget"] == 160
        assert payload["mean_copies"] == 160.0


def _simulate_digests(out_dir, procedure):
    tag = procedure.replace("-", "_")
    return tuple(
        hashlib.sha256((out_dir / f"simulate_{tag}.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "json")
    )


class TestPinnedSimulateOutputs:
    """Seeded simulate outputs stay byte-identical across commits, not just runs."""

    @pytest.mark.parametrize("flags", list(PINNED_SIMULATE))
    def test_digests(self, tmp_path, flags):
        argv = ["simulate", *flags.split(), "--trials", "60", "--out", str(tmp_path)]
        assert run(argv) == 0
        assert _simulate_digests(tmp_path, argv[1]) == PINNED_SIMULATE[flags]

    @pytest.mark.parametrize("repetitions", list(PINNED_FAILING_SAMPLE_COUNT))
    def test_failing_sample_count_digests(self, tmp_path, monkeypatch, repetitions):
        real_collect = simulate._collect_distinct
        calls = itertools.count()

        def every_third_fails(target, size, budget, rng):
            found, consumed = real_collect(target, size, budget, rng)
            return (found - 1 if next(calls) % 3 == 0 else found), consumed

        monkeypatch.setattr(simulate, "_collect_distinct", every_third_fails)
        argv = ["simulate", "sample-count", "--n", "4096", "--k", "64", "--eps", "0.25",
                "--repetitions", repetitions, "--trials", "60", "--seed", "28",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        assert (
            _simulate_digests(tmp_path, "sample-count")
            == PINNED_FAILING_SAMPLE_COUNT[repetitions]
        )


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        from countbench import __version__

        assert capsys.readouterr().out.strip() == __version__


# Every option each subcommand accepts.  A new flag is a deliberate edit here.
SIMULATE_SHARED = {"--out", "--trials", "--seed", "--k", "--eps", "--true-size", "--repetitions"}
EXPECTED_OPTIONS = {
    "verify": {"--out", "--instance", "--t", "--checks", "--timing"},
    "bounds": {"--out", "--n", "--k", "--eps", "--ell", "--ell-prime"},
    "simulate": set(),
    "simulate coupon": SIMULATE_SHARED | {"--budget"},
    "simulate collision": SIMULATE_SHARED | {"--samples"},
    "simulate overlap": SIMULATE_SHARED | {"--n", "--copies"},
    "simulate qcount": SIMULATE_SHARED | {"--n", "--oracle"},
    "simulate subset": SIMULATE_SHARED | {"--n", "--ell", "--oracle"},
    "simulate sample-count": SIMULATE_SHARED | {"--n"},
    "simulate bootstrap": SIMULATE_SHARED | {"--n", "--retries"},
}
SIMULATE_OPTIONS = {
    name.split()[1]: options
    for name, options in EXPECTED_OPTIONS.items()
    if name.startswith("simulate ")
}
# A valid value of each option some procedure reads and another does not.
SIMULATE_VALUES = {"--n": "4096", "--ell": "16", "--budget": "300", "--samples": "90",
                   "--copies": "500", "--oracle": "reflections", "--retries": "2"}
# Each procedure with each simulate option that it does not read.
UNREAD_PAIRS = [
    (proc, flag)
    for proc, options in SIMULATE_OPTIONS.items()
    for flag in sorted(set().union(*SIMULATE_OPTIONS.values()) - options)
]


def _options_by_subcommand(parser, prefix=""):
    """{"simulate coupon": its options, ...} for every subcommand under ``parser``."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = f"{prefix} {name}".strip()
                found[path] = {
                    opt
                    for sub_action in sub._actions
                    for opt in sub_action.option_strings
                    if opt not in ("-h", "--help")
                }
                found.update(_options_by_subcommand(sub, path))
    return found


def _readme_commands():
    """The argument lists of the countbench lines in README's Command line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("countbench ")]


class TestKnobInventory:
    def test_each_subcommand_has_exactly_the_expected_options(self):
        assert _options_by_subcommand(cli.build_parser()) == EXPECTED_OPTIONS
        # Down from the 7 x 14 pairs that one flat simulate parser accepted.
        assert sum(len(options) for options in SIMULATE_OPTIONS.values()) == 61
        assert len(UNREAD_PAIRS) == 98 - 61

    @pytest.mark.parametrize("proc, flag", UNREAD_PAIRS)
    def test_an_unread_option_is_a_usage_error(self, tmp_path, capsys, proc, flag):
        out = tmp_path / "s"
        argv = ["simulate", proc, "--k", "64", "--eps", "0.5", "--trials", "3"]
        for required in ("--n", "--ell"):
            if required in SIMULATE_OPTIONS[proc]:
                argv += [required, SIMULATE_VALUES[required]]
        value = SIMULATE_VALUES[flag]
        assert run(argv + [flag, value, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_an_option_before_the_procedure_is_a_usage_error(self, tmp_path):
        out = str(tmp_path / "s")
        coupon = ["coupon", "--k", "8", "--eps", "1"]
        for argv in (["--trials", "3", *coupon, "--out", out],
                     ["--out", out, *coupon, "--trials", "3"]):
            assert run(["simulate", *argv]) == 2
        assert not (tmp_path / "s").exists()

    def test_readme_commands_parse(self):
        commands = _readme_commands()
        assert commands
        for argv in commands:
            assert cli.build_parser().parse_args(argv).command == argv[0]

    def test_readme_python_calls_run(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        calls = re.findall(r"`(simulate\.(?:trial|run_batch)\(.*?\))`", section)
        assert len(calls) == 2
        trial, batch = (eval(call, {"simulate": simulate, "seed": 5}) for call in calls)
        assert isinstance(trial, simulate.TrialOutcome) and trial.cost == 160
        assert isinstance(batch, simulate.Batch) and len(batch.large) == 1000

    def test_cached_parser_keeps_no_values_between_calls(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        assert parser.parse_args(["verify", "--t", "2"]).t == [2.0]
        assert parser.parse_args(["verify"]).t is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed", "3"],
            ["verify", "--config", "x"],
            ["verify", "--tol-norm", "1"],
            ["bounds", "--n", "100", "--k", "10", "--eps", "1", "--cprime", "4"],
            ["bounds", "--n", "100", "--k", "10", "--eps", "1", "--seed", "1"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
