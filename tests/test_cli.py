import json
import re
import shutil
import subprocess
import time

import pytest

from countbench import cli


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

    def test_unmeetable_tolerance_fails(self, tmp_path):
        code = run(
            [
                "verify",
                "--instance",
                "6,1,2",
                "--t",
                "2",
                "--tol-norm",
                "1e-30",
                "--tol-exact",
                "1e-30",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 1

    def test_empty_instance_list_is_usage_error(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("instance=\n")
        code = run(["verify", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2

    def test_bad_instance_is_usage_error(self, tmp_path):
        code = run(["verify", "--instance", "6,1", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# two tiny instances\n"
            "instance=6,1,2\n"
            "instance=7,1,2\n"
            "t=1\n"
            "seed=5\n"
        )
        out = tmp_path / "r"
        code = run(
            ["verify", "--config", str(config), "--instance", "6,1,2", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "verify.json").read_text())
        assert summary["instances"] == [[6, 1, 2]]  # flag overrode the config list
        assert summary["seed"] == 5

    def test_jobs_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        base = ["verify", "--instance", "6,1,2", "--instance", "7,1,2", "--t", "1"]
        assert run(base + ["--out", str(serial)]) == 0
        assert run(base + ["--jobs", "4", "--out", str(parallel)]) == 0
        assert (serial / "verify.csv").read_bytes() == (parallel / "verify.csv").read_bytes()

    def test_summary_reports_sweep_wall_time(self, tmp_path, capsys):
        argv = ["verify", "--instance", "8,2,3", "--instance", "9,2,3", "--t", "1"]
        start = time.perf_counter()
        assert run(argv + ["--jobs", "2", "--out", str(tmp_path / "r")]) == 0
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

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["verify", "--instance", "6,1,2", "--t", "1", "--seed", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "verify.csv").read_bytes() == (b / "verify.csv").read_bytes()
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()


def set_of_checks():
    from countbench import bruteforce

    return set(bruteforce.CHECK_IDS)


class TestBoundsCommand:
    def test_reference_point(self, capsys):
        code = run(["bounds", "--n", "1e6", "--k", "1e4", "--eps", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        tradeoff = payload["tradeoff"]
        assert tradeoff["membership_bound"] == 100.0
        assert tradeoff["copies_bound"] == 1000.0
        assert payload["dual_feasibility"]["feasible"] is True

    def test_out_of_regime_is_flagged_not_rejected(self, capsys):
        code = run(["bounds", "--n", "30", "--k", "10", "--eps", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tradeoff"]["regime_n"] is False

    def test_zero_eps_is_usage_error(self):
        assert run(["bounds", "--n", "100", "--k", "10", "--eps", "0"]) == 2

    def test_copies_enter_the_branches(self, capsys):
        code = run(
            ["bounds", "--n", "320", "--k", "64", "--eps", "1", "--ell", "2",
             "--ell-prime", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tradeoff"]["t_choice"] == 24.0


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

    def test_unknown_procedure_is_usage_error(self, tmp_path):
        code = run(["simulate", "warp", "--trials", "10", "--out", str(tmp_path / "s")])
        assert code == 2

    def test_missing_parameter_is_usage_error(self, tmp_path):
        code = run(
            ["simulate", "qcount", "--k", "16", "--eps", "1", "--trials", "10",
             "--out", str(tmp_path / "s")]
        )
        assert code == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "coupon", "--k", "32", "--eps", "1", "--trials", "200",
                "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "simulate_coupon.csv").read_bytes() == (b / "simulate_coupon.csv").read_bytes()
        assert (a / "simulate_coupon.json").read_bytes() == (b / "simulate_coupon.json").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WORKBENCH_SEED", "21")
        out = tmp_path / "env"
        code = run(
            ["simulate", "collision", "--k", "16", "--eps", "1", "--trials", "50",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "simulate_collision.json").read_text())
        assert payload["seed"] == 21

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


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        from countbench import __version__

        assert capsys.readouterr().out.strip() == __version__


class TestConfigParsing:
    def test_repeated_keys_and_comments(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("# comment\nfoo=1\nfoo=2\nbar = a b \n\n")
        parsed = cli.parse_config(str(cfg))
        assert parsed == {"foo": ["1", "2"], "bar": ["a b"]}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("not a pair\n")
        with pytest.raises(ValueError):
            cli.parse_config(str(cfg))
