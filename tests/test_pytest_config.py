"""The repository's pytest settings, exercised in a separate pytest run."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_stop_the_run(pytester):
    # hypothesis's failure report imports libcst, which warns on import; under
    # filterwarnings = error that warning must not end the whole run.
    pytester.makepyfile(
        test_inner="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_inner.py",
    )
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
