"""The suite's own pytest settings still report a failing test as a failure."""

import os

pytest_plugins = ["pytester"]

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")


def test_failing_hypothesis_test_is_reported(pytester):
    """On failure hypothesis imports libcst, whose import warns; under
    error::DeprecationWarning that used to end the run with INTERNALERROR."""
    pytester.makepyfile(test_fails="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10
    """)
    result = pytester.runpytest_subprocess(
        "-c", PYPROJECT, "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_fails.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1)
