"""The suite's warning filters let a failing Hypothesis test fail normally."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

FAILING_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # Hypothesis's failure report imports libcst where it is installed, which
    # warns; under warnings as errors that must not abort the session.
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in proc.stdout
    assert proc.returncode == 1
