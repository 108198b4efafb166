"""The test session survives a failing Hypothesis test.

Runs a small suite in a fresh interpreter under this repository's pytest
settings and conftest, so warnings filters and imports start clean.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_SUITE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=5, database=None)
@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_passes():
    pass


def test_own_deprecation_warning_fails():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_pair.py").write_text(_SUITE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert re.search(r"\b2 failed, 1 passed\b", out), out
    assert "FAILED test_pair.py::test_given_fails" in out
    assert "PASSED test_pair.py::test_passes" in out
    assert "FAILED test_pair.py::test_own_deprecation_warning_fails" in out
