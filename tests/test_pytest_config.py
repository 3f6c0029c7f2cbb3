"""The test configuration must let a failing Hypothesis test report as a failure.

To explain a failing ``@given`` example, Hypothesis imports libcst, whose use
of ``mypy_extensions.TypedDict`` warns ``DeprecationWarning``. The
configuration turns that category into errors, and raised inside pytest's
hooks it ended the run in INTERNALERROR, so no later test reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_reports_as_a_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
