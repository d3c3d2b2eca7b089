"""The suite's own pytest settings."""

import pathlib
import subprocess
import sys

_PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_small(x):
    assert x < 10
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # under filterwarnings = error, a warning raised while Hypothesis writes
    # its failure report would stop the whole run as an internal error
    (tmp_path / "test_failing.py").write_text(_FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
