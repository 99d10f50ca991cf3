"""The pytest settings in pyproject.toml, run on a test written for them."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 100), st.integers(0, 100))
def test_fails(a, b):
    assert a + b < 150
"""


def test_failing_property_reports_its_counterexample(tmp_path):
    # pyproject.toml turns deprecation warnings into errors, and hypothesis
    # imports libcst to explain a failure: libcst's own deprecation warning
    # must not end the run in an INTERNALERROR before the counterexample.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
