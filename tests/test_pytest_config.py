"""The repository's pytest configuration, run on a throwaway test file."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert False


def test_after_property_passes():
    pass


def test_deprecation_warning_fails():
    warnings.warn("outdated call", DeprecationWarning)
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # A failing @given test makes hypothesis print a patch through libcst,
    # whose import raises a DeprecationWarning; under "error" alone that
    # warning ended the whole session as an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_probe.py::test_property_fails" in out, out
    assert "PASSED test_probe.py::test_after_property_passes" in out, out
    assert "FAILED test_probe.py::test_deprecation_warning_fails" in out, out
    assert "2 failed, 1 passed" in out, out
