"""The suite's own pytest configuration, the section in pyproject.toml."""

from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]

GENERATED = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_generated_failure(i):
    assert i < 5


def test_deprecation_warning_fails():
    warnings.warn("a deprecated call", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_generated_example_fails_one_test(tmp_path):
    # hypothesis reports a failing example through libcst, whose import warns
    # that mypy_extensions.TypedDict is deprecated; under the configuration's
    # error::DeprecationWarning alone that warning ends the whole run with an
    # INTERNALERROR (exit code 3) and no test after it runs.  Every other
    # DeprecationWarning still fails its test.
    (tmp_path / "test_generated.py").write_text(GENERATED)
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_generated.py",
    ]  # fmt: skip
    out = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout[-3000:]
    assert out.returncode == 1, out.stdout[-3000:]
    assert "2 failed, 1 passed" in out.stdout
    assert "FAILED test_generated.py::test_deprecation_warning_fails - DeprecationWarning" in out.stdout
