"""The test tooling itself: the repository's pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # reporting a failing example imports libcst, whose import warns; under
    # the settings' warnings-as-errors that must not stop the later tests
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_two.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
