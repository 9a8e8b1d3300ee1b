import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_later_tests_reported(tmp_path):
    # reporting a failing example imports libcst, whose deprecation warning
    # must not become an INTERNALERROR under the suite's warnings-as-errors
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
