"""The repository's pytest settings let a failing hypothesis example be
reported like any other failure, without ending the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_example_does_not_abort_the_session(tmp_path):
    # on a failure, hypothesis's pytest plugin imports libcst to suggest a
    # patch; libcst builds a mypy_extensions.TypedDict, and the deprecation
    # warning that raises was turned into an error inside the reporting hook:
    # pytest stopped with INTERNALERROR and never ran test_passes
    (tmp_path / "test_planted.py").write_text(PLANTED)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_planted.py"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 1
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
