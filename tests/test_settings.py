"""The repository's pytest settings, applied to a test file written here."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_property.py").write_text(ONE_FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
