"""The suite's own pytest settings."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

_TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_passes():
    pass
"""


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # With every warning an error, hypothesis's failure report touches the
    # deprecated mypy_extensions.TypedDict; unless pyproject.toml ignores that
    # warning, pytest stops with an INTERNALERROR before the next test runs.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
