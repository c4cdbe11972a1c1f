"""The suite's own settings: pytest's, and the CI workflow that runs it."""

import ast
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

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


def test_workflow_runs_the_cli_only_through_the_tier1_tests():
    # Every CLI contract check is a Tier-1 test, so the Tier-1 command alone
    # runs them all; a CLI step in the workflow would be a second gate.
    runs = re.findall(r"rieszdml\.cli|\brieszdml +(?:estimate|simulate|rmd-solve)\b",
                      WORKFLOW.read_text())
    assert runs == [], runs


def _property_test_files():
    """The tests/test_*.py files with a function decorated by hypothesis's ``@given``."""
    found = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(dec, ast.Call)
                    and "given" in (getattr(dec.func, "id", None), getattr(dec.func, "attr", None))
                    for dec in node.decorator_list):
                found.add(f"tests/{path.name}")
    return found


def test_explore_step_runs_every_property_test_file():
    # The explore step names its files by hand, so a property test in a file it
    # does not name would only ever run on the derandomized examples.
    step = [line for line in WORKFLOW.read_text().splitlines()
            if "--hypothesis-profile explore" in line]
    assert len(step) == 1, step
    named = set(re.findall(r"tests/test_\w+\.py", step[0]))
    files = _property_test_files()
    assert "tests/test_rmd.py" in files and "tests/test_suite_config.py" not in files
    assert files <= named, sorted(files - named)
