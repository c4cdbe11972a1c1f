"""The suite's own settings: pytest's, the CI workflow that runs it, and two source rules."""

import ast
import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
PERFBENCH = ROOT / "perfbench"

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


def test_every_source_file_parses_at_the_declared_python_floor():
    # Checks syntax only, such as except* (3.11): a call into a newer standard
    # library API still parses, and would first fail when run on the floor.
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    floor = tuple(int(part) for part in floor.groups())
    matrix = re.search(r"python-version: \[(.*)\]", WORKFLOW.read_text()).group(1)
    versions = [tuple(int(part) for part in v.split("."))
                for v in re.findall(r"\d+\.\d+", matrix)]
    assert min(versions) == floor, (versions, floor)
    with pytest.raises(SyntaxError):  # the check can see newer syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    files = [path for pattern in ("src/rieszdml/*.py", "tests/*.py", "perfbench/*.py")
             for path in sorted(ROOT.glob(pattern))]
    assert len(files) > 20, files
    for path in files:
        ast.parse(path.read_text(), str(path.relative_to(ROOT)), feature_version=floor)


# the spec of a float format: ".17g", "g", ".3f", "e", "%"
_FLOAT_SPEC = re.compile(r"[-+ #0-9,_.<>=^]*[eEfFgG%]")
_PRINTF_FLOAT = re.compile(r"%[-+ #0]*(?:\d+|\*)?(?:\.\d+)?[eEfFgG]")  # "%g", "%.17g"
_TEMPLATE_FLOAT = re.compile(r"\{[^{}:]*:" + _FLOAT_SPEC.pattern + r"\}")  # "{:.17g}"


def _literal(node):
    """The text of a string literal, or "" for any other expression."""
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def _float_format_lines(source):
    """The lines where ``source`` formats a float with a spec of its own:
    f"{x:.3g}", format(x, ".17g"), "%g" % x or "{:g}".format(x)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            found = _FLOAT_SPEC.fullmatch("".join(_literal(v) for v in node.format_spec.values))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "format":
            found = len(node.args) == 2 and _FLOAT_SPEC.fullmatch(_literal(node.args[1]))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            found = _PRINTF_FLOAT.search(_literal(node.left))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "format":
            found = _TEMPLATE_FLOAT.search(_literal(node.func.value))
        else:
            found = None
        if found:
            yield node.lineno


_FINDER_CASES = [
    ('f"{x:.3g}"', [1]), ('format(x, ".17g")', [1]), ('"%g" % x', [1]),
    ('"{:>8.2e}".format(x)', [1]), ('f"{n:d} {s!r:>8}"', []), ('"%d" % n', []),
    ('"{:>8}".format(s)', []), ("g % 2", []),
]


def test_floats_have_one_writer():
    # JSON and CSV both write a float as Python's repr, the shortest string that
    # reads back to the same double; a spec of its own would be a second writer
    assert [list(_float_format_lines(source)) for source, _ in _FINDER_CASES] == \
        [lines for _, lines in _FINDER_CASES]
    found = [f"{path.name}:{line}" for path in sorted((ROOT / "src" / "rieszdml").glob("*.py"))
             for line in _float_format_lines(path.read_text())]
    assert found == [], found


def _perfbench(name):
    """perfbench/<name>.py imported by path, as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_benchmark_calls_still_run(tmp_path):
    # perfbench/ is frozen with the benchmark but calls the package by name: workloads.py
    # passes dml_estimate(..., l1_bound=est.l1_bound, ...), and spans.py patches design_matrix,
    # m_hat_vector, estimate_blp, estimate_riesz, solve_rmd and the rest by name.
    from rieszdml import rmd

    workloads, spans = _perfbench("workloads"), _perfbench("spans")
    for name in ("mc_sparse_p50", "mc_ate_n8000"):
        assert workloads.setup(name).op(0) == (1, 0), name
    work, recorder, solve = workloads.setup("mc_sparse_p50"), spans.Recorder(tmp_path), rmd.solve_rmd
    try:
        recorder.install()
        assert work.op(0) == (1, 0)
    finally:
        recorder.uninstall()
    assert rmd.solve_rmd is solve
    assert {"dml.estimate", "rmd.solve", "lp.solve"} <= {span[0] for span in recorder.drain()}
