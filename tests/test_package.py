"""Package surface: the package exports exactly the pinned public names,
each module's among them, every private helper is used, every name the
benchmark's traced run wraps exists, every other public-looking
definition is exported, every CLI limit the CI workflow
reads is an int and its peak-RSS wrapper keeps a command's exit code, the
CLI imports only what a command runs, the README's library example holds,
and the test configuration reports a failing property instead of crashing."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from itertools import takewhile
from pathlib import Path

import pytest

import adjoint_powers
from adjoint_powers import cli, coefficients, combinatorics, lie

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("module", [combinatorics, coefficients, lie], ids=lambda m: m.__name__)
def test_module_public_names_are_exported(module):
    missing = sorted(set(module.__all__) - set(adjoint_powers.__all__))
    assert not missing, f"{module.__name__} names not exported by the package: {missing}"
    for name in module.__all__:
        assert getattr(adjoint_powers, name) is getattr(module, name)
    # The package exports exactly the modules' names, each once.
    names = combinatorics.__all__ + coefficients.__all__ + lie.__all__
    assert len(set(names)) == len(names)
    assert sorted(adjoint_powers.__all__) == sorted(set(names))


# The public API: a name added to or dropped from it shows in this list.
PUBLIC_NAMES = [
    "BlockExtractionError", "CoefficientRow", "ENUMERATION_LIMIT", "ExactDivisionError",
    "PowerCheck", "PowerSeries", "StableLabel", "VerificationReport", "adjoint_labels",
    "adjoint_power", "coefficient", "coefficient_row", "derangement",
    "derangement_enumeration_oracle", "derangement_numbers", "dynkin_to_stable",
    "egf_coefficients", "euler_rows", "exact_div", "extract_stable_blocks", "higher_derangement",
    "higher_derangement_rows", "leading_block_label", "stable_to_dynkin", "tensor_with_adjoint",
    "trivial_labels", "verify_stable_decomposition", "weyl_dimension",
]


def test_public_api_is_pinned():
    assert adjoint_powers.__all__ == PUBLIC_NAMES


def test_every_private_helper_is_used():
    # A top-level private function or class that nothing in the package
    # names outside its own body is dead code a change left behind.
    uses = set()  # (name, module, top-level definition holding the use)
    helpers = []
    for path in sorted((ROOT / "src" / "adjoint_powers").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and owner.startswith("_"):
                helpers.append((owner, path.name))
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                uses.add((name, path.name, owner))
    unused = [
        f"{module}:{name}"
        for name, module in helpers
        if not any(use[0] == name and use[1:] != (module, name) for use in uses)
    ]
    assert helpers and not unused, f"private helpers nothing uses: {unused}"


def test_no_module_has_an_assert_statement():
    # ``python -O`` strips assert statements, so a check made with one
    # would pass silently there; the package raises explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "adjoint_powers").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements: {found}"


def traced_attributes():
    """perfbench/run.py's TRACED, the (module, attribute) pairs its traced
    run wraps.  Only the module is loaded: its main() is not called."""
    path = ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.TRACED


def test_benchmark_traced_attributes_resolve():
    # The traced benchmark run wraps each (module, attribute) of
    # perfbench/run.py's TRACED with getattr/setattr; a name the package
    # drops or renames would break that run.
    traced = traced_attributes()
    assert traced
    for module, attr in traced:
        owner = importlib.import_module(f"adjoint_powers.{module}")
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def test_every_public_looking_definition_is_exported_or_traced():
    # A top-level def or class without a leading underscore is in its
    # module's __all__, or is a name the traced benchmark run wraps and
    # that stays callable for it alone; any other is an API nobody chose.
    traced = traced_attributes()
    stray = []
    for module in (combinatorics, coefficients, lie):
        short = module.__name__.rpartition(".")[2]
        for top in ast.parse(Path(module.__file__).read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            if top.name not in module.__all__ and (short, top.name) not in traced:
                stray.append(f"{short}.{top.name}")
    assert not stray, f"public-looking names neither exported nor traced: {stray}"


def test_workflow_reads_int_limits_of_the_cli():
    # Each at-limit job of the workflow reads its sizes as print(cli.NAME); a
    # name the CLI drops or turns into a non-int breaks only that job.
    names = re.findall(r"print\(cli\.(\w+)\)", WORKFLOW.read_text())
    assert names
    bad = sorted({name for name in names if type(getattr(cli, name, None)) is not int})
    assert not bad, bad


def test_workflow_peak_rss_wrapper_keeps_the_exit_code():
    # The PEAK_RSS snippet, cut from the YAML as text: the block under its key.
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("  PEAK_RSS: |") + 1
    block = takewhile(lambda line: line.startswith("    ") or not line.strip(), lines[start:])
    snippet = textwrap.dedent("\n".join(block))
    child = [sys.executable, "-c", "raise SystemExit(3)"]
    result = subprocess.run(
        [sys.executable, "-c", snippet, *child], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 3
    line = rf"peak RSS \d+\.\d MB, wall \d+\.\d\d s: {re.escape(' '.join(child))}\n"
    assert re.fullmatch(line, result.stderr), result.stderr


# Modules a command does not need: dataclasses and what it pulls in
# (inspect, ast, dis, tokenize), fractions with decimal (only ``series``
# builds a Fraction, inside egf_coefficients, and only the ``table`` and
# ``coeffs --upto`` commands print through Decimal), and the json package
# (the encoder uses the C string encoder from _json).
NOT_IMPORTED_BY_CLI = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "json",
}


def test_cli_import_adds_none_of_the_unneeded_modules():
    # A fresh interpreter: what it loads before the import (``site`` may
    # preload modules) is the baseline, and only the import's additions count.
    code = (
        "import sys; baseline = set(sys.modules); import adjoint_powers.cli; "
        "print(*sorted(set(sys.modules) - baseline))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    added = set(result.stdout.split())
    assert "adjoint_powers.cli" in added
    assert not added & NOT_IMPORTED_BY_CLI, sorted(added & NOT_IMPORTED_BY_CLI)


# Runs one command in a fresh interpreter and reports whether it loaded decimal.
RUN_AND_REPORT_DECIMAL = (
    "import sys; baseline = set(sys.modules); from adjoint_powers import cli; "
    "code = cli.run(sys.argv[1:]); sys.stdout.flush(); "
    "sys.stderr.write(str('decimal' in set(sys.modules) - baseline)); sys.exit(code)"
)


@pytest.mark.parametrize(
    "command,loads",
    [
        # The benchmark's set-up command and the oracle keep their start-up and memory.
        ("coeffs --k 1 --format csv", False),
        ("verify oracle --kmax 2 --n 3", False),
        # The check itself sees a load where there is one.
        ("table euler --max 3 --format csv", True),
        ("coeffs --upto 3 --format csv", True),
    ],
)
def test_decimal_loads_only_for_the_tables(command, loads):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", RUN_AND_REPORT_DECIMAL, *command.split()],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stderr.splitlines()[-1] == str(loads)


FALSE_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_false(x):
    assert x < 5
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # Under the project's warnings filter a failing Hypothesis property is
    # one plain failure with its example, not an INTERNALERROR: Hypothesis's
    # pytest plugin reaches a DeprecationWarning (through libcst) while it
    # reports the failure.
    test_file = tmp_path / "test_false_property.py"
    test_file.write_text(FALSE_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed" in output and result.returncode == 1


def test_readme_library_example_holds():
    # The README's python block runs as written, and every line whose
    # comment is a Python literal evaluates to that literal.
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    example = blocks[0].split("```")[0]
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    stated = {}
    for line in example.splitlines():
        expression, _, comment = line.partition("#")
        try:
            stated[expression.strip()] = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
    assert stated == {
        "coefficient_row(5).values": (44, 265, 320, 130, 20, 1),
        "coefficient(10, 5)": 4558428,
    }
    for expression, value in stated.items():
        assert eval(expression, namespace) == value
    assert namespace["report"].passed
    assert len(namespace["blocks"]) == 4
