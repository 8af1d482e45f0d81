"""Package surface: every public name of a module is exported by the package,
and every name the benchmark's traced run wraps exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import adjoint_powers
from adjoint_powers import coefficients, combinatorics, lie


@pytest.mark.parametrize("module", [combinatorics, coefficients, lie], ids=lambda m: m.__name__)
def test_module_public_names_are_exported(module):
    missing = sorted(set(module.__all__) - set(adjoint_powers.__all__))
    assert not missing, f"{module.__name__} names not exported by the package: {missing}"
    for name in module.__all__:
        assert getattr(adjoint_powers, name) is getattr(module, name)


def test_benchmark_traced_attributes_resolve():
    # The traced benchmark run wraps each (module, attribute) of
    # perfbench/run.py's TRACED with getattr/setattr; a name the package
    # drops or renames would break that run.  Only the module is loaded:
    # its main() is not called.
    path = Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    assert harness.TRACED
    for module, attr in harness.TRACED:
        owner = importlib.import_module(f"adjoint_powers.{module}")
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
