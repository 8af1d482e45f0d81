"""Package surface: every public name of a module is exported by the package."""

import pytest

import adjoint_powers
from adjoint_powers import coefficients, combinatorics, lie


@pytest.mark.parametrize("module", [combinatorics, coefficients, lie], ids=lambda m: m.__name__)
def test_module_public_names_are_exported(module):
    missing = sorted(set(module.__all__) - set(adjoint_powers.__all__))
    assert not missing, f"{module.__name__} names not exported by the package: {missing}"
    for name in module.__all__:
        assert getattr(adjoint_powers, name) is getattr(module, name)
