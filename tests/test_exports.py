"""The package's public names: each module's ``__all__``, re-exported once."""

import importlib

import pytest

import reconkit

MODULES = ("direct", "errors", "grids", "io", "operators", "phantoms", "variational")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_bound_on_the_package_once(name):
    module = importlib.import_module(f"reconkit.{name}")
    for attr in module.__all__:
        assert getattr(reconkit, attr) is getattr(module, attr), attr
        assert reconkit.__all__.count(attr) == 1, attr


def test_package_exports_only_module_exports():
    modules = [importlib.import_module(f"reconkit.{name}") for name in MODULES]
    assert set(reconkit.__all__) == {attr for module in modules for attr in module.__all__}


@pytest.mark.parametrize(
    "name, attr",
    [("grids", "gaussian_noise"), ("grids", "bilinear_values"), ("phantoms", "render")],
)
def test_helpers_are_declared_by_their_modules(name, attr):
    assert attr in importlib.import_module(f"reconkit.{name}").__all__
