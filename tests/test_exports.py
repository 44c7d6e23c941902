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


# render stays public beside analytic_sinogram: it is the image half of a phantom
@pytest.mark.parametrize("name, attr", [("phantoms", "render")])
def test_helpers_are_declared_by_their_modules(name, attr):
    assert attr in importlib.import_module(f"reconkit.{name}").__all__


# every public name; a name joins or leaves the package only by editing this list
PUBLIC = [
    "DivergenceError",
    "Ellipse",
    "LinearMap",
    "NullspaceReport",
    "Objective",
    "RadonGeometry",
    "SHEPP_LOGAN",
    "SolveReport",
    "SweepResult",
    "ValidationError",
    "admm",
    "airy_psf",
    "analytic_sinogram",
    "compressibility_study",
    "conjugate_gradient_normal",
    "dot_test",
    "embed_kernel",
    "fbp",
    "fourier_slice_check",
    "gaussian_kernel",
    "gradient_descent",
    "ista",
    "lambda_sweep",
    "normal_stream",
    "normal_test",
    "nullspace_demo",
    "objective_value",
    "op_compose",
    "op_convolve",
    "op_dct8",
    "op_dft2",
    "op_grad",
    "op_haar",
    "op_mask",
    "op_matrix",
    "op_multiply",
    "op_radon",
    "prox_apply",
    "random_mask",
    "read_raster",
    "render",
    "shepp_logan",
    "snr_db",
    "uniform_stream",
    "wiener_deconvolve",
    "write_csv",
    "write_manifest",
    "write_pgm",
    "write_raster",
]


def test_public_names_are_exactly_the_pinned_list():
    assert reconkit.__all__ == PUBLIC
