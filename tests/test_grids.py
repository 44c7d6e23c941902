"""The raster, shape, count and number checks, the DFT convention, the ray
transform's bilinear stencil, and the noise stream.

The DFT tests run ``op_dft2``, the package's one DFT, and compare it against
a direct O(N^2) evaluation of the defining sums, so the fast path is checked
against the formula rather than against itself.  ``op_dft2`` returns the
spectrum's real and imaginary parts stacked; ``spectrum`` joins them.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from reconkit import (
    SHEPP_LOGAN,
    LinearMap,
    Objective,
    RadonGeometry,
    ValidationError,
    airy_psf,
    analytic_sinogram,
    admm,
    compressibility_study,
    conjugate_gradient_normal,
    dot_test,
    embed_kernel,
    fbp,
    fourier_slice_check,
    gaussian_kernel,
    gradient_descent,
    ista,
    lambda_sweep,
    normal_stream,
    normal_test,
    objective_value,
    op_convolve,
    op_dct8,
    op_dft2,
    op_grad,
    op_haar,
    op_matrix,
    op_multiply,
    op_radon,
    prox_apply,
    random_mask,
    render,
    shepp_logan,
    snr_db,
    uniform_stream,
    wiener_deconvolve,
    write_pgm,
    write_raster,
)
from reconkit.grids import _FINITE, _FRACTION, _NONNEGATIVE, _POSITIVE, _raster, _shape
from reconkit.operators import _bilinear_stencil
from reconkit.phantoms import _AIRY_CUTOFF


def dft2_direct(data):
    """Defining double sum: X[k,l] = sum_{n,m} x[n,m] e^{-2πi(kn/H + lm/W)}."""
    h, w = data.shape
    n = np.arange(h)
    m = np.arange(w)
    ek = np.exp(-2j * np.pi * np.outer(np.arange(h), n) / h)
    el = np.exp(-2j * np.pi * np.outer(np.arange(w), m) / w)
    return ek @ data.astype(complex) @ el.T


def spectrum(parts):
    return parts[0] + 1j * parts[1]


# each library function where a raster enters, called on ``x``
ONES = np.ones((8, 8))
ENTRY_POINTS = {
    "fbp": lambda x: fbp(x, RadonGeometry(8, 8)),
    "fourier_slice_check": lambda x: fourier_slice_check(x, 0.0),
    "wiener_deconvolve": lambda x: wiener_deconvolve(x, ONES, 0.1, ONES),
    "compressibility_study": lambda x: compressibility_study(x, "haar", levels=1),
    "op_convolve": lambda x: op_convolve(x),
    "op_matrix": lambda x: op_matrix(x),
    "op_multiply": lambda x: op_multiply(x),
}

# (name in the error, call on a complex 8 x 8 array x with scratch directory
# tmp) for every library entry point that casts an array to float64
QUADRATIC = Objective(op_multiply(ONES), ONES)
REAL_ONLY = [
    *((name, lambda x, tmp, call=call: call(x)) for name, call in ENTRY_POINTS.items()),
    ("objective_value", lambda x, tmp: objective_value(QUADRATIC, x)),
    ("prox_apply", lambda x, tmp: prox_apply("abs", x, 0.1)),
    ("wiener_deconvolve kernel", lambda x, tmp: wiener_deconvolve(ONES, x, 0.1, ONES)),
    ("wiener_deconvolve prior_spectrum", lambda x, tmp: wiener_deconvolve(ONES, ONES, 0.1, x)),
    ("embed_kernel", lambda x, tmp: embed_kernel(x, (16, 16))),
    ("write_raster", lambda x, tmp: write_raster(str(tmp / "raster"), x)),
    ("write_pgm", lambda x, tmp: write_pgm(str(tmp / "preview.pgm"), x)),
    ("snr_db truth", lambda x, tmp: snr_db(x, ONES)),
    ("snr_db estimate", lambda x, tmp: snr_db(ONES, x)),
]

# (name, the operator's message, call on a complex 8 x 8 array x) for each
# array a solve hands its operator, which checks it as an input of its own
OPERATOR_INPUTS = [
    (
        "Objective data",
        "matrix: data input must be real",
        lambda x: Objective(op_matrix(np.eye(3)), [1 + 2j, 0, 0]),
    ),
    ("f0", "multiply: f0 input must be real", lambda x: gradient_descent(QUADRATIC, f0=x)),
]

# each library function that makes a raster, at 32 x 32
IMG = normal_stream(1024, 1.0, 6).reshape(32, 32)
VIEWS = RadonGeometry(8, 32)
MAKERS = {
    "render": lambda: render(SHEPP_LOGAN, 32),
    "shepp_logan": lambda: shepp_logan(32),
    "airy_psf": lambda: airy_psf(32, 0.2),
    "embed_kernel": lambda: embed_kernel(np.ones((3, 3)), (32, 32)),
    "analytic_sinogram": lambda: analytic_sinogram(SHEPP_LOGAN, RadonGeometry(32, 32), 32),
    "op_haar": lambda: op_haar((32, 32), 2).apply(IMG),
    "op_dct8": lambda: op_dct8((32, 32)).apply(IMG),
    "fbp": lambda: fbp(analytic_sinogram(SHEPP_LOGAN, VIEWS, 32), VIEWS),
    "wiener_deconvolve": lambda: wiener_deconvolve(IMG, IMG, 0.1, np.ones((32, 32))),
}


class TestRaster:
    def test_is_a_float64_array_of_any_real_input(self):
        for raw in (np.ones((3, 4), dtype=np.float32), [[1, 2], [3, 4]]):
            arr = _raster(raw, "caller")
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert np.array_equal(arr, np.asarray(raw, dtype=np.float64))

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_each_maker_returns_a_float64_array(self, name):
        out = MAKERS[name]()
        assert type(out) is np.ndarray
        assert out.dtype == np.float64 and out.shape == (32, 32)

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_each_entry_point_takes_float32_and_integer_rasters(self, name):
        call = ENTRY_POINTS[name]
        call(normal_stream(64, 1.0, 5).reshape(8, 8).astype(np.float32))
        call(np.arange(64).reshape(8, 8) % 5)

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_each_entry_point_rejects_a_raster_that_is_not_2d(self, name):
        for bad in (np.zeros(8), np.zeros((2, 2, 2)), np.zeros((0, 8))):
            with pytest.raises(ValidationError, match=rf"^{name} expects a non-empty 2D raster$"):
                ENTRY_POINTS[name](bad)

    @pytest.mark.parametrize("who,call", REAL_ONLY, ids=[who for who, _ in REAL_ONLY])
    def test_each_float64_entry_point_rejects_complex_input(self, who, call, tmp_path):
        # the check comes before the cast, which would warn and drop the imaginary part
        x = normal_stream(64, 1.0, 8).reshape(8, 8) + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^{who} takes real values, not complex"):
                call(x, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "want,call", [row[1:] for row in OPERATOR_INPUTS], ids=[row[0] for row in OPERATOR_INPUTS]
    )
    def test_each_solver_array_rejects_complex_input_as_its_operator_does(self, want, call):
        x = normal_stream(64, 1.0, 8).reshape(8, 8) + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
                call(x)

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_each_entry_point_rejects_nonfinite_samples(self, name):
        for value in (np.nan, np.inf):
            with pytest.raises(ValidationError, match=rf"^{name} input contains non-finite samples$"):
                ENTRY_POINTS[name](np.full((8, 8), value))


# (argument name in the error, least value, call with the argument set to v)
# for every count that enters the library
L1 = Objective(op_multiply(ONES), ONES, penalty="abs", lam=0.1)
COUNTS = [
    ("RadonGeometry n_angles", 1, lambda v: RadonGeometry(v, 8)),
    ("RadonGeometry n_detectors", 1, lambda v: RadonGeometry(8, v)),
    ("op_haar levels", 1, lambda v: op_haar((8, 8), v)),
    ("render size", 2, lambda v: render(SHEPP_LOGAN, v)),
    ("shepp_logan size", 32, lambda v: shepp_logan(v)),
    ("analytic_sinogram image_size", 2, lambda v: analytic_sinogram(SHEPP_LOGAN, VIEWS, v)),
    ("airy_psf size", 1, lambda v: airy_psf(v, 0.2)),
    ("gaussian_kernel size", 1, lambda v: gaussian_kernel(v, 1.0)),
    ("uniform_stream count", 0, lambda v: uniform_stream(v, 0)),
    ("normal_stream count", 0, lambda v: normal_stream(v, 1.0, 0)),
    ("dot_test trials", 1, lambda v: dot_test(op_dft2((4, 4)), trials=v)),
    ("normal_test trials", 1, lambda v: normal_test(op_dft2((4, 4)), trials=v)),
    ("gradient descent max_iter", 0, lambda v: gradient_descent(QUADRATIC, max_iter=v)),
    ("conjugate gradients max_iter", 0, lambda v: conjugate_gradient_normal(QUADRATIC, max_iter=v)),
    ("ista max_iter", 0, lambda v: ista(L1, max_iter=v)),
    ("fista max_iter", 0, lambda v: ista(L1, accelerate=True, max_iter=v)),
    ("admm max_iter", 0, lambda v: admm(QUADRATIC, max_iter=v)),
    ("admm inner_iter", 0, lambda v: admm(QUADRATIC, inner_iter=v)),
    ("LinearMap domain_shape", 1, lambda v: LinearMap((v, 3), (2,), np.sin, np.sin)),
    ("LinearMap range_shape", 1, lambda v: LinearMap((3,), (v,), np.sin, np.sin)),
]

# (argument name in the error, its rule, a value outside the rule, call with the
# argument set to v) for every real number that enters the library
ELLIPSE = SHEPP_LOGAN[0]
NUMBERS = [
    ("Objective lam", _NONNEGATIVE, -1.0, lambda v: Objective(op_multiply(ONES), ONES, lam=v)),
    ("gradient descent step", _POSITIVE, 0.0, lambda v: gradient_descent(QUADRATIC, step=v)),
    ("admm rho", _POSITIVE, 0.0, lambda v: admm(L1, rho=v)),
    ("prox_apply step", _NONNEGATIVE, -1.0, lambda v: prox_apply("abs", ONES, v)),
    ("lambda_sweep weight", _NONNEGATIVE, -1.0, lambda v: lambda_sweep(np.sin, ONES, [v])),
    ("normal_stream sigma", _NONNEGATIVE, -1.0, lambda v: normal_stream(4, v, 0)),
    (
        "wiener_deconvolve sigma",
        _NONNEGATIVE,
        -1.0,
        lambda v: wiener_deconvolve(ONES, ONES, v, ONES),
    ),
    ("gaussian_kernel sigma", _POSITIVE, 0.0, lambda v: gaussian_kernel(3, v)),
    ("airy_psf cutoff", _AIRY_CUTOFF, 0.75, lambda v: airy_psf(5, v)),
    ("random_mask fraction", _FRACTION, 1.5, lambda v: random_mask((8, 8), v, 0)),
    (
        "compressibility_study keep fraction",
        _FRACTION,
        1.5,
        lambda v: compressibility_study(ONES, "haar", [v], levels=1),
    ),
    ("RadonGeometry detector_pitch", _POSITIVE, 0.0, lambda v: RadonGeometry(8, 8, v)),
    *(
        (f"Ellipse {name}", rule, outside, lambda v, n=name: dataclasses.replace(ELLIPSE, **{n: v}))
        for name, rule, outside in (
            ("cx", _FINITE, np.inf),
            ("cy", _FINITE, np.inf),
            ("a", _POSITIVE, 0.0),
            ("b", _POSITIVE, 0.0),
            ("phi", _FINITE, np.inf),
            ("rho", _FINITE, np.inf),
        )
    ),
    ("gradient descent tol", _NONNEGATIVE, -1.0, lambda v: gradient_descent(QUADRATIC, tol=v)),
    (
        "conjugate gradients tol",
        _NONNEGATIVE,
        -1.0,
        lambda v: conjugate_gradient_normal(QUADRATIC, tol=v),
    ),
    ("ista tol", _NONNEGATIVE, -1.0, lambda v: ista(L1, tol=v)),
    ("fista tol", _NONNEGATIVE, -1.0, lambda v: ista(L1, accelerate=True, tol=v)),
    ("admm tol", _NONNEGATIVE, -1.0, lambda v: admm(QUADRATIC, tol=v)),
]

# the same for every (height, width) shape that enters the library
SHAPES = [
    ("op_dft2 shape", 1, op_dft2),
    ("op_grad shape", 1, op_grad),
    ("op_radon image_shape", 2, lambda s: op_radon(VIEWS, s)),
    ("op_haar shape", 1, lambda s: op_haar(s, 1)),
    ("op_dct8 shape", 1, op_dct8),
    ("random_mask shape", 1, lambda s: random_mask(s, 0.5, 0)),
    ("embed_kernel shape", 1, lambda s: embed_kernel(np.ones((1, 1)), s)),
    ("fbp out_shape", 1, lambda s: fbp(ONES, RadonGeometry(8, 8), out_shape=s)),
]

RASTER = "{} expects a non-empty 2D raster"

# every seeded entry point, called with the seed set to v
SEEDS = [
    ("uniform_stream", lambda v: uniform_stream(4, v)),
    ("normal_stream", lambda v: normal_stream(4, 1.0, v)),
    ("normal_stream sigma=0", lambda v: normal_stream(4, 0.0, v)),  # draws no stream
    ("random_mask", lambda v: random_mask((8, 8), 0.5, v)),
    ("dot_test", lambda v: dot_test(op_dft2((4, 4)), seed=v)),
    ("normal_test", lambda v: normal_test(op_dft2((4, 4)), seed=v)),
    ("gradient descent", lambda v: gradient_descent(QUADRATIC, power_seed=v)),
    ("ista", lambda v: ista(L1, power_seed=v)),
    ("fista", lambda v: ista(L1, accelerate=True, power_seed=v)),
]

# (test id, exact message, call) for every entry check: a fractional value, a
# value below the least and a bool for each count and shape, a string, a bool,
# NaN and a value outside the rule for each real number, a bool for each seed,
# and arrays that are not non-empty finite 2D rasters
ENTRY_CHECKS = [
    *(
        (f"{who}={label}", f"{who} must be an integer >= {least}", lambda c=call, v=v: c(v))
        for who, least, call in COUNTS
        for label, v in (("fraction", least + 0.5), ("below", least - 1), ("bool", True))
    ),
    *(
        (
            f"{who}={label}",
            f"{who} must be a (height, width) pair of integers >= {least}",
            lambda c=call, s=s: c(s),
        )
        for who, least, call in SHAPES
        for label, s in (
            ("fraction", (least + 0.5, 8)),
            ("below", (8, least - 1)),
            ("bool", (True, 8)),
        )
    ),
    *(
        (f"{who}={label}", f"{who} {rule[1]}", lambda c=call, v=v: c(v))
        for who, rule, outside, call in NUMBERS
        for label, v in (("string", "0.5"), ("bool", True), ("nan", np.nan), ("outside", outside))
    ),
    *(
        (f"{who} seed=bool", "seed must be an integer in [0, 2**64)", lambda c=call: c(True))
        for who, call in SEEDS
    ),
    ("embed_kernel=1d", RASTER.format("embed_kernel"), lambda: embed_kernel(np.ones(3), (8, 8))),
    (
        "embed_kernel=nan",
        "embed_kernel input contains non-finite samples",
        lambda: embed_kernel(np.full((3, 3), np.nan), (8, 8)),
    ),
    (
        "wiener_deconvolve kernel=nan",
        "wiener_deconvolve kernel input contains non-finite samples",
        lambda: wiener_deconvolve(ONES, np.full((8, 8), np.nan), 0.1, ONES),
    ),
    ("op_matrix=empty", RASTER.format("op_matrix"), lambda: op_matrix(np.zeros((0, 3)))),
    ("op_multiply=empty", RASTER.format("op_multiply"), lambda: op_multiply(np.zeros((0, 3)))),
    ("snr_db=empty", "snr_db needs at least one sample", lambda: snr_db(np.zeros(0), np.zeros(0))),
]


class TestEntryChecks:
    @pytest.mark.parametrize(
        "want,call", [row[1:] for row in ENTRY_CHECKS], ids=[row[0] for row in ENTRY_CHECKS]
    )
    def test_rejects_with_a_message_naming_the_argument(self, want, call):
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            call()

    def test_a_shape_is_any_pair_of_integers(self):
        raster = np.ones((3, 4))
        for pair in ((3, 4), [3, 4], np.array([3, 4]), raster.shape, raster.data.shape):
            assert _shape(pair, "caller") == (3, 4)
            assert all(type(v) is int for v in _shape(pair, "caller"))

    def test_multiply_and_matrix_keep_their_own_copy(self):
        weights, matrix = np.ones((3, 3)), np.eye(3)
        multiply, dense = op_multiply(weights), op_matrix(matrix)
        weights[:] = 5.0
        matrix[:] = 7.0
        x = normal_stream(9, 1.0, 9).reshape(3, 3)
        assert np.array_equal(multiply.apply(x), x)
        assert np.array_equal(multiply.adjoint(x), x)
        assert np.array_equal(dense.apply(x[0]), x[0])
        assert np.array_equal(dense.adjoint(x[0]), x[0])


class TestDft:
    def test_matches_direct_sum(self):
        data = normal_stream(48, 1.0, 101).reshape(6, 8)
        fast = spectrum(op_dft2((6, 8)).apply(data))
        slow = dft2_direct(data)
        assert np.max(np.abs(fast - slow)) < 1e-9

    def test_inverse_round_trip(self):
        data = normal_stream(64, 1.0, 102).reshape(8, 8)
        dft = op_dft2((8, 8))
        back = dft.adjoint(dft.apply(data)) / 64.0
        assert np.max(np.abs(back - data)) < 1e-12

    def test_single_bin_inverse_is_unit_exponential(self):
        # one unit in bin (0, 1): inverse holds e^{i 2π n/8} / 64 along rows,
        # whose real part the adjoint keeps; a unit in the imaginary part
        # gives Re(i e^{i 2π n/8}) / 64
        cols = np.arange(8)
        expected = np.exp(2j * np.pi * cols / 8)[None, :] / 64.0 * np.ones((8, 1))
        for part, want in ((0, expected.real), (1, (1j * expected).real)):
            spec = np.zeros((2, 8, 8))
            spec[part, 0, 1] = 1.0
            img = op_dft2((8, 8)).adjoint(spec) / 64.0
            assert np.max(np.abs(img - want)) < 1e-14

    def test_parseval_with_forward_normalization(self):
        # unnormalized forward: sum |X|^2 = N * sum |x|^2
        data = normal_stream(60, 1.0, 103).reshape(6, 10)
        spec = op_dft2((6, 10)).apply(data)
        lhs = np.sum(np.abs(spectrum(spec)) ** 2)
        rhs = data.size * np.sum(data**2)
        assert abs(lhs - rhs) / rhs < 1e-12

    def test_shift_modulation_duality(self):
        # circular shift by (dy, dx) multiplies bin (k, l) by e^{-2πi(k dy/H + l dx/W)}
        data = normal_stream(64, 1.0, 104).reshape(8, 8)
        dy, dx = 3, 5
        shifted = np.roll(data, shift=(dy, dx), axis=(0, 1))
        dft = op_dft2((8, 8))
        spec = spectrum(dft.apply(data))
        k = np.arange(8)[:, None]
        l = np.arange(8)[None, :]
        phase = np.exp(-2j * np.pi * (k * dy + l * dx) / 8.0)
        assert np.max(np.abs(spectrum(dft.apply(shifted)) - spec * phase)) < 1e-9

    def test_unit_impulse_at_origin_gives_flat_spectrum(self):
        data = np.zeros((5, 9))
        data[0, 0] = 1.0
        spec = spectrum(op_dft2((5, 9)).apply(data))
        assert np.max(np.abs(spec - 1.0)) < 1e-13

    def test_rejects_complex_grid_input(self):
        data = normal_stream(16, 1.0, 105).reshape(4, 4)
        with pytest.raises(ValidationError, match="^dft2: domain input must be real$"):
            op_dft2((4, 4)).apply(data.astype(complex))


def gather(data, xs, ys):
    """Bilinear values of ``data`` at (xs, ys), gathered through the stencil."""
    flat = data.ravel()
    return sum(w * flat[i] for i, w in zip(*_bilinear_stencil(data.shape, xs, ys)))


class TestBilinear:
    def test_exact_at_pixel_centers(self):
        data = normal_stream(30, 1.0, 110).reshape(5, 6)
        ys, xs = np.mgrid[0:5, 0:6]
        vals = gather(data, xs.astype(float), ys.astype(float))
        assert np.array_equal(vals, data)

    def test_midpoint_average(self):
        data = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert gather(data, 0.5, 0.5) == pytest.approx(3.0)
        assert gather(data, 0.5, 0.0) == pytest.approx(1.0)

    def test_zero_outside_grid(self):
        data = np.ones((4, 4))
        xs = np.array([-0.01, 3.01, 1.0])
        ys = np.array([1.0, 1.0, 4.5])
        assert np.array_equal(gather(data, xs, ys), np.zeros(3))

    def test_linear_ramp_reproduced(self):
        # bilinear interpolation is exact on a plane a + b x + c y
        ys, xs = np.mgrid[0:6, 0:7]
        data = 1.5 + 0.25 * xs + 2.0 * ys
        qx = np.linspace(0, 6, 23)
        qy = np.linspace(0, 5, 23)
        vals = gather(data, qx, qy)
        assert np.max(np.abs(vals - (1.5 + 0.25 * qx + 2.0 * qy))) < 1e-12

    def test_single_column_grid(self):
        data = np.array([[2.0], [4.0]])
        assert gather(data, 0.0, 0.5) == pytest.approx(3.0)


class TestRandomStreams:
    def test_uniform_deterministic_and_in_range(self):
        a = uniform_stream(1000, 42)
        b = uniform_stream(1000, 42)
        assert np.array_equal(a, b)
        assert np.all((a > 0.0) & (a < 1.0))

    def test_uniform_seed_sensitivity(self):
        assert not np.array_equal(uniform_stream(100, 1), uniform_stream(100, 2))

    def test_uniform_prefix_stability(self):
        # the stream is a pure function of (seed, index): prefixes agree
        assert np.array_equal(uniform_stream(200, 7)[:50], uniform_stream(50, 7))

    def test_uniform_moments(self):
        u = uniform_stream(200000, 11)
        assert abs(u.mean() - 0.5) < 2e-3
        assert abs(u.var() - 1.0 / 12.0) < 2e-3

    def test_normal_moments(self):
        z = normal_stream(200000, 2.0, 12)
        assert abs(z.mean()) < 2e-2
        assert abs(z.std() - 2.0) < 2e-2
        # fraction beyond 2 sigma close to the Gaussian tail mass
        frac = np.mean(np.abs(z) > 4.0)
        assert abs(frac - 0.0455) < 5e-3

    def test_normal_zero_sigma(self):
        assert np.array_equal(normal_stream(10, 0.0, 3), np.zeros(10))

    def test_normal_rejects_negative_sigma(self):
        with pytest.raises(ValidationError):
            normal_stream(4, -1.0, 0)

    def test_normal_odd_count(self):
        # odd lengths truncate the cos/sin pair layout without error
        assert normal_stream(7, 1.0, 5).shape == (7,)

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            uniform_stream(1, -1)
        with pytest.raises(ValidationError):
            uniform_stream(1, 1 << 64)
        with pytest.raises(ValidationError):
            uniform_stream(1, 9.0)
        assert np.array_equal(uniform_stream(50, np.uint64(9)), uniform_stream(50, 9))

    def test_bit_stream_matches_arbitrary_precision_reference(self):
        # pure python-int arithmetic, immune to wraparound mistakes
        def reference(seed, count):
            mask = (1 << 64) - 1
            out = []
            for i in range(1, count + 1):
                z = (seed + i * 0x9E3779B97F4A7C15) & mask
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                out.append(((z >> 11) + 0.5) * 2.0**-53)
            return np.array(out)

        for seed in (0, 1, 1234567, (1 << 64) - 3):
            assert np.array_equal(uniform_stream(20, seed), reference(seed, 20))

    def test_box_muller_layout(self):
        # documented layout: k pairs, cosine branch then sine branch, truncated
        u = uniform_stream(6, 21)
        radius = np.sqrt(-2.0 * np.log(u[:3]))
        angle = 2.0 * np.pi * u[3:]
        expected = 1.5 * np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:5]
        assert np.array_equal(normal_stream(5, 1.5, 21), expected)
