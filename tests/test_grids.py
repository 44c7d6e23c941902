"""The raster container, the DFT convention, interpolation, and the noise stream.

The DFT tests run ``op_dft2``, the package's one DFT, and compare it against
a direct O(N^2) evaluation of the defining sums, so the fast path is checked
against the formula rather than against itself.
"""

import numpy as np
import pytest

from reconkit import (
    GridImage,
    ValidationError,
    bilinear_values,
    gaussian_noise,
    normal_stream,
    op_dft2,
    uniform_stream,
)


def dft2_direct(data):
    """Defining double sum: X[k,l] = sum_{n,m} x[n,m] e^{-2πi(kn/H + lm/W)}."""
    h, w = data.shape
    n = np.arange(h)
    m = np.arange(w)
    ek = np.exp(-2j * np.pi * np.outer(np.arange(h), n) / h)
    el = np.exp(-2j * np.pi * np.outer(np.arange(w), m) / w)
    return ek @ data.astype(complex) @ el.T


class TestGridImage:
    def test_holds_float64_copy(self):
        raw = np.ones((3, 4), dtype=np.float32)
        img = GridImage(raw)
        assert img.data.dtype == np.float64
        raw[0, 0] = 7.0
        assert img.data[0, 0] == 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            GridImage(np.zeros(5))
        with pytest.raises(ValidationError):
            GridImage(np.zeros((2, 2, 2)))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            GridImage(bad)

    def test_width_height(self):
        img = GridImage(np.zeros((3, 5)))
        assert (img.height, img.width) == (3, 5)

    @pytest.mark.parametrize("cls, dtype", [(GridImage, np.float64)])
    def test_each_raster_names_itself_and_keeps_its_dtype(self, cls, dtype):
        name = cls.__name__
        assert cls(np.ones((2, 3), dtype=np.float32)).data.dtype == dtype
        with pytest.raises(ValidationError, match=rf"^{name}\.data must be a non-empty 2D array$"):
            cls(np.zeros(5))
        with pytest.raises(ValidationError, match=rf"^{name}\.data contains non-finite samples$"):
            cls(np.full((2, 2), np.inf))


class TestDft:
    def test_matches_direct_sum(self):
        data = normal_stream(48, 1.0, 101).reshape(6, 8)
        fast = op_dft2((6, 8)).apply(data)
        slow = dft2_direct(data)
        assert np.max(np.abs(fast - slow)) < 1e-9

    def test_inverse_round_trip(self):
        data = normal_stream(64, 1.0, 102).reshape(8, 8)
        dft = op_dft2((8, 8))
        back = dft.adjoint(dft.apply(data)) / 64.0
        assert np.max(np.abs(back - data)) < 1e-12

    def test_single_bin_inverse_is_unit_exponential(self):
        # one unit in bin (0, 1): inverse holds e^{i 2π n/8} / 64 along rows
        spec = np.zeros((8, 8), dtype=complex)
        spec[0, 1] = 1.0
        img = op_dft2((8, 8)).adjoint(spec) / 64.0
        cols = np.arange(8)
        expected = np.exp(2j * np.pi * cols / 8)[None, :] / 64.0 * np.ones((8, 1))
        assert np.max(np.abs(img - expected)) < 1e-14

    def test_parseval_with_forward_normalization(self):
        # unnormalized forward: sum |X|^2 = N * sum |x|^2
        data = normal_stream(60, 1.0, 103).reshape(6, 10)
        spec = op_dft2((6, 10)).apply(data)
        lhs = np.sum(np.abs(spec) ** 2)
        rhs = data.size * np.sum(data**2)
        assert abs(lhs - rhs) / rhs < 1e-12

    def test_shift_modulation_duality(self):
        # circular shift by (dy, dx) multiplies bin (k, l) by e^{-2πi(k dy/H + l dx/W)}
        data = normal_stream(64, 1.0, 104).reshape(8, 8)
        dy, dx = 3, 5
        shifted = np.roll(data, shift=(dy, dx), axis=(0, 1))
        dft = op_dft2((8, 8))
        spec = dft.apply(data)
        k = np.arange(8)[:, None]
        l = np.arange(8)[None, :]
        phase = np.exp(-2j * np.pi * (k * dy + l * dx) / 8.0)
        assert np.max(np.abs(dft.apply(shifted) - spec * phase)) < 1e-9

    def test_unit_impulse_at_origin_gives_flat_spectrum(self):
        data = np.zeros((5, 9))
        data[0, 0] = 1.0
        spec = op_dft2((5, 9)).apply(data)
        assert np.max(np.abs(spec - 1.0)) < 1e-13

    def test_accepts_complex_grid_input(self):
        data = normal_stream(16, 1.0, 105).reshape(4, 4)
        spec = op_dft2((4, 4)).apply(data.astype(complex))
        assert np.max(np.abs(spec - dft2_direct(data))) < 1e-10


class TestBilinear:
    def test_exact_at_pixel_centers(self):
        data = normal_stream(30, 1.0, 110).reshape(5, 6)
        ys, xs = np.mgrid[0:5, 0:6]
        vals = bilinear_values(data, xs.astype(float), ys.astype(float))
        assert np.array_equal(vals, data)

    def test_midpoint_average(self):
        data = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert bilinear_values(GridImage(data), 0.5, 0.5) == pytest.approx(3.0)
        assert bilinear_values(GridImage(data), 0.5, 0.0) == pytest.approx(1.0)

    def test_zero_outside_grid(self):
        data = np.ones((4, 4))
        xs = np.array([-0.01, 3.01, 1.0])
        ys = np.array([1.0, 1.0, 4.5])
        assert np.array_equal(bilinear_values(data, xs, ys), np.zeros(3))

    def test_linear_ramp_reproduced(self):
        # bilinear interpolation is exact on a plane a + b x + c y
        ys, xs = np.mgrid[0:6, 0:7]
        data = 1.5 + 0.25 * xs + 2.0 * ys
        qx = np.linspace(0, 6, 23)
        qy = np.linspace(0, 5, 23)
        vals = bilinear_values(data, qx, qy)
        assert np.max(np.abs(vals - (1.5 + 0.25 * qx + 2.0 * qy))) < 1e-12

    def test_single_column_grid(self):
        data = np.array([[2.0], [4.0]])
        assert bilinear_values(GridImage(data), 0.0, 0.5) == pytest.approx(3.0)

    def test_complex_lookup_is_the_real_and_imaginary_lookups(self):
        re = normal_stream(30, 1.0, 111).reshape(5, 6)
        im = normal_stream(30, 1.0, 112).reshape(5, 6)
        xs = np.linspace(-0.5, 5.5, 17)
        ys = np.linspace(4.5, -0.5, 17)
        joint = bilinear_values(re + 1j * im, xs, ys)
        parts = bilinear_values(re, xs, ys) + 1j * bilinear_values(im, xs, ys)
        assert np.array_equal(joint, parts)

    def test_rejects_a_grid_that_is_not_2d(self):
        with pytest.raises(ValidationError, match="2D grid"):
            bilinear_values(np.zeros(4), 1.0, 0.0)


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

    def test_gaussian_noise_shape_and_determinism(self):
        g1 = gaussian_noise((4, 6), 0.5, 77)
        g2 = gaussian_noise((4, 6), 0.5, 77)
        assert g1.data.shape == (4, 6)
        assert np.array_equal(g1.data, g2.data)

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
