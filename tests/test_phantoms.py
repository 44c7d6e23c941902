"""Phantoms, blur kernels, metrics, and the compressibility study.

scipy.special supplies the Bessel oracle; everything else is checked against
closed forms or frozen measurements.
"""

import numpy as np
import pytest
import scipy.special

from reconkit import (
    SHEPP_LOGAN,
    Ellipse,
    RadonGeometry,
    ValidationError,
    airy_psf,
    analytic_sinogram,
    compressibility_study,
    gaussian_kernel,
    op_dct8,
    op_haar,
    render,
    shepp_logan,
    snr_db,
)
from reconkit.phantoms import _bessel_j1


class TestShepp:
    def test_center_is_the_skull_plus_brain_intensity(self):
        # near the origin only the skull (2.0) and brain (-0.98) ellipses overlap
        for size in (64, 128, 256):
            c = size // 2
            assert shepp_logan(size)[c, c] == pytest.approx(1.02)
        assert render(SHEPP_LOGAN, 33)[16, 16] == pytest.approx(1.02)  # pixel 16 is the origin

    def test_corners_zero_and_range(self):
        img = shepp_logan(64)
        assert img[0, 0] == img[0, -1] == img[-1, 0] == img[-1, -1] == 0.0
        assert img.min() >= 0.0
        assert img.max() == pytest.approx(2.0)

    def test_downsampling_consistency(self):
        # box-downsampled 128 rendering equals the 64 rendering exactly on
        # pixels whose neighborhood is constant; boundary pixels carry the
        # whole difference (measured 0.16 relative, frozen below 0.2)
        big = shepp_logan(128)
        small = shepp_logan(64)
        ds = 0.25 * (big[0::2, 0::2] + big[1::2, 0::2] + big[0::2, 1::2] + big[1::2, 1::2])
        pad = np.pad(small, 1, mode="edge")
        flat = np.ones_like(small, dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                flat &= pad[1 + dy : 65 + dy, 1 + dx : 65 + dx] == small
        assert flat.sum() > small.size // 2
        assert np.array_equal(ds[flat], small[flat])
        assert np.linalg.norm(ds - small) / np.linalg.norm(small) < 0.2

    def test_size_validation(self):
        with pytest.raises(ValidationError):
            shepp_logan(16)

    def test_render_respects_rotation(self):
        # at size 33 pixel 16 sits on the origin and pixel 16 + k at k * 2 / 33
        tilted = (Ellipse(0.0, 0.0, 0.5, 0.1, np.pi / 4, 1.0),)
        img = render(tilted, 33)
        assert img[16 + 4, 16 + 4] == 1.0  # on the major axis, 0.34 from the center
        assert img[16 - 4, 16 + 4] == 0.0  # on the minor axis, as far out

    def test_ellipse_validation(self):
        with pytest.raises(ValidationError):
            Ellipse(0.0, 0.0, -1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            Ellipse(0.0, np.nan, 1.0, 1.0, 0.0, 1.0)

    def test_empty_phantom_gives_zeros(self):
        assert np.array_equal(render((), 8), np.zeros((8, 8)))
        sino = analytic_sinogram((), RadonGeometry(3, 5), 8)
        assert sino.dtype == np.float64 and np.array_equal(sino, np.zeros((3, 5)))


class TestAnalyticLineIntegrals:
    def test_additive_over_ellipses(self):
        e1 = Ellipse(0.1, -0.2, 0.5, 0.3, 0.4, 1.5)
        e2 = Ellipse(-0.3, 0.1, 0.2, 0.6, -0.7, -0.8)
        geom = RadonGeometry(9, 24)
        s1 = analytic_sinogram((e1,), geom, 32)
        s2 = analytic_sinogram((e2,), geom, 32)
        s12 = analytic_sinogram((e1, e2), geom, 32)
        assert np.allclose(s12, s1 + s2, atol=1e-12)

    def test_generator_phantom_matches_its_tuple(self):
        # every view walks the whole phantom, so a one-shot iterable must not
        # leave the later views empty
        geom = RadonGeometry(7, 24)
        from_tuple = analytic_sinogram(SHEPP_LOGAN, geom, 32)
        from_generator = analytic_sinogram((e for e in SHEPP_LOGAN), geom, 32)
        assert np.array_equal(from_generator, from_tuple)
        assert np.all(from_tuple[1:].max(axis=1) > 0.0)

    def test_tangent_ray_integrates_to_zero(self):
        # disk of radius 0.5 in [-1,1] maps to 16 pixels on a 64 grid;
        # a detector at offset 16 px is tangent
        disk = (Ellipse(0.0, 0.0, 0.5, 0.5, 0.0, 1.0),)
        geom = RadonGeometry(1, 65)
        sino = analytic_sinogram(disk, geom, 64)[0]
        centre = (65 - 1) // 2
        assert sino[centre] == pytest.approx(2.0 * 0.5 * 32.0, rel=1e-12)
        assert sino[centre + 16] == 0.0
        assert sino[centre + 17] == 0.0


class TestAiry:
    def test_center_is_maximum(self):
        psf = airy_psf(64, 0.2)
        assert psf.max() == psf[32, 32]
        assert np.all(psf >= 0.0)

    def test_unit_sum_and_symmetry(self):
        psf = airy_psf(65, 0.15)
        assert psf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(psf, psf.T, atol=1e-15)
        assert np.allclose(psf, psf[::-1, ::-1], atol=1e-15)

    def test_spectrum_low_pass(self):
        # frozen: energy two cutoffs out is ~6e-6 of DC, bound at 1%
        psf = airy_psf(256, 0.1)
        spec = np.abs(np.fft.fft2(psf))
        fy = np.fft.fftfreq(256)[:, None]
        fx = np.fft.fftfreq(256)[None, :]
        beyond = spec[np.hypot(fy, fx) > 0.2]
        assert np.max(beyond) < 0.01 * spec[0, 0]

    def test_cutoff_validation(self):
        with pytest.raises(ValidationError):
            airy_psf(64, 0.0)
        with pytest.raises(ValidationError):
            airy_psf(64, 0.6)

    def test_bessel_j1_against_scipy(self):
        x = np.linspace(0.0, 60.0, 120001)
        assert np.max(np.abs(_bessel_j1(x) - scipy.special.j1(x))) < 1e-7
        neg = np.linspace(-30.0, 0.0, 30001)
        assert np.max(np.abs(_bessel_j1(neg) - scipy.special.j1(neg))) < 1e-7


class TestGaussianKernel:
    def test_normalized_symmetric_peaked(self):
        k = gaussian_kernel(5, 1.0)
        assert k.shape == (5, 5)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, k.T) and np.allclose(k, k[::-1, ::-1])
        assert k[2, 2] == k.max()

    def test_validation(self):
        with pytest.raises(ValidationError):
            gaussian_kernel(4, 1.0)  # needs an odd size
        with pytest.raises(ValidationError):
            gaussian_kernel(5, 0.0)


class TestMetrics:
    def test_snr_exact_gives_inf(self):
        t = np.arange(6.0).reshape(2, 3)
        assert np.isinf(snr_db(t, t.copy()))

    def test_snr_zero_estimate_gives_zero_db(self):
        t = np.array([3.0, -4.0])
        assert snr_db(t, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_snr_closed_form(self):
        t = np.zeros(16)
        t[0] = 1.0
        e = t.copy()
        e[1] = 0.1  # error power exactly 0.01 * ||t||^2
        assert snr_db(t, e) == pytest.approx(20.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            snr_db(np.zeros(3), np.zeros(4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_snr_of_a_zero_truth_is_minus_inf_without_a_warning(self):
        assert snr_db(np.zeros((4, 4)), np.ones((4, 4))) == -np.inf


class TestCompressibility:
    def test_full_fraction_round_trips(self):
        img = shepp_logan(64)
        for transform in ("haar", "dct8", "dft"):
            rows = compressibility_study(img, transform, [1.0])
            assert rows[0][1] > 250.0  # exact up to round-off

    def test_monotone_in_fraction(self):
        img = shepp_logan(64)
        for transform in ("haar", "dct8"):
            rows = compressibility_study(img, transform, [0.01, 0.05, 0.1])
            snrs = [s for _, s in rows]
            assert snrs[0] < snrs[1] < snrs[2]

    def test_haar_quality_floor(self):
        # frozen: measured 67 dB at 5% on the 256 rendering; floor at 25
        rows = compressibility_study(shepp_logan(256), "haar", [0.05])
        assert rows[0][1] >= 25.0

    def test_parseval_tie_out(self):
        # for an orthonormal transform the reconstruction SNR is exactly
        # -10 log10(1 - retained energy fraction)
        img = shepp_logan(64)
        for transform, coeffs in (
            ("haar", op_haar(img.shape, 4).apply(img)),
            ("dct8", op_dct8(img.shape).apply(img)),
        ):
            rows = compressibility_study(img, transform, [0.05])
            flat = np.abs(coeffs.ravel())
            order = np.argsort(-flat, kind="stable")
            k = max(1, int(round(0.05 * flat.size)))
            retained = np.sum(flat[order[:k]] ** 2) / np.sum(flat**2)
            expected = -10.0 * np.log10(1.0 - retained)
            assert abs(rows[0][1] - expected) < 1e-6

    @pytest.mark.parametrize("size", [128, 96])
    def test_dft_rows_match_a_direct_fft_reference(self, size):
        # keep the largest complex magnitudes of np.fft.fft2, in a stable
        # ranking, and score ifft2(...).real; the operator route scales by
        # 1 / sqrt(H W), exact when that is a power of two
        img = shepp_logan(size)
        fractions = (0.01, 0.05, 0.1, 0.25, 1.0)
        spectrum = np.fft.fft2(img).ravel()
        order = np.argsort(-np.abs(spectrum), kind="stable")
        want = []
        for fr in fractions:
            k = max(1, int(round(fr * spectrum.size)))
            kept = np.zeros_like(spectrum)
            kept[order[:k]] = spectrum[order[:k]]
            want.append(snr_db(img, np.fft.ifft2(kept.reshape(img.shape)).real))
        got = [snr for _, snr in compressibility_study(img, "dft", fractions)]
        if size == 128:
            assert got == want
        else:
            # full keep is exact only up to roundoff, near 300 dB either way
            assert got[-1] > 250.0 and want[-1] > 250.0
            for g, w in zip(got[:-1], want[:-1]):
                assert abs(g - w) <= 1e-12 * abs(w)

    def test_validation(self):
        img = shepp_logan(32)
        with pytest.raises(ValidationError):
            compressibility_study(img, "haar", [])
        with pytest.raises(ValidationError):
            compressibility_study(img, "haar", [0.0])
        with pytest.raises(ValidationError):
            compressibility_study(img, "wavelet", [0.1])


    @pytest.mark.parametrize("transform", ["haar", "dct8", "dft"])
    def test_takes_a_bare_array(self, transform):
        ys, xs = np.mgrid[0:32, 0:32]
        img = np.cos(xs / 5.0) * np.sin(ys / 3.0) + (xs > ys)
        rows = compressibility_study(img, transform, [0.05, 0.25, 1.0])
        snrs = [snr for _, snr in rows]
        assert [fr for fr, _ in rows] == [0.05, 0.25, 1.0]
        assert 0.0 < snrs[0] < snrs[1] < snrs[2]
        assert snrs[2] > 200.0  # every coefficient kept: exact up to roundoff
