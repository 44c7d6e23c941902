"""Direct reconstruction: FBP, Wiener/MMSE, and the zero-filled inverse DFT.

FBP quality thresholds are regression bounds measured once with this
pipeline and frozen; the Wiener tests use dense linear-algebra oracles.
"""

import numpy as np
import pytest

from reconkit import (
    SHEPP_LOGAN,
    Ellipse,
    RadonGeometry,
    ValidationError,
    analytic_sinogram,
    embed_kernel,
    fbp,
    normal_stream,
    op_compose,
    op_convolve,
    op_dft2,
    op_mask,
    random_mask,
    render,
    shepp_logan,
    snr_db,
    wiener_deconvolve,
)

DISK = (Ellipse(0.0, 0.0, 0.6, 0.6, 0.0, 1.0),)


class TestFbp:
    def test_zero_sinogram_gives_zero_image(self):
        geom = RadonGeometry(4, 16)
        assert np.array_equal(fbp(np.zeros((4, 16)), geom), np.zeros((16, 16)))

    def test_empty_sinogram_rejected(self):
        with pytest.raises(ValidationError):
            fbp(np.zeros((0, 16)), RadonGeometry(1, 16))

    def test_linearity(self):
        geom = RadonGeometry(12, 32)
        s1 = analytic_sinogram(DISK, geom, 32)
        s2 = analytic_sinogram((Ellipse(0.2, -0.1, 0.3, 0.5, 0.4, 2.0),), geom, 32)
        lhs = fbp(2.0 * s1 - 0.5 * s2, geom)
        rhs = 2.0 * fbp(s1, geom) - 0.5 * fbp(s2, geom)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))

    def test_disk_quality_floor(self):
        # regression bound: 20.41 dB measured at 256^2, frozen at >= 20
        size = 256
        truth = render(DISK, size)
        geom = RadonGeometry(360, size)
        assert snr_db(truth, fbp(analytic_sinogram(DISK, geom, size), geom)) >= 20.0

    def test_view_doubling_strictly_improves(self):
        size = 128
        truth = shepp_logan(size)
        snrs = []
        for n_angles in (90, 180, 360):
            geom = RadonGeometry(n_angles, size)
            snrs.append(snr_db(truth, fbp(analytic_sinogram(SHEPP_LOGAN, geom, size), geom)))
        assert snrs[0] < snrs[1] < snrs[2]

    def test_default_output_square_on_detector_grid(self):
        geom = RadonGeometry(8, 40)
        img = fbp(analytic_sinogram(DISK, geom, 40), geom)
        assert img.shape == (40, 40)

    def test_out_shape_respected(self):
        geom = RadonGeometry(8, 32)
        img = fbp(analytic_sinogram(DISK, geom, 32), geom, out_shape=(20, 24))
        assert img.shape == (20, 24)

    def test_detector_pitch_consistency(self):
        # the same object sampled with a finer detector pitch reconstructs
        # to comparable absolute values (the 1/pitch in filtering compensates)
        size = 64
        truth = render(DISK, size)
        g1, g2 = RadonGeometry(90, size, 1.0), RadonGeometry(90, 2 * size, 0.5)
        r1 = fbp(analytic_sinogram(DISK, g1, size), g1, out_shape=(size, size))
        r2 = fbp(analytic_sinogram(DISK, g2, size), g2, out_shape=(size, size))
        assert snr_db(truth, r1) > 15.0
        assert snr_db(truth, r2) > 15.0
        assert abs(r1.mean() - r2.mean()) / abs(r1.mean()) < 0.05


def circulant_covariance(prior_spectrum):
    """Dense symmetric PSD matrix diagonalized by the 2D DFT."""
    h, w = prior_spectrum.shape
    n = h * w
    c = np.zeros((n, n))
    e = np.zeros((h, w))
    for j in range(n):
        e.flat[j] = 1.0
        col = np.fft.ifft2(prior_spectrum * np.fft.fft2(e))
        c[:, j] = col.real.ravel()
        e.flat[j] = 0.0
    return c


class TestWiener:
    def test_noiseless_exact_inverse(self):
        img = shepp_logan(32)
        kernel = embed_kernel(np.array([[0.6, 0.25], [0.1, 0.05]]), (32, 32))
        blurred = op_convolve(kernel).apply(img)
        prior = np.ones((32, 32))
        est = wiener_deconvolve(blurred, kernel, 0.0, prior)
        rel = np.linalg.norm(est - img) / np.linalg.norm(img)
        assert rel < 1e-8

    def test_sigma_zero_singular_kernel_raises(self):
        # a two-tap average has an exact spectral zero at the Nyquist column
        kernel = np.zeros((16, 16))
        kernel[0, 0] = 0.5
        kernel[0, 1] = 0.5
        g = np.ones((16, 16))
        with pytest.raises(ValidationError, match="zero bins"):
            wiener_deconvolve(g, kernel, 0.0, np.ones((16, 16)))

    def test_large_sigma_shrinks_to_zero(self):
        img = shepp_logan(32)
        kernel = embed_kernel(np.ones((3, 3)) / 9.0, (32, 32))
        blurred = op_convolve(kernel).apply(img)
        est = wiener_deconvolve(blurred, kernel, 1e8, np.ones((32, 32)))
        assert np.max(np.abs(est)) < 1e-10

    def test_matches_dense_map_oracle(self):
        # MAP form (H*H + s^2 C^-1)^-1 H* g against the per-bin gain formula
        h, w = 16, 16
        kernel = embed_kernel(normal_stream(9, 1.0, 430).reshape(3, 3), (h, w))
        base = normal_stream(h * w, 1.0, 431).reshape(h, w)
        prior = np.abs(np.fft.fft2(base)) ** 2 / (h * w) + 0.5  # symmetric positive
        g = normal_stream(h * w, 1.0, 432).reshape(h, w)
        sigma = 0.35

        est = wiener_deconvolve(g, kernel, sigma, prior)

        hmat = np.zeros((h * w, h * w))
        e = np.zeros((h, w))
        conv = op_convolve(kernel)
        for j in range(h * w):
            e.flat[j] = 1.0
            hmat[:, j] = conv.apply(e).ravel()
            e.flat[j] = 0.0
        cmat = circulant_covariance(prior)
        lhs = hmat.T @ hmat + sigma**2 * np.linalg.inv(cmat)
        dense = np.linalg.solve(lhs, hmat.T @ g.ravel())
        rel = np.linalg.norm(est.ravel() - dense) / np.linalg.norm(dense)
        assert rel < 1e-8

    def test_satisfies_normal_equation(self):
        # the estimate solves H* g = (H* H + s^2 C^-1) f on dense instances
        for trial, n in ((0, 4), (1, 5)):
            hk = normal_stream(4, 1.0, 440 + trial).reshape(2, 2)
            kernel = embed_kernel(hk, (n, n))
            base = normal_stream(n * n, 1.0, 450 + trial).reshape(n, n)
            prior = np.abs(np.fft.fft2(base)) ** 2 / (n * n) + 1.0
            g = normal_stream(n * n, 1.0, 460 + trial).reshape(n, n)
            sigma = 0.5
            est = wiener_deconvolve(g, kernel, sigma, prior).ravel()

            conv = op_convolve(kernel)
            hmat = np.zeros((n * n, n * n))
            e = np.zeros((n, n))
            for j in range(n * n):
                e.flat[j] = 1.0
                hmat[:, j] = conv.apply(e).ravel()
                e.flat[j] = 0.0
            cmat = circulant_covariance(prior)
            lhs = (hmat.T @ hmat + sigma**2 * np.linalg.inv(cmat)) @ est
            rhs = hmat.T @ g.ravel()
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-7

    def test_noise_amplification_near_singular(self):
        # deconvolving a 9x9 box blur multiplies noise enormously
        size = 64
        img = shepp_logan(size)
        kernel = embed_kernel(np.ones((9, 9)) / 81.0, (size, size))
        clean = op_convolve(kernel).apply(img)
        noise = normal_stream(size * size, 1e-3, 99).reshape(size, size)
        est = wiener_deconvolve(clean + noise, kernel, 0.0, np.ones((size, size)))
        amplification = np.linalg.norm(est - img) / np.linalg.norm(noise)
        assert amplification > 10.0

    def test_validation(self):
        g = np.ones((8, 8))
        with pytest.raises(ValidationError):
            wiener_deconvolve(g, np.ones((4, 4)), -1.0, np.ones((8, 8)))
        with pytest.raises(ValidationError):
            wiener_deconvolve(g, np.ones((8, 8)), 0.1, np.zeros((8, 8)))  # prior not > 0
        with pytest.raises(ValidationError):
            wiener_deconvolve(g, np.ones((8, 8)), 0.1, np.ones((4, 4)))  # wrong grid


def masked_dft(mask):
    """The undersampled-spectrum model: the DFT, then the mask on both of its parts."""
    return op_compose(op_mask(np.stack([mask, mask])), op_dft2(mask.shape))


def zero_filled_inverse(values, mask):
    """The zero-filled inverse DFT: the masked DFT's adjoint over H W."""
    return masked_dft(mask).adjoint(values) / mask.size


class TestZerofill:
    def test_full_mask_round_trip(self):
        img = shepp_logan(32)
        mask = np.ones((32, 32), dtype=bool)
        recon = zero_filled_inverse(masked_dft(mask).apply(img), mask)
        assert np.max(np.abs(recon - img)) < 1e-10

    def test_band_limited_exact_recovery(self):
        # an image synthesized from in-band bins only is recovered exactly
        # from those bins
        h, w = 16, 16
        keep = np.zeros((h, w), dtype=bool)
        keep[:3, :4] = True
        keep[-2:, -3:] = True
        spec = np.zeros((h, w), dtype=complex)
        vals = normal_stream(2 * keep.sum(), 1.0, 470)
        spec[keep] = vals[: keep.sum()] + 1j * vals[keep.sum() :]
        # realifying the image spreads each bin onto its Hermitian mirror,
        # so keep the union of the band and its mirror
        full = np.fft.fft2(np.fft.ifft2(spec).real)
        img = np.fft.ifft2(full).real
        mirror = np.zeros((h, w), dtype=bool)
        ys, xs = np.nonzero(keep)
        mirror[(-ys) % h, (-xs) % w] = True
        mask = keep | mirror
        recon = zero_filled_inverse(np.concatenate([full.real[mask], full.imag[mask]]), mask)
        assert np.max(np.abs(recon - img)) < 1e-10

    def test_quarter_mask_below_full(self):
        img = shepp_logan(64)
        full_mask = np.ones((64, 64), dtype=bool)
        full = zero_filled_inverse(masked_dft(full_mask).apply(img), full_mask)
        part = random_mask((64, 64), 0.25, seed=12)
        part_snr = snr_db(img, zero_filled_inverse(masked_dft(part).apply(img), part))
        full_snr = snr_db(img, full)
        assert full_snr > 300.0  # recovery to round-off
        assert part_snr < 30.0
        assert part_snr < full_snr

    def test_count_mismatch_rejected(self):
        mask = random_mask((8, 8), 0.5, seed=1)
        with pytest.raises(ValidationError):
            zero_filled_inverse(np.ones(2 * np.count_nonzero(mask) + 1), mask)
