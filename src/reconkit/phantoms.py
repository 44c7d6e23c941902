"""Analytic phantoms, degradation pipelines, and benchmark metrics.

A phantom is a tuple of ``Ellipse``, defined on the unit square [-1, 1]^2
with the +y axis along the row axis (pointing down), matching the
ray-transform convention; overlapping intensities add.  It is rendered by
point evaluation at pixel centers.

``_blur_then_mask`` is the one measurement model (circular blur, then the
sampling mask): ``degrade`` returns it with its measurements, and the CLI
builds the operator it simulates and reconstructs with through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import _FINITE, _FRACTION, _NONNEGATIVE, _POSITIVE, _count, _number, _raster, _real
from .grids import gaussian_noise, normal_stream, uniform_stream
from .operators import (
    LinearMap,
    RadonGeometry,
    embed_kernel,
    op_compose,
    op_convolve,
    op_mask,
    op_matrix,
    transform_dct8,
    transform_haar,
)

__all__ = [
    "Ellipse",
    "SHEPP_LOGAN",
    "render",
    "shepp_logan",
    "point_eval",
    "analytic_sinogram",
    "airy_psf",
    "bessel_j1",
    "Degraded",
    "degrade",
    "gaussian_kernel",
    "snr_db",
    "compressibility_study",
    "SparseInstance",
    "sparse_recovery_instance",
]


@dataclass(frozen=True)
class Ellipse:
    """One additive ellipse: center, semi-axes, rotation (radians), intensity."""

    cx: float
    cy: float
    a: float
    b: float
    phi: float
    rho: float

    def __post_init__(self):
        for name in ("cx", "cy", "a", "b", "phi", "rho"):
            rule = _POSITIVE if name in ("a", "b") else _FINITE
            _number(getattr(self, name), f"Ellipse {name}", rule)


# The standard Shepp and Logan (1974) ten-ellipse head set, parameters as
# tabulated by Kak and Slaney: (cx, cy, a, b, rotation in degrees, intensity).
_SHEPP_LOGAN_TABLE = (
    (0.0, 0.0, 0.69, 0.92, 0.0, 2.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0, -0.98),
    (0.22, 0.0, 0.11, 0.31, -18.0, -0.02),
    (-0.22, 0.0, 0.16, 0.41, 18.0, -0.02),
    (0.0, 0.35, 0.21, 0.25, 0.0, 0.01),
    (0.0, 0.1, 0.046, 0.046, 0.0, 0.01),
    (0.0, -0.1, 0.046, 0.046, 0.0, 0.01),
    (-0.08, -0.605, 0.046, 0.023, 0.0, 0.01),
    (0.0, -0.605, 0.023, 0.023, 0.0, 0.01),
    (0.06, -0.605, 0.023, 0.046, 0.0, 0.01),
)

SHEPP_LOGAN = tuple(
    Ellipse(cx, cy, a, b, np.deg2rad(deg), rho) for cx, cy, a, b, deg, rho in _SHEPP_LOGAN_TABLE
)


def point_eval(phantom, x, y):
    """Sum of the intensities of the phantom's ellipses covering the point(s) (x, y).

    ``phantom`` is any iterable of ``Ellipse``; (x, y) are in unit coords.
    """
    x = _real(x, "point_eval x")
    y = _real(y, "point_eval y")
    total = np.zeros(np.broadcast(x, y).shape, dtype=np.float64)
    for e in phantom:
        dx = x - e.cx
        dy = y - e.cy
        cos_p, sin_p = np.cos(e.phi), np.sin(e.phi)
        u = (dx * cos_p + dy * sin_p) / e.a
        v = (-dx * sin_p + dy * cos_p) / e.b
        total += np.where(u * u + v * v <= 1.0, e.rho, 0.0)
    if total.ndim == 0:
        return float(total)
    return total


def render(phantom, size: int) -> np.ndarray:
    """Evaluate the phantom at pixel centers of a size x size grid.

    An empty phantom renders zeros.
    """
    size = _count(size, "render size", 2)
    coords = (np.arange(size) - (size - 1) / 2.0) * (2.0 / size)
    xs = coords[None, :]
    ys = coords[:, None]
    return point_eval(phantom, xs, ys)


def shepp_logan(size: int) -> np.ndarray:
    """The standard head phantom rendered at the requested size."""
    return render(SHEPP_LOGAN, _count(size, "shepp_logan size", 32))


def analytic_sinogram(phantom, geometry: RadonGeometry, image_size: int) -> np.ndarray:
    """Exact line integrals of the phantom, in pixel units of an image_size grid.

    Returns the ``(n_angles, n_detectors)`` sinogram raster of ``geometry``,
    the raster ``op_radon(geometry, (image_size, image_size))`` approximates;
    an empty phantom gives zeros.

    The chord of an ellipse along the line at angle t and offset s is
    2 a b sqrt(q - s'^2) / q with q = a^2 cos^2(t - phi) + b^2 sin^2(t - phi)
    and s' the offset measured from the ellipse center; intensities add.
    """
    image_size = _count(image_size, "analytic_sinogram image_size", 2)
    phantom = tuple(phantom)  # walked once per view
    scale = image_size / 2.0  # pixels per phantom unit
    offs = geometry.offsets / scale
    data = np.zeros((geometry.n_angles, geometry.n_detectors), dtype=np.float64)
    for i, theta in enumerate(geometry.angles):
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        row = np.zeros_like(offs)
        for e in phantom:
            t_rel = theta - e.phi
            q = (e.a * np.cos(t_rel)) ** 2 + (e.b * np.sin(t_rel)) ** 2
            s_rel = offs - (e.cx * cos_t + e.cy * sin_t)
            under = q - s_rel**2
            chord = np.where(under > 0.0, 2.0 * e.a * e.b * np.sqrt(np.maximum(under, 0.0)) / q, 0.0)
            row += e.rho * chord
        data[i] = row * scale
    return data


# ---------------------------------------------------------------------------
# Diffraction-limited point spread
# ---------------------------------------------------------------------------


def bessel_j1(x) -> np.ndarray:
    """Bessel function of the first kind, order one.

    Rational approximation below |x| = 8 and the asymptotic cosine form
    above it (Abramowitz and Stegun 9.4.4 / 9.4.6 coefficients); absolute
    error stays below 1e-7.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    small = ax < 8.0

    y = x * x
    num = x * (
        72362614232.0
        + y
        * (
            -7895059235.0
            + y * (242396853.1 + y * (-2972611.439 + y * (15704.48260 + y * (-30.16036606))))
        )
    )
    den = 144725228442.0 + y * (
        2300535178.0 + y * (18583304.74 + y * (99447.43394 + y * (376.9991397 + y)))
    )
    small_val = num / den

    axs = np.where(small, 8.0, ax)  # avoid dividing by tiny ax in the unused branch
    z = 8.0 / axs
    y2 = z * z
    xx = axs - 2.356194491
    p1 = 1.0 + y2 * (
        0.183105e-2 + y2 * (-0.3516396496e-4 + y2 * (0.2457520174e-5 + y2 * (-0.240337019e-6)))
    )
    p2 = 0.04687499995 + y2 * (
        -0.2002690873e-3 + y2 * (0.8449199096e-5 + y2 * (-0.88228987e-6 + y2 * 0.105787412e-6))
    )
    large_val = np.sqrt(0.636619772 / axs) * (np.cos(xx) * p1 - z * np.sin(xx) * p2) * np.sign(x)

    out = np.where(small, small_val, large_val)
    if out.ndim == 0:
        return float(out)
    return out


# the cutoff's rule, which degradation.airy_cutoff reads too
_AIRY_CUTOFF = (lambda v: 0.0 < v <= 0.5, "must lie in (0, 0.5] cycles per pixel")


def airy_psf(size: int, cutoff: float) -> np.ndarray:
    """Diffraction point-spread (2 J1(r) / r)^2 with a chosen spectral cutoff.

    ``cutoff`` is the radial frequency (cycles per pixel) where the kernel's
    spectrum reaches its first zero; the radial argument is scaled as
    r = pi * cutoff * distance.  The kernel is normalized to unit sum and its
    center sample carries the r -> 0 limit, 1, before normalization.
    """
    size = _count(size, "airy_psf size")
    cutoff = _number(cutoff, "airy_psf cutoff", _AIRY_CUTOFF)
    center = (size - 1) / 2.0
    coords = np.arange(size) - center
    rr = np.hypot(coords[None, :], coords[:, None])
    r = np.pi * cutoff * rr
    safe = np.where(r < 1e-12, 1.0, r)
    amp = np.where(r < 1e-12, 1.0, 2.0 * bessel_j1(safe) / safe)
    kernel = amp**2
    return kernel / kernel.sum()


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Separable Gaussian blur kernel, normalized to unit sum."""
    size = _count(size, "gaussian_kernel size")
    if size % 2 == 0:
        raise ValidationError("gaussian_kernel size must be odd")
    sigma = _number(sigma, "gaussian_kernel sigma", _POSITIVE)
    coords = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-0.5 * (coords / sigma) ** 2)
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


# ---------------------------------------------------------------------------
# Degradation pipeline
# ---------------------------------------------------------------------------


@dataclass
class Degraded:
    """Measurements from blur + mask + noise, with the operator that made them."""

    measurements: np.ndarray
    op: LinearMap
    mask: np.ndarray
    sigma: float
    clean: np.ndarray
    measurement_snr_db: float


def _blur_then_mask(kernel: np.ndarray, mask: np.ndarray) -> LinearMap:
    """The measurement model: circular blur by an embedded kernel, then the mask."""
    return op_compose(op_mask(mask), op_convolve(kernel))


def degrade(img, blur_kernel, mask, sigma: float, seed) -> Degraded:
    """Blur circularly, subsample through the mask, add seeded white noise.

    ``img`` is a raster and ``mask`` a raster of its shape, read as bool.
    ``blur_kernel`` is a small centered kernel; it is embedded on the image
    grid with its center at the origin so the blur does not shift content.
    The returned operator, mask after blur, is ready for reconstruction.
    """
    data = _raster(img, "degrade")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != data.shape:
        raise ValidationError("mask shape must match the image")
    kernel = embed_kernel(blur_kernel, data.shape)
    op = _blur_then_mask(kernel, mask)
    return _add_noise(op.apply(data), op, mask, sigma, seed)


def _add_noise(clean, op: LinearMap, mask: np.ndarray, sigma: float, seed) -> Degraded:
    """The noise half of ``degrade``, for clean measurements ``op`` already made.

    The noise is a seeded raster over the whole grid, sampled through the
    boolean ``mask`` in flat order, as ``op`` samples the image.
    """
    sigma = _number(sigma, "degrade sigma", _NONNEGATIVE)
    measurements = clean + gaussian_noise(mask.shape, sigma, seed)[mask]
    return Degraded(
        measurements=measurements,
        op=op,
        mask=mask,
        sigma=sigma,
        clean=clean,
        measurement_snr_db=snr_db(clean, measurements),
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def snr_db(truth, estimate) -> float:
    """10 log10(||truth||^2 / ||truth - estimate||^2); +inf when exact, -inf for a zero truth."""
    t = _real(truth, "snr_db truth")
    e = _real(estimate, "snr_db estimate")
    if t.shape != e.shape:
        raise ValidationError(f"snr_db shape mismatch: {t.shape} vs {e.shape}")
    if t.size == 0:
        raise ValidationError("snr_db needs at least one sample")
    err = float(np.vdot(t - e, t - e))
    sig = float(np.vdot(t, t))
    if err == 0.0:
        return np.inf
    ratio = sig / err
    # a zero truth (or a ratio that underflows) has no finite SNR, and log10(0) warns
    return 10.0 * np.log10(ratio) if ratio > 0.0 else -np.inf


# ---------------------------------------------------------------------------
# Transform-domain compressibility
# ---------------------------------------------------------------------------


# transform name -> (analysis of an image, synthesis of its coefficients), both
# given the Haar level count; compress-study's "all" runs them in this order
_TRANSFORMS = {
    "haar": (
        lambda img, levels: transform_haar(img, levels),
        lambda c, levels: transform_haar(c, levels, inverse=True),
    ),
    "dct8": (
        lambda img, levels: transform_dct8(img),
        lambda c, levels: transform_dct8(c, inverse=True),
    ),
    "dft": (lambda img, levels: np.fft.fft2(img), lambda c, levels: np.fft.ifft2(c).real),
}


def compressibility_study(
    img, transform: str = "haar", keep_fractions=(0.01, 0.05, 0.1, 0.25), levels: int = 4
):
    """Keep the largest-magnitude fraction of coefficients, invert, and score.

    ``img`` is a raster.  Returns [(fraction, snr_db)] rows.  Transforms: the
    names in ``_TRANSFORMS``; coefficient ranking is deterministic (stable
    sort on magnitude).
    """
    who = "compressibility_study keep fraction"
    fractions = [_number(fr, who, _FRACTION) for fr in keep_fractions]
    if not fractions:
        raise ValidationError("compressibility_study needs at least one fraction")
    if transform not in _TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")
    analyze, synthesize = _TRANSFORMS[transform]

    img = _raster(img, "compressibility_study")
    coeffs = analyze(img, levels)
    flat = coeffs.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    rows = []
    for fr in fractions:
        k = max(1, int(round(fr * flat.size)))
        kept = np.zeros_like(flat)
        kept[order[:k]] = flat[order[:k]]
        recon = synthesize(kept.reshape(coeffs.shape), levels)
        rows.append((fr, snr_db(img, recon)))
    return rows


# ---------------------------------------------------------------------------
# A small sparse-recovery benchmark instance
# ---------------------------------------------------------------------------


@dataclass
class SparseInstance:
    forward: LinearMap
    data: np.ndarray
    truth: np.ndarray
    lam: float


def sparse_recovery_instance(m: int = 8, n: int = 32, sparsity: int = 2, seed=8) -> SparseInstance:
    """A Gaussian sensing matrix with a sparse target and noiseless data.

    Deterministic given the seed; ``lam = 0.005 ||H* g||_inf`` is small
    enough that the l1 solution recovers the support.
    """
    m, n = _count(m, "sparse_recovery_instance m"), _count(n, "sparse_recovery_instance n")
    sparsity = _count(sparsity, "sparse_recovery_instance sparsity")
    if not sparsity <= m < n:
        raise ValidationError("need sparsity <= m < n")
    h = normal_stream(m * n, 1.0, seed).reshape(m, n) / np.sqrt(m)
    order = np.argsort(uniform_stream(n, seed + 1), kind="stable")
    support = np.sort(order[:sparsity])
    truth = np.zeros(n)
    signs = np.where(uniform_stream(sparsity, seed + 2) < 0.5, -1.0, 1.0)
    truth[support] = signs * (1.0 + uniform_stream(sparsity, seed + 3))
    g = h @ truth
    lam = 0.005 * float(np.max(np.abs(h.T @ g)))
    return SparseInstance(forward=op_matrix(h), data=g, truth=truth, lam=lam)
