"""Analytic phantoms, blur kernels, and benchmark metrics.

A phantom is a tuple of ``Ellipse``, defined on the unit square [-1, 1]^2
with the +y axis along the row axis (pointing down), matching the
ray-transform convention; overlapping intensities add.  It is rendered by
point evaluation at pixel centers.

A measurement model is built from the operators, not here: blur-then-mask is
``op_compose(op_mask(mask), op_convolve(embed_kernel(kernel, shape)))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import _FINITE, _FRACTION, _POSITIVE, _count, _number, _raster, _real
from .operators import RadonGeometry, op_compose, op_dct8, op_dft2, op_haar, op_multiply

__all__ = [
    "Ellipse",
    "SHEPP_LOGAN",
    "render",
    "shepp_logan",
    "analytic_sinogram",
    "airy_psf",
    "gaussian_kernel",
    "snr_db",
    "compressibility_study",
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


def render(phantom, size: int) -> np.ndarray:
    """Evaluate the phantom at pixel centers of a size x size grid.

    ``phantom`` is any iterable of ``Ellipse``; a pixel holds the sum of the
    intensities of the ellipses covering its center.  An empty phantom
    renders zeros.
    """
    size = _count(size, "render size", 2)
    coords = (np.arange(size) - (size - 1) / 2.0) * (2.0 / size)
    x = coords[None, :]
    y = coords[:, None]
    total = np.zeros((size, size), dtype=np.float64)
    for e in phantom:
        dx = x - e.cx
        dy = y - e.cy
        cos_p, sin_p = np.cos(e.phi), np.sin(e.phi)
        u = (dx * cos_p + dy * sin_p) / e.a
        v = (-dx * sin_p + dy * cos_p) / e.b
        total += np.where(u * u + v * v <= 1.0, e.rho, 0.0)
    return total


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


def _bessel_j1(x: np.ndarray) -> np.ndarray:
    """Bessel function of the first kind, order one, of a float64 array.

    Rational approximation below |x| = 8 and the asymptotic cosine form
    above it (Abramowitz and Stegun 9.4.4 / 9.4.6 coefficients); absolute
    error stays below 1e-7.
    """
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

    return np.where(small, small_val, large_val)


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
    amp = np.where(r < 1e-12, 1.0, 2.0 * _bessel_j1(safe) / safe)
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


# transform name -> builder (shape, Haar level count) -> LinearMap; every entry
# is orthonormal, W* W = I, so its adjoint is its inverse: the DFT is scaled by
# 1 / sqrt(H W) to be unitary.  compress-study's "all" runs them in this order
_TRANSFORMS = {
    "haar": op_haar,
    "dct8": lambda shape, levels: op_dct8(shape),
    "dft": lambda shape, levels: op_compose(
        op_dft2(shape), op_multiply(np.full(shape, 1.0 / np.sqrt(shape[0] * shape[1])))
    ),
}


def compressibility_study(
    img, transform: str = "haar", keep_fractions=(0.01, 0.05, 0.1, 0.25), levels: int = 4
):
    """Keep the largest-magnitude fraction of coefficients, synthesize, and score.

    ``img`` is a raster.  Returns [(fraction, snr_db)] rows.  ``transform``
    names an operator in ``_TRANSFORMS``.  Pixel positions rank, in a stable
    sort, by the norm of their entries across the range's leading parts (a
    DFT frequency by its complex magnitude); the adjoint synthesizes the kept.
    """
    who = "compressibility_study keep fraction"
    fractions = [_number(fr, who, _FRACTION) for fr in keep_fractions]
    if not fractions:
        raise ValidationError("compressibility_study needs at least one fraction")
    if transform not in _TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")

    img = _raster(img, "compressibility_study")
    op = _TRANSFORMS[transform](img.shape, levels)
    parts = op.apply(img).reshape(-1, img.size)  # (leading parts, pixel positions)
    order = np.argsort(-np.abs(np.hypot.reduce(parts, axis=0)), kind="stable")
    rows = []
    for fr in fractions:
        k = max(1, int(round(fr * img.size)))
        kept = np.zeros_like(parts)
        kept[:, order[:k]] = parts[:, order[:k]]
        rows.append((fr, snr_db(img, op.adjoint(kept.reshape(op.range_shape)))))
    return rows
