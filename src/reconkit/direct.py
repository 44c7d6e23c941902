"""Direct (non-iterative) reconstruction: filtered back projection and Wiener
deconvolution.

A sinogram is a ``(n_angles, n_detectors)`` raster; ``fbp`` takes it beside
the ``RadonGeometry`` that made it, as ``op_radon`` takes that geometry
beside the image shape.

The zero-filled inverse DFT of the spectrum samples ``v`` that a mask ``m``
keeps, real parts then imaginary parts, is
``op_compose(op_mask(np.stack([m, m])), op_dft2(shape)).adjoint(v) / (H W)``;
it needs no function of its own.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grids import _NONNEGATIVE, _number, _raster, _shape
from .operators import RadonGeometry

__all__ = ["fbp", "wiener_deconvolve"]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fbp(sino, geometry: RadonGeometry, out_shape=None) -> np.ndarray:
    """Filtered back projection of a parallel-beam sinogram.

    ``sino`` is a raster of shape ``(geometry.n_angles, geometry.n_detectors)``.
    Per view: zero-pad the projection to the power of two at or above twice
    the detector count, multiply its DFT by the ramp ``|nu|``, invert, crop;
    then smear filtered values back along rays by linear interpolation on the
    detector axis.  The angular sum carries pi / n_angles and the detector
    pitch scales both the frequency axis and the interpolation; both come
    from ``geometry``, whose views are uniform over [0, pi).
    """
    data = _raster(sino, "fbp")
    n_angles, n_det, pitch = geometry.n_angles, geometry.n_detectors, geometry.detector_pitch
    if data.shape != (n_angles, n_det):
        raise ValidationError(
            f"fbp sinogram {data.shape} does not match geometry {(n_angles, n_det)}"
        )
    ramp = np.abs(np.fft.fftfreq(_next_pow2(2 * n_det)))

    padded = np.zeros((n_angles, ramp.size), dtype=np.float64)
    padded[:, :n_det] = data
    filtered = np.fft.ifft(np.fft.fft(padded, axis=1) * ramp[None, :], axis=1).real
    filtered = filtered[:, :n_det] / pitch

    h, w = (n_det, n_det) if out_shape is None else _shape(out_shape, "fbp out_shape")
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs = np.arange(w) - cx
    ys = np.arange(h) - cy
    det_center = (n_det - 1) / 2.0

    recon = np.zeros((h, w), dtype=np.float64)
    det_axis = np.arange(n_det, dtype=np.float64)
    for a, theta in enumerate(geometry.angles):
        t = (xs[None, :] * np.cos(theta) + ys[:, None] * np.sin(theta)) / pitch
        recon += np.interp(t + det_center, det_axis, filtered[a], left=0.0, right=0.0)
    recon *= np.pi / n_angles
    return recon


def wiener_deconvolve(g, kernel, sigma: float, prior_spectrum) -> np.ndarray:
    """Per-frequency linear MMSE deblur for a circular convolution kernel.

    ``prior_spectrum`` holds the (positive) eigenvalues of the signal
    covariance in the DFT basis; ``sigma`` is the noise standard deviation.
    With sigma == 0 the estimate reduces to exact inverse filtering, which
    requires the kernel spectrum to be nowhere zero.
    """
    data = _raster(g, "wiener_deconvolve")
    ker = _raster(kernel, "wiener_deconvolve kernel")
    prior = _raster(prior_spectrum, "wiener_deconvolve prior_spectrum")
    if ker.shape != data.shape or prior.shape != data.shape:
        raise ValidationError("wiener_deconvolve kernel and prior must match the image grid")
    if np.any(prior <= 0):
        raise ValidationError("prior_spectrum must be strictly positive")
    sigma = _number(sigma, "wiener_deconvolve sigma", _NONNEGATIVE)
    khat = np.fft.fft2(ker)
    power = np.abs(khat) ** 2
    if sigma == 0.0:
        floor = 1e-12 * np.max(np.abs(khat))
        if np.any(np.abs(khat) <= floor):
            raise ValidationError(
                "exact inverse requested (sigma = 0) but the kernel spectrum has zero bins"
            )
    gain = prior * np.conj(khat) / (power * prior + sigma**2)
    return np.fft.ifft2(gain * np.fft.fft2(data)).real
