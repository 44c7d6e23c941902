"""Direct (non-iterative) reconstruction: filtered back projection, Wiener
deconvolution, and zero-filled inverse DFT."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, ValidationError
from .grids import GridImage, as_array
from .operators import Mask, Sinogram

__all__ = ["RampFilter", "ramp_filter", "fbp", "wiener_deconvolve", "zerofill_ifft"]


@dataclass(frozen=True)
class RampFilter:
    """Frequency response |nu| on a zero-padded detector axis.

    ``response[k]`` multiplies DFT bin k of the padded projection; the DC
    bin is zero and the response is symmetric, so filtering is zero phase.
    """

    response: np.ndarray

    def __post_init__(self):
        resp = np.asarray(self.response, dtype=np.float64)
        if resp.ndim != 1 or resp.size == 0:
            raise ValidationError("RampFilter.response must be a non-empty 1D array")
        if resp[0] != 0.0 or np.any(resp < 0.0):
            raise ValidationError("RampFilter.response must be nonnegative with a zero DC bin")
        if not np.allclose(resp[1:], resp[:0:-1], rtol=0, atol=1e-12):
            raise ValidationError("RampFilter.response must be symmetric")
        object.__setattr__(self, "response", resp)

    @property
    def n_taps(self) -> int:
        """The padded detector length the response filters."""
        return self.response.size


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def ramp_filter(n_detectors: int, apodization: str = "none") -> RampFilter:
    """Build the |nu| ramp on a detector axis padded to at least twice."""
    if n_detectors < 1:
        raise ValidationError("ramp_filter needs at least one detector")
    if apodization not in ("none", "cosine"):
        raise ValidationError(f"unknown apodization {apodization!r}")
    taps = _next_pow2(2 * n_detectors)
    freqs = np.fft.fftfreq(taps)
    resp = np.abs(freqs)
    if apodization == "cosine":
        resp = resp * np.cos(np.pi * freqs)
    return RampFilter(resp)


def fbp(sino: Sinogram, filt: RampFilter | None = None, out_shape=None) -> GridImage:
    """Filtered back projection of a parallel-beam sinogram.

    Per view: zero-pad the projection, multiply its DFT by the ramp, invert,
    crop; then smear filtered values back along rays by linear interpolation
    on the detector axis.  The angular sum carries pi / n_angles and the
    detector pitch scales both the frequency axis and the interpolation; both
    come from ``sino.geometry``, whose views are uniform over [0, pi).
    """
    geom = sino.geometry
    n_angles, n_det, pitch = geom.n_angles, geom.n_detectors, geom.detector_pitch
    if filt is None:
        filt = ramp_filter(n_det)
    if filt.n_taps < 2 * n_det:
        raise ValidationError("RampFilter must be padded to at least twice the detector count")

    padded = np.zeros((n_angles, filt.n_taps), dtype=np.float64)
    padded[:, :n_det] = sino.data
    filtered = np.fft.ifft(np.fft.fft(padded, axis=1) * filt.response[None, :], axis=1).real
    filtered = filtered[:, :n_det] / pitch

    if out_shape is None:
        out_shape = (n_det, n_det)
    h, w = int(out_shape[0]), int(out_shape[1])
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs = np.arange(w) - cx
    ys = np.arange(h) - cy
    det_center = (n_det - 1) / 2.0

    recon = np.zeros((h, w), dtype=np.float64)
    det_axis = np.arange(n_det, dtype=np.float64)
    for a, theta in enumerate(geom.angles):
        t = (xs[None, :] * np.cos(theta) + ys[:, None] * np.sin(theta)) / pitch
        recon += np.interp(t + det_center, det_axis, filtered[a], left=0.0, right=0.0)
    recon *= np.pi / n_angles
    return GridImage(recon)


def wiener_deconvolve(g: GridImage, kernel, sigma: float, prior_spectrum) -> GridImage:
    """Per-frequency linear MMSE deblur for a circular convolution kernel.

    ``prior_spectrum`` holds the (positive) eigenvalues of the signal
    covariance in the DFT basis; ``sigma`` is the noise standard deviation.
    With sigma == 0 the estimate reduces to exact inverse filtering, which
    requires the kernel spectrum to be nowhere zero.
    """
    data = as_array(g)
    ker = as_array(kernel).astype(np.float64)
    prior = np.asarray(prior_spectrum, dtype=np.float64)
    if ker.shape != data.shape or prior.shape != data.shape:
        raise ValidationError("wiener_deconvolve kernel and prior must match the image grid")
    if np.any(prior <= 0) or not np.all(np.isfinite(prior)):
        raise ValidationError("prior_spectrum must be strictly positive and finite")
    if not (sigma >= 0 and np.isfinite(sigma)):
        raise ValidationError("sigma must be finite and >= 0")
    khat = np.fft.fft2(ker)
    power = np.abs(khat) ** 2
    if sigma == 0.0:
        floor = 1e-12 * np.max(np.abs(khat))
        if np.any(np.abs(khat) <= floor):
            raise SingularityError(
                "exact inverse requested (sigma = 0) but the kernel spectrum has zero bins"
            )
    gain = prior * np.conj(khat) / (power * prior + sigma**2)
    return GridImage(np.fft.ifft2(gain * np.fft.fft2(data)).real)


def zerofill_ifft(values, mask: Mask) -> GridImage:
    """Adjoint-style fill of missing spectrum entries with zeros, then inverse DFT.

    ``values`` are forward-DFT samples at the kept entries of ``mask`` in
    index order.  With a full mask this is exact inversion.
    """
    vals = np.asarray(values)
    if vals.shape != (mask.count,):
        raise ValidationError("zerofill_ifft values must match the mask count")
    h, w = mask.shape
    spectrum = np.zeros(h * w, dtype=np.complex128)
    spectrum[mask.indices] = vals
    return GridImage(np.fft.ifft2(spectrum.reshape(h, w)).real)
