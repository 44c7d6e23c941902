"""Raster checks, interpolation, and seeded noise.

Conventions used throughout the package:

* a raster is a plain (height, width) float64 ``np.ndarray``, row-major,
  pixel (row, col) = (y, x), with the row axis pointing down; ``_raster``
  checks one where it enters the library;
* random streams come from splitmix64 (64-bit state) mapped through a
  Box-Muller transform, so a seed, an integer in [0, 2**64), pins the stream
  bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "bilinear_values",
    "gaussian_noise",
    "normal_stream",
    "uniform_stream",
]


def _real(x, who: str) -> np.ndarray:
    """``x`` as a float64 array, or a ValidationError naming ``who`` if it is complex.

    The check comes before the cast, which would drop the imaginary part.
    """
    if np.iscomplexobj(x):
        raise ValidationError(f"{who} takes real values, not complex ones")
    return np.asarray(x, dtype=np.float64)


def _raster(x, who: str) -> np.ndarray:
    """``x`` as a float64 raster: real, 2D, non-empty, finite, or a ValidationError for ``who``."""
    arr = _real(x, who)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{who} expects a non-empty 2D raster")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{who} input contains non-finite samples")
    return arr


def _seed_value(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        value = int(seed)
        if 0 <= value < 2**64:
            return value
    raise ValidationError("seed must be an integer in [0, 2**64)")


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def _bilinear_stencil(shape, xs, ys):
    """Corner indices and weights of the bilinear stencil at each sample.

    The one bilinear stencil: lookups gather through it, and the ray
    transform's adjoint scatters through it, so that adjoint is the exact
    transpose by construction.  Out-of-grid samples get zero weight.
    """
    h, w = shape
    inside = (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.clip(np.floor(xc).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(yc).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    corners = ((1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy)
    weights = tuple(np.where(inside, c, 0.0) for c in corners)
    indices = (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1)
    return indices, weights


def bilinear_values(img, xs, ys) -> np.ndarray:
    """Vectorized bilinear lookup in a real or complex grid, with a zero boundary.

    ``img`` is a 2D array; ``xs`` indexes columns and ``ys`` rows.  Exact
    pixel centers return the stored value; queries outside [0, W-1] x
    [0, H-1] return 0.
    """
    data = np.asarray(img)
    if data.ndim != 2:
        raise ValidationError("bilinear_values expects a 2D grid")
    xs = _real(xs, "bilinear_values xs")
    ys = _real(ys, "bilinear_values ys")
    indices, weights = _bilinear_stencil(data.shape, xs, ys)
    flat = data.ravel()
    return sum(wgt * flat[idx] for idx, wgt in zip(indices, weights))


# ---------------------------------------------------------------------------
# Seeded noise
# ---------------------------------------------------------------------------

# splitmix64 constants (Steele, Lea, Flood 2014); the generator state is the
# 64-bit counter seed + i * GAMMA and each output is the mixed state.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, count: int) -> np.ndarray:
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _SM64_GAMMA
    z ^= z >> np.uint64(30)
    z *= _SM64_MIX1
    z ^= z >> np.uint64(27)
    z *= _SM64_MIX2
    z ^= z >> np.uint64(31)
    return z


def uniform_stream(count: int, seed) -> np.ndarray:
    """Deterministic uniforms on the open interval (0, 1)."""
    if count < 0:
        raise ValidationError("uniform_stream count must be nonnegative")
    bits = _splitmix64(_seed_value(seed), count)
    # top 53 bits, offset by half an ulp so 0 and 1 are never produced
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normal_stream(count: int, sigma: float, seed) -> np.ndarray:
    """Deterministic N(0, sigma^2) samples via the Box-Muller transform.

    The stream layout is fixed: for k = ceil(count/2) pairs, uniforms
    u1 = stream[:k] and u2 = stream[k:2k] give the cosine branch followed by
    the sine branch, truncated to ``count`` samples.
    """
    if count < 0:
        raise ValidationError("normal_stream count must be nonnegative")
    if not (sigma >= 0 and np.isfinite(sigma)):
        raise ValidationError("normal_stream sigma must be finite and >= 0")
    if count == 0:
        return np.zeros(0)
    if sigma == 0.0:
        return np.zeros(count)
    k = (count + 1) // 2
    u = uniform_stream(2 * k, seed)
    radius = np.sqrt(-2.0 * np.log(u[:k]))
    angle = 2.0 * np.pi * u[k:]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return sigma * z[:count]


def gaussian_noise(shape: tuple[int, int], sigma: float, seed) -> np.ndarray:
    """A (height, width) raster of i.i.d. N(0, sigma^2) samples."""
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValidationError("gaussian_noise shape must be (height, width)")
    h, w = int(shape[0]), int(shape[1])
    return normal_stream(h * w, sigma, seed).reshape(h, w)
