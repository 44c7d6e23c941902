"""Raster checks and seeded noise.

Conventions used throughout the package:

* a raster is a plain (height, width) float64 ``np.ndarray``, row-major,
  pixel (row, col) = (y, x), with the row axis pointing down; ``_raster``
  checks one where it enters the library, and ``_shape`` or ``_count``
  checks a grid shape, size or count where it enters;
* a real number enters through ``_number`` and one of the rules below,
  which the CLI's config leaves read too;
* random streams come from splitmix64 (64-bit state) mapped through a
  Box-Muller transform, so a seed, an integer in [0, 2**64), pins the stream
  bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
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


def _count(value, who: str, least: int = 1) -> int:
    """``value`` as an int: an integer, not a bool, of at least ``least``, or a ValidationError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValidationError(f"{who} must be an integer >= {least}")


# the rules a real number may have to meet: (check, the text after its name)
_FINITE = (np.isfinite, "must be finite")
_POSITIVE = (lambda v: v > 0 and np.isfinite(v), "must be positive and finite")
_NONNEGATIVE = (lambda v: v >= 0 and np.isfinite(v), "must be finite and >= 0")
_FRACTION = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")


def _number(value, who: str, rule=_FINITE) -> float:
    """``value`` as a float: a real number, not a bool, that meets ``rule``, or a ValidationError."""
    check, text = rule
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the double range, which no rule admits
            number = np.inf
        if check(number):
            return number
    raise ValidationError(f"{who} {text}")


def _shape(shape, who: str, least: int = 1) -> tuple[int, int]:
    """``shape`` as a (height, width) pair of ``_count``s, or a ValidationError for ``who``."""
    try:
        h, w = shape
        return _count(h, who, least), _count(w, who, least)
    except (TypeError, ValueError):  # not a pair, or _count's ValidationError
        pair = f"a (height, width) pair of integers >= {least}"
        raise ValidationError(f"{who} must be {pair}") from None


def _seed_value(seed) -> int:
    """``seed`` as an int: an integer, not a bool, in [0, 2**64), or a ValidationError."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        value = int(seed)
        if 0 <= value < 2**64:
            return value
    raise ValidationError("seed must be an integer in [0, 2**64)")


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
    count = _count(count, "uniform_stream count", 0)
    bits = _splitmix64(_seed_value(seed), count)
    # top 53 bits, offset by half an ulp so 0 and 1 are never produced
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normal_stream(count: int, sigma: float, seed) -> np.ndarray:
    """Deterministic N(0, sigma^2) samples via the Box-Muller transform.

    The stream layout is fixed: for k = ceil(count/2) pairs, uniforms
    u1 = stream[:k] and u2 = stream[k:2k] give the cosine branch followed by
    the sine branch, truncated to ``count`` samples.
    """
    count = _count(count, "normal_stream count", 0)
    sigma = _number(sigma, "normal_stream sigma", _NONNEGATIVE)
    seed = _seed_value(seed)  # checked even where no stream is drawn
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

