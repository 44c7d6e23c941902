"""On-disk formats: float rasters with text sidecars, PGM previews, CSV
metrics, and JSON run manifests.

The canonical raster is raw little-endian float32, row-major, written next to
a ``<name>.f32.txt`` descriptor that records width, height, dtype, and value
range.  Previews are 8-bit binary PGM (P5) windowed to the data range; the
window is returned so callers can record it in the manifest.  All writers
format numbers deterministically, so reruns with the same config are
byte-identical.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError
from .grids import _real

__all__ = [
    "write_raster",
    "read_raster",
    "write_pgm",
    "write_csv",
    "write_manifest",
]


def _fmt(value) -> str:
    """Deterministic text for one CSV cell."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


# the largest float32; a finite sample beyond it would be written as inf
_F32_MAX = float(np.finfo(np.float32).max)


def _beyond_f32(data) -> bool:
    """Whether a finite sample of ``data`` lies beyond float32's range."""
    arr = np.asarray(data, dtype=np.float64)
    return bool(np.any(np.isfinite(arr) & (np.abs(arr) > _F32_MAX)))


def write_raster(base: str, data) -> list[str]:
    """Write ``<base>.f32`` (raw little-endian float32) and its descriptor.

    A finite sample beyond float32's range is a ValidationError, never an
    ``inf`` on disk.
    """
    arr = _real(data, "write_raster")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValidationError("write_raster expects a 1D or 2D array")
    if _beyond_f32(arr):
        raise ValidationError("write_raster: a finite sample lies beyond the float32 range")
    raw_path = base + ".f32"
    txt_path = base + ".f32.txt"
    arr32 = arr.astype("<f4")
    with open(raw_path, "wb") as fh:
        fh.write(arr32.tobytes(order="C"))
    lines = [
        f"width={arr.shape[1]}",
        f"height={arr.shape[0]}",
        "dtype=float32-le",
        f"min={_fmt(float(arr.min()))}",
        f"max={_fmt(float(arr.max()))}",
    ]
    with open(txt_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return [raw_path, txt_path]


def read_raster(base: str) -> np.ndarray:
    """Read a raster written by ``write_raster``; returns float64."""
    txt_path = base + ".f32.txt"
    raw_path = base + ".f32"
    fields = {}
    with open(txt_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key] = value
    try:
        width = int(fields["width"])
        height = int(fields["height"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad raster descriptor {txt_path}: {exc}") from exc
    if width < 1 or height < 1:
        raise ValidationError(f"bad raster descriptor {txt_path}: width and height must be >= 1")
    if fields.get("dtype") != "float32-le":
        raise ValidationError(f"unsupported raster dtype in {txt_path}")
    raw = np.fromfile(raw_path, dtype="<f4")
    if raw.size != width * height:
        raise ValidationError(f"raster {raw_path} size does not match its descriptor")
    return raw.reshape(height, width).astype(np.float64)


def write_pgm(path: str, data):
    """Binary 8-bit PGM preview windowed to the data range; returns the window.

    The minimum maps to 0 and the maximum to 255.  A constant raster gets the
    window ``(v, v + 1)`` and maps to 0.
    """
    arr = _real(data, "write_pgm")
    if arr.ndim != 2:
        raise ValidationError("write_pgm expects a 2D array")
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        hi = lo + 1.0
    scaled, base, span = arr, lo, hi - lo
    if span == np.inf:
        # the range overflows a double; halving both sides is exact for normal doubles
        scaled, base, span = arr / 2.0, lo / 2.0, hi / 2.0 - lo / 2.0
    # span is 0 for a constant raster beyond 2**53, where lo + 1 == lo
    pixels = np.round((scaled - base) / (span or 1.0) * 255).astype("u1")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))
    return lo, hi


def write_csv(path: str, header, rows) -> None:
    """Comma-separated table with a header row and deterministic formatting."""
    with open(path, "w") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def write_manifest(path: str, payload: dict) -> None:
    """Sorted, indented JSON so reruns produce identical bytes."""

    def default(obj):
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")
