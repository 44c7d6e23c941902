"""Matrix-free linear operators implemented as apply/adjoint pairs.

Every operator maps real float64 arrays to real float64 arrays; a complex
quantity such as a spectrum is the stack of its real and imaginary parts
(``op_dft2``).  Every operator satisfies the adjoint identity <Ax, y> =
<x, A*y>, and the adjoints are exact transposes of the discrete forward maps,
not separate discretizations.  ``dot_test`` is the ground-truth check and
runs over every constructed operator in the test suite.  The transforms
``op_haar`` and ``op_dct8`` are orthonormal, ``W* W = I``: each adjoint inverts.

``LinearMap.normal(x)`` applies the normal operator ``A* A`` that every
variational solver spends its time in.  Operators with a fused form run it in
one pass: the mask ANDs the input's bits with its all-ones-or-zero keep array
instead of gathering and scattering, convolution multiplies the spectrum by
``|k^|^2`` between one forward and one inverse FFT, the gradient applies
the Neumann Laplacian stencil directly, and the ray transform gathers and
scatters through each view's table in turn, so each table streams once.  On a
square image with an even view count, the ray transform builds only the views
in [0, pi/4] and derives the others by mapping a built table's pixel ids
through the transpose reflection and a 90-degree turn.  A
composition ``B after C`` runs ``C* (B* B) (C x)`` with the outer part's fused
normal, so mask after blur costs two real FFT pairs and no gather.  Every
other operator falls back to ``adjoint(apply(x))``.

Shape, realness and finiteness checks run once, at the outermost public call:
compositions chain their parts' unchecked ``_apply``/``_adjoint``/``_normal``.

The gradient and the convolution are bound by memory traffic, not
arithmetic.  The gradient differences the flat raster with contiguous
strides.  A convolution, circular and by a real kernel, transforms one half
spectrum in place per call by the per-axis passes of numpy's own
``rfft2``/``irfft2``, so its results are theirs bit for bit.  No operator
keeps scratch buffers, so every ``LinearMap`` is reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, ValidationError
from .grids import _FRACTION, _POSITIVE, _count, _number, _raster, _seed_value, _shape
from .grids import normal_stream, uniform_stream

__all__ = [
    "LinearMap",
    "RadonGeometry",
    "dot_test",
    "normal_test",
    "random_mask",
    "op_mask",
    "op_multiply",
    "op_convolve",
    "embed_kernel",
    "op_compose",
    "op_matrix",
    "op_dft2",
    "op_grad",
    "op_radon",
    "op_haar",
    "op_dct8",
    "fourier_slice_check",
]


class LinearMap:
    """A linear operator on real arrays, defined by an apply function and its exact adjoint.

    Both sides take real float64 arrays: complex input is a ValidationError
    rather than a silently discarded imaginary part.

    Args:
        domain_shape: shape of valid inputs to ``apply``.
        range_shape: shape of valid inputs to ``adjoint``.
        apply_fn: forward action.
        adjoint_fn: adjoint action, the exact transpose of ``apply_fn``.
        normal_fn: optional fused ``A* A``; omitted means ``adjoint(apply)``.
    """

    # every operator is real; bench/tracing.py still reads these two to size its byte counts
    domain_complex = False
    range_complex = False

    def __init__(
        self,
        domain_shape: tuple[int, ...],
        range_shape: tuple[int, ...],
        apply_fn: Callable[[np.ndarray], np.ndarray],
        adjoint_fn: Callable[[np.ndarray], np.ndarray],
        *,
        normal_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str = "linear_map",
    ):
        self.domain_shape = tuple(_count(s, "LinearMap domain_shape") for s in domain_shape)
        self.range_shape = tuple(_count(s, "LinearMap range_shape") for s in range_shape)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self._normal_fn = normal_fn
        self.name = name

    def _coerce(self, x, shape, side):
        arr = np.asarray(x)
        if arr.shape != shape:
            raise ValidationError(
                f"{self.name}: {side} shape {arr.shape} does not match {shape}"
            )
        if np.iscomplexobj(arr):
            raise ValidationError(f"{self.name}: {side} input must be real")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{self.name}: {side} input contains non-finite samples")
        return arr

    def apply(self, x) -> np.ndarray:
        return self._apply(self._coerce(x, self.domain_shape, "domain"))

    def adjoint(self, y) -> np.ndarray:
        return self._adjoint(self._coerce(y, self.range_shape, "range"))

    def _normal(self, x) -> np.ndarray:
        """Unchecked ``A* A x``, for compositions that validated already."""
        if self._normal_fn is None:
            return self._adjoint(self._apply(x))
        return self._normal_fn(x)

    def normal(self, x) -> np.ndarray:
        """``A* A x`` with the domain input validated once.

        Runs the fused normal when the operator has one; otherwise it is
        ``adjoint(apply(x))`` through the public methods.  An intermediate
        ``apply(x)`` that overflows is a numerical failure, not bad input.
        """
        if self._normal_fn is None:
            y = self.apply(x)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(f"{self.name}: apply leaves the finite range inside normal")
            return self.adjoint(y)
        return self._normal_fn(self._coerce(x, self.domain_shape, "domain"))

    def __repr__(self):
        return f"LinearMap({self.name}: {self.domain_shape} -> {self.range_shape})"


def _random_field(shape, seed):
    return normal_stream(int(np.prod(shape)), 1.0, seed).reshape(shape)


def dot_test(op: LinearMap, trials: int = 100, seed=0) -> float:
    """Max relative error of <Ax, y> vs <x, A*y> over seeded real Gaussian trials."""
    trials = _count(trials, "dot_test trials")
    base = _seed_value(seed)
    worst = 0.0
    for t in range(trials):
        x = _random_field(op.domain_shape, base + 2 * t + 1)
        y = _random_field(op.range_shape, base + 2 * t + 2)
        lhs = np.vdot(y.ravel(), op.apply(x).ravel())
        rhs = np.vdot(op.adjoint(y).ravel(), x.ravel())
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def normal_test(op: LinearMap, trials: int = 3, seed=0) -> float:
    """Max relative error of normal(x) vs adjoint(apply(x)) over seeded real Gaussian trials."""
    trials = _count(trials, "normal_test trials")
    base = _seed_value(seed)
    worst = 0.0
    for t in range(trials):
        x = _random_field(op.domain_shape, base + t + 1)
        want = op.adjoint(op.apply(x))
        err = float(np.linalg.norm((op.normal(x) - want).ravel()))
        worst = max(worst, err / max(float(np.linalg.norm(want.ravel())), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# Sampling masks: a mask is a boolean array, True where an entry is kept
# ---------------------------------------------------------------------------


def random_mask(shape, fraction: float, seed) -> np.ndarray:
    """A (height, width) boolean raster keeping a deterministic pseudo-random fraction."""
    fraction = _number(fraction, "random_mask fraction", _FRACTION)
    h, w = _shape(shape, "random_mask shape")
    n = h * w
    order = np.argsort(uniform_stream(n, seed), kind="stable")
    keep = np.zeros(n, dtype=bool)
    keep[order[: max(1, int(round(fraction * n)))]] = True
    return keep.reshape(h, w)


def op_mask(keep) -> LinearMap:
    """Extract the entries a boolean array keeps (read as bool) as a vector, in flat order.

    ``keep`` may have any shape: a (height, width) raster samples an image,
    and ``np.stack([m, m])`` samples both parts of an ``op_dft2`` spectrum at
    the frequencies ``m`` keeps.  The adjoint scatters the vector back, with
    zeros elsewhere.
    """
    keep = np.asarray(keep, dtype=bool)
    idx = np.flatnonzero(keep)
    if idx.size < 1:
        raise ValidationError("a mask must keep at least one entry")
    # -1 (all bits set) where kept, 0 elsewhere, once per 64-bit word of x
    bits = -keep.astype(np.int8)

    def forward(x):
        return x.ravel()[idx]

    def backward(y):
        out = np.zeros(keep.size, dtype=np.float64)
        out[idx] = y
        return out.reshape(keep.shape)

    def normal(x):
        # the AND keeps kept entries exactly (-0.0 included) and makes the
        # rest +0.0: np.where(keep, x, 0.0) bit for bit, in one integer pass
        words = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
        return (words & bits).view(np.float64)

    return LinearMap(
        keep.shape,
        (idx.size,),
        forward,
        backward,
        normal_fn=normal,
        name="mask",
    )


# ---------------------------------------------------------------------------
# Pointwise multiply and convolution
# ---------------------------------------------------------------------------


def op_multiply(weights) -> LinearMap:
    """Pointwise multiplication by real weights, which is its own adjoint."""
    wgt = _raster(weights, "op_multiply").copy()  # a copy: later edits to weights do not leak in
    return LinearMap(
        wgt.shape,
        wgt.shape,
        lambda x: wgt * x,
        lambda y: wgt * y,
        name="multiply",
    )


def embed_kernel(kernel, shape) -> np.ndarray:
    """Embed a small centered kernel into a full grid with its center at (0, 0).

    The result is the right operand for ``op_convolve`` when the kernel is
    given in centered (point-spread) form: convolving with it does not shift
    the image.
    """
    ker = _raster(kernel, "embed_kernel")
    kh, kw = ker.shape
    h, w = _shape(shape, "embed_kernel shape")
    if kh > h or kw > w:
        raise ValidationError("embed_kernel target grid is smaller than the kernel")
    out = np.zeros((h, w), dtype=np.float64)
    out[:kh, :kw] = ker
    return np.roll(out, (-((kh - 1) // 2), -((kw - 1) // 2)), axis=(0, 1))


def op_convolve(kernel) -> LinearMap:
    """Circular convolution by a fixed real kernel.

    The kernel lives on the same grid as the domain with its origin at index
    (0, 0), and the operator diagonalizes in the DFT basis (use
    ``embed_kernel`` for centered point-spread kernels).
    """
    ker = _raster(kernel, "op_convolve")
    width = ker.shape[1]
    khat = np.fft.rfft2(ker)
    khat_conj = np.conj(khat)
    power = khat.real**2 + khat.imag**2

    def filtered(x, weights):
        # one half spectrum, transformed in place axis by axis in the order of
        # numpy's rfft2/irfft2, which makes the result theirs bit for bit
        spectrum = np.fft.rfft(x, axis=1)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum *= weights
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        return np.fft.irfft(spectrum, n=width, axis=1)

    return LinearMap(
        ker.shape,
        ker.shape,
        lambda x: filtered(x, khat),
        lambda y: filtered(y, khat_conj),
        normal_fn=lambda x: filtered(x, power),
        name="convolve_circular",
    )


# ---------------------------------------------------------------------------
# Composition, dense adapters, DFT as an operator
# ---------------------------------------------------------------------------


def op_compose(outer: LinearMap, inner: LinearMap) -> LinearMap:
    """outer after inner; shapes must chain.

    The parts run unchecked: the composite validates its own input once.
    """
    if inner.range_shape != outer.domain_shape:
        raise ValidationError(
            f"cannot compose: inner range {inner.range_shape} vs outer domain {outer.domain_shape}"
        )
    return LinearMap(
        inner.domain_shape,
        outer.range_shape,
        lambda x: outer._apply(inner._apply(x)),
        lambda y: inner._adjoint(outer._adjoint(y)),
        normal_fn=lambda x: inner._adjoint(outer._normal(inner._apply(x))),
        name=f"{outer.name}*{inner.name}",
    )


def op_matrix(a) -> LinearMap:
    """Dense real matrix as a LinearMap on flat vectors, mostly for small systems."""
    mat = _raster(a, "op_matrix").copy()  # a copy: later edits to a do not leak in
    mat_t = mat.T.copy()
    return LinearMap(
        (mat.shape[1],),
        (mat.shape[0],),
        lambda x: mat @ x,
        lambda y: mat_t @ y,
        name="matrix",
    )


def op_dft2(shape) -> LinearMap:
    """The package's one 2D DFT: a real (height, width) image to its spectrum's parts.

    The spectrum is unnormalized, ``F[k, l] = sum_{n, m} x[n, m] exp(-i 2 pi
    (k n / H + l m / W))``, and comes out as the real (2, height, width) stack
    ``(Re F, Im F)``.  The adjoint maps a stack ``y`` to ``H W Re(ifft2(y[0] +
    i y[1]))``, so the inverse DFT of an image's spectrum is ``adjoint(y) /
    (H W)``.  A Fourier sampling model is
    ``op_compose(op_mask(np.stack([m, m])), op_dft2(shape))``.
    """
    h, w = _shape(shape, "op_dft2 shape")
    n = h * w

    def forward(x):
        spectrum = np.fft.fft2(x)
        return np.stack([spectrum.real, spectrum.imag])

    return LinearMap(
        (h, w),
        (2, h, w),
        forward,
        lambda y: n * np.fft.ifft2(y[0] + 1j * y[1]).real,
        name="dft2",
    )


# ---------------------------------------------------------------------------
# Finite-difference gradient
# ---------------------------------------------------------------------------


def op_grad(shape) -> LinearMap:
    """Forward differences with a clamped last row/column.

    Channel 0 holds horizontal differences, channel 1 vertical ones; the
    adjoint is the matching negative divergence (exact transpose).  All three
    paths run on the flat row-major raster, where both differences are
    contiguous: the horizontal one is ``flat[1:] - flat[:-1]`` with its
    row-end entries ``[w-1::w]`` set to 0.
    """
    h, w = _shape(shape, "op_grad shape")
    n = h * w

    def forward(x):
        flat = x.ravel()
        g = np.zeros((2, n), dtype=np.float64)
        np.subtract(flat[1:], flat[:-1], out=g[0, :-1])
        g[0, w - 1 :: w] = 0.0  # row ends: those differences cross rows
        np.subtract(flat[w:], flat[: n - w], out=g[1, : n - w])
        return g.reshape(2, h, w)

    def scatter(gx, gy):
        # transpose of the flat differences, gx with its row ends zeroed; from
        # zeros in the per-pixel order ((0 + left) - right) + up - down
        out = np.zeros(n, dtype=np.float64)
        if w > 1:
            out[1:] += gx
            out[:-1] -= gx
        if h > 1:
            out[w:] += gy
            out[: n - w] -= gy
        return out.reshape(h, w)

    def backward(g):
        gx = g[0].ravel()[:-1].copy()
        gx[w - 1 :: w] = 0.0
        return scatter(gx, g[1].ravel()[: n - w])

    def normal(x):
        # the Neumann Laplacian stencil, with no (2, h, w) temporary
        flat = x.ravel()
        gx = flat[1:] - flat[:-1]
        gx[w - 1 :: w] = 0.0
        return scatter(gx, flat[w:] - flat[: n - w])

    return LinearMap((h, w), (2, h, w), forward, backward, normal_fn=normal, name="grad")


# ---------------------------------------------------------------------------
# Ray transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadonGeometry:
    """Parallel-beam geometry: uniform angles on [0, pi), centered detectors."""

    n_angles: int
    n_detectors: int
    detector_pitch: float = 1.0

    def __post_init__(self):
        for name in ("n_angles", "n_detectors"):
            _count(getattr(self, name), f"RadonGeometry {name}")
        _number(self.detector_pitch, "RadonGeometry detector_pitch", _POSITIVE)

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.n_angles) * (np.pi / self.n_angles)

    @property
    def offsets(self) -> np.ndarray:
        """Detector positions along the detector axis, centered, in pixels."""
        return (np.arange(self.n_detectors) - (self.n_detectors - 1) / 2.0) * self.detector_pitch


def _ray_points(theta: float, shape, offs: np.ndarray):
    """Sample coordinates for all rays of one view, at unit step along rays.

    ``offs`` holds the rays' detector positions (``RadonGeometry.offsets``).
    Ray direction is (-sin t, cos t); the detector axis is (cos t, sin t);
    both are expressed around the image center.  At an axis angle the trig is
    exact: ``cos(pi/2)`` is 6e-17, which would put border rays a hair outside
    the image, where their samples carry no weight.
    """
    h, w = shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    span = int(np.ceil(np.hypot(h, w))) + 1
    ts = np.arange(span) - (span - 1) / 2.0
    cos_t, sin_t = (0.0 if abs(v) < 1e-12 else v for v in (np.cos(theta), np.sin(theta)))
    xs = cx + offs[:, None] * cos_t - ts[None, :] * sin_t
    ys = cy + offs[:, None] * sin_t + ts[None, :] * cos_t
    return xs, ys


def _bilinear_stencil(shape, xs, ys):
    """Corner indices and weights of the bilinear stencil at each sample.

    Only the ray transform's view tables are built through it, so its
    forward gathers and its adjoint scatters the same weights and the
    adjoint is the exact transpose by construction.  Out-of-grid samples get
    zero weight.
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


# Cache the tables only while the geometry has at most 2^21 ray samples;
# larger geometries rebuild one view per call instead of exhausting memory.
# Neighbouring samples of a ray share a corner, so a ray holds at most about
# 3 entries per sample (2.3 seen on one ray, 1.4-1.6 over whole geometries):
# under ~100 MB for 3 * 2^21 entries of 16 bytes.  ``cols`` stays int64: the
# gather and bincount would otherwise cast an int32 table to a fresh
# table-sized temporary on every apply.  A derived view holds only its own
# ``cols`` and shares the rest of its source's table, so at 64^2 with 30 views
# the kept tables take 2.49 MB (8 built views), against 2.98 MB when the views
# in (pi/4, pi/2) are built too (15 built views).
_RADON_CACHE_BUDGET = 1 << 21

# A pixel is a live bilinear corner of a sample only if it lies less than one
# pixel from the sample on both axes.  Samples sit one unit apart along a ray,
# and samples t and t + 3 are farther apart than the 2 sqrt(2) diagonal of
# that window, so a (ray, pixel) pair recurs only among samples t, t + 1 and
# t + 2: at most 11 entries later in (sample, corner) order.
_RADON_PAIR_REACH = 11


def _radon_view_table(theta: float, shape, offs: np.ndarray):
    """One view's ray table ``(rays, counts, starts, cols, vals)``, rays at ``offs``.

    One entry per (ray, pixel) pair with a live bilinear corner, in ray order
    and, within a ray, in the (sample, corner) order of the pair's first live
    corner.  ``vals`` sums the pair's corner weights in sample order; all of
    them are positive.  ``rays`` lists the rays with entries, ``counts`` their
    entry counts and ``starts`` their first entries, for ``np.add.reduceat``.
    """
    n_detectors = offs.size
    xs, ys = _ray_points(theta, shape, offs)
    indices, weights = _bilinear_stencil(shape, xs, ys)
    idx = np.stack(indices, axis=-1).reshape(n_detectors, -1)
    wgt = np.stack(weights, axis=-1).reshape(n_detectors, -1)
    live = wgt != 0.0
    ray = np.repeat(np.arange(n_detectors), np.count_nonzero(live, axis=1))
    cols, vals = idx[live], wgt[live]
    # fold each repeat into the pair's first entry, nearest repeats first
    summed = vals.copy()
    first = np.ones(cols.size, dtype=bool)
    for lag in range(1, _RADON_PAIR_REACH + 1):
        hits = np.flatnonzero(cols[lag:] == cols[:-lag])
        hits = hits[ray[hits] == ray[hits + lag]]
        summed[hits] += vals[hits + lag]
        first[hits + lag] = False
    keep = np.flatnonzero(first)
    counts = np.bincount(ray[keep], minlength=n_detectors)
    rays = np.flatnonzero(counts)
    counts = counts[rays]
    return rays, counts, np.cumsum(counts) - counts, cols[keep], summed[keep]


def _ray_sums(flat, starts, cols, vals):
    """The line integral of each ray with entries in one view's table."""
    samples = flat.take(cols)
    samples *= vals
    return np.add.reduceat(samples, starts)


def op_radon(geometry: RadonGeometry, image_shape) -> LinearMap:
    """Discrete ray transform: bilinear sampling at unit step along rays.

    It maps an ``image_shape`` raster to a sinogram: a plain
    ``(n_angles, n_detectors)`` float64 raster indexed (angle, detector),
    which carries no geometry; ``fbp`` takes the same ``geometry`` beside it.
    Each view is a table with one entry per (ray, pixel) pair: ``cols``
    (pixel ids) and ``vals`` (the pixel's bilinear corner weights summed
    along the ray), see ``_radon_view_table``.  Samples outside the image
    carry zero weight and neighbouring samples share corners, so at 64^2 with
    30 views the tables hold about 35% of the dense stencil's entries.  The
    forward sums each ray's gathered ``vals * x[cols]`` with
    ``np.add.reduceat``; the adjoint scatters ``vals * y[ray]`` with
    ``np.bincount``, so it is the exact transpose of the same table.  The
    fused normal does both per view, streaming each table once.

    On a square image with an even view count ``n``, view ``k + n/2`` is
    view ``k`` turned +90 degrees on the pixel grid, and view ``n/2 - k``
    (at ``pi/2 - theta``) is view ``k`` with the image transposed: each
    samples the mapped points at the same detector offsets and steps, the
    reflection with its samples in reverse order.  So only the views in
    ``[0, pi/4]`` are built (8 of 30, 46 of 180).  Each built view ``k``
    also gives view ``n/2 - k`` by the transpose permutation of its ``cols``,
    and views ``k + n/2`` and ``n - k`` by the turn of those two; view 0's
    reflection is its turn and the view at ``pi/4`` (when ``n % 4 == 0``)
    reflects onto itself, so each view is run once.  A derived view shares
    its source's ``rays``, ``counts``, ``starts`` and ``vals`` and maps only
    ``cols``, so it sums each ray in its source's order and agrees with the
    table built at its own angle to roundoff.  Odd view counts and
    non-square images build every view, in view order.

    Iterative solvers apply the same operator thousands of times, so every
    view's table is kept when the geometry is small enough; otherwise each
    call rebuilds the built views one at a time and derives the others.
    Both paths run the same per-view tables in the same order, so apply,
    adjoint and normal agree bit for bit across them, the normal equals
    ``adjoint(apply(x))`` bit for bit, and repeated calls are identical.
    """
    h, w = _shape(image_shape, "op_radon image_shape", 2)
    angles, offs = geometry.angles, geometry.offsets
    n_angles, n_det = geometry.n_angles, geometry.n_detectors
    span = int(np.ceil(np.hypot(h, w))) + 1
    cached = n_angles * n_det * span <= _RADON_CACHE_BUDGET
    derive = h == w and n_angles % 2 == 0
    half = n_angles // 2
    if derive:
        pixels = np.arange(h * w).reshape(h, w)
        reflect = pixels.T.ravel()
        turn = np.rot90(pixels, 1).ravel()
        turn_reflect = turn[reflect]
    tables: list = []

    def views():
        # (view index, rays, counts, starts, cols, vals), each derived view after its source
        for k in range(n_angles // 4 + 1 if derive else n_angles):
            rays, counts, starts, cols, vals = _radon_view_table(angles[k], (h, w), offs)
            yield k, rays, counts, starts, cols, vals
            if not derive:
                continue
            yield k + half, rays, counts, starts, turn[cols], vals
            if 0 < k < half - k:
                yield half - k, rays, counts, starts, reflect[cols], vals
                yield n_angles - k, rays, counts, starts, turn_reflect[cols], vals

    def blocks():
        # the kept tables under the budget, else each view rebuilt in turn
        if not cached:
            return views()
        if not tables:
            tables[:] = views()
        return tables

    def scatter(out, ray_values, counts, cols, vals):
        contrib = ray_values.repeat(counts)
        contrib *= vals
        out += np.bincount(cols, weights=contrib, minlength=h * w)

    def forward(x):
        flat = x.ravel()
        out = np.zeros((n_angles, n_det), dtype=np.float64)
        for a, rays, _, starts, cols, vals in blocks():
            out[a, rays] = _ray_sums(flat, starts, cols, vals)
        return out

    def backward(y):
        out = np.zeros(h * w, dtype=np.float64)
        for a, rays, counts, _, cols, vals in blocks():
            scatter(out, y[a, rays], counts, cols, vals)
        return out.reshape(h, w)

    def normal(x):
        flat = x.ravel()
        out = np.zeros(h * w, dtype=np.float64)
        for _, rays, counts, starts, cols, vals in blocks():
            scatter(out, _ray_sums(flat, starts, cols, vals), counts, cols, vals)
        return out.reshape(h, w)

    return LinearMap(
        (h, w),
        (geometry.n_angles, geometry.n_detectors),
        forward,
        backward,
        normal_fn=normal,
        name="radon",
    )


# ---------------------------------------------------------------------------
# Orthonormal transforms
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def _haar_rows(block: np.ndarray) -> np.ndarray:
    avg = (block[:, 0::2] + block[:, 1::2]) / _SQRT2
    dif = (block[:, 0::2] - block[:, 1::2]) / _SQRT2
    return np.concatenate([avg, dif], axis=1)


def _haar_rows_inv(block: np.ndarray) -> np.ndarray:
    half = block.shape[1] // 2
    avg, dif = block[:, :half], block[:, half:]
    out = np.empty_like(block)
    out[:, 0::2] = (avg + dif) / _SQRT2
    out[:, 1::2] = (avg - dif) / _SQRT2
    return out


def op_haar(shape, levels: int) -> LinearMap:
    """Orthonormal separable Haar analysis over ``levels``; the adjoint is the synthesis.

    Each level splits the current low-pass block into average and detail
    halves along rows then columns; deeper levels recurse on the top-left
    block.  Both sides of the (height, width) ``shape`` must divide by
    ``2**levels``.
    """
    h, w = _shape(shape, "op_haar shape")
    levels = _count(levels, "op_haar levels")
    if h % (1 << levels) or w % (1 << levels):
        raise ValidationError(f"op_haar shape {h}x{w} does not divide by 2^{levels} on both axes")

    corners = [(h >> lev, w >> lev) for lev in range(levels)]  # each level's low-pass block

    def forward(x):
        data = x.copy()
        for ch, cw in corners:
            data[:ch, :cw] = _haar_rows(_haar_rows(data[:ch, :cw]).T).T
        return data

    def backward(c):
        data = c.copy()
        for ch, cw in reversed(corners):
            data[:ch, :cw] = _haar_rows_inv(_haar_rows_inv(data[:ch, :cw].T).T)
        return data

    return LinearMap((h, w), (h, w), forward, backward, name="haar")


def _dct8_matrix() -> np.ndarray:
    # orthonormal DCT-II: D[k, n] = c_k cos(pi (2n + 1) k / 16)
    n = np.arange(8)
    k = n[:, None]
    mat = np.cos(np.pi * (2 * n[None, :] + 1) * k / 16.0)
    mat[0] *= np.sqrt(1.0 / 8.0)
    mat[1:] *= np.sqrt(2.0 / 8.0)
    return mat


_DCT8 = _dct8_matrix()


def op_dct8(shape) -> LinearMap:
    """Orthonormal 8x8 block DCT-II; the adjoint is its inverse, block by block."""
    h, w = _shape(shape, "op_dct8 shape")
    if h % 8 or w % 8:
        raise ValidationError(f"op_dct8 shape {h}x{w} is not divisible into 8x8 blocks")

    def blockwise(x, mat):
        blocks = x.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
        out = np.einsum("ki,abij,lj->abkl", mat, blocks, mat, optimize=True)
        return out.transpose(0, 2, 1, 3).reshape(h, w)

    return LinearMap(
        (h, w), (h, w), lambda x: blockwise(x, _DCT8), lambda c: blockwise(c, _DCT8.T), name="dct8"
    )


# ---------------------------------------------------------------------------
# Projection-slice cross-check
# ---------------------------------------------------------------------------


def fourier_slice_check(img, theta: float) -> float:
    """Relative l2 mismatch between the two routes to a central slice.

    Route one projects the image through the table ``op_radon`` builds for
    the single view at angle ``theta`` and sums the projection's
    discrete-time Fourier transform over detectors.  The solvers apply that
    table for views in [0, pi/4]; the views they derive from it by the
    transpose reflection or the 90-degree turn agree with the table built at
    their own angle to 1e-13 of each view's peak, ray by ray, as the
    ray-transform tests check.  Route two sums the image's 2D discrete-time
    Fourier transform along the same direction.  Both sums are exact, taken
    about the image center (the detector offsets are also the pixel
    positions about it) at the DFT frequencies in the low 60 percent of the
    band, so the mismatch is the projector's alone.
    """
    data = _raster(img, "fourier_slice_check")
    h, w = data.shape
    if h != w:
        raise ValidationError("fourier_slice_check expects a square image")
    n = w
    offs = RadonGeometry(1, n).offsets
    rays, _, starts, cols, vals = _radon_view_table(float(theta), (n, n), offs)
    proj = np.zeros(n)
    proj[rays] = _ray_sums(data.ravel(), starts, cols, vals)

    freqs = np.fft.fftfreq(n)
    nu = freqs[np.abs(freqs) <= 0.3]

    def phases(scale):
        return np.exp(-2j * np.pi * np.outer(nu * scale, offs))

    slice_1d = phases(1.0) @ proj
    slice_2d = np.sum((phases(np.sin(theta)) @ data) * phases(np.cos(theta)), axis=1)

    num = np.linalg.norm(slice_1d - slice_2d)
    den = np.linalg.norm(slice_2d)
    if den == 0.0:
        raise ValidationError("fourier_slice_check: empty spectrum in the compared band")
    return float(num / den)
