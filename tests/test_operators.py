"""Linear operators: adjoint pairing, dense oracles, and transform identities.

Every operator is checked two ways: the dot test (adjoint consistency over
seeded random trials) and an independent oracle (dense matrix, brute-force
spatial sum, or a library transform) for the forward action itself.
"""

import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit import (
    DivergenceError,
    LinearMap,
    ValidationError,
    dot_test,
    embed_kernel,
    gaussian_kernel,
    normal_stream,
    normal_test,
    op_compose,
    op_convolve,
    op_dct8,
    op_dft2,
    op_grad,
    op_haar,
    op_mask,
    op_matrix,
    op_multiply,
    random_mask,
    uniform_stream,
)
from reconkit.cli import _selftest_cases
from reconkit.operators import _random_field

EXACT = 1e-10  # operators whose adjoint is an exact transpose by construction
FFTTOL = 1e-6  # operators that route through the FFT


def dense_matrix(op: LinearMap) -> np.ndarray:
    """Column-by-column materialization of a real operator."""
    n = int(np.prod(op.domain_shape))
    m = int(np.prod(op.range_shape))
    a = np.zeros((m, n))
    e = np.zeros(op.domain_shape)
    for j in range(n):
        e.flat[j] = 1.0
        a[:, j] = op.apply(e).ravel()
        e.flat[j] = 0.0
    return a


class TestLinearMapContract:
    def test_shape_validation(self):
        op = op_multiply(np.ones((3, 3)))
        with pytest.raises(ValidationError):
            op.apply(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            op.adjoint(np.zeros((4, 4)))

    def test_field_validation(self):
        op = op_multiply(np.ones((3, 3)))
        with pytest.raises(ValidationError):
            op.apply(np.zeros((3, 3), dtype=complex))

    def test_nonfinite_rejected(self):
        op = op_multiply(np.ones((2, 2)))
        bad = np.zeros((2, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValidationError):
            op.apply(bad)

    @pytest.mark.parametrize(
        "op, x",
        [
            (op_matrix(np.full((3, 3), 1e308)), np.ones(3)),
            (op_multiply(np.full((2, 2), 1e308)), np.full((2, 2), 10.0)),
        ],
        ids=["matrix", "multiply"],
    )
    def test_overflow_inside_normal_is_a_divergence_naming_the_operator(self, op, x):
        # apply(x) leaves the finite range from finite input: a numerical failure
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=f"^{op.name}: "):
            op.normal(x)

    def test_compose_matches_the_matrix_product(self):
        a = normal_stream(12, 1.0, 300).reshape(3, 4)
        b = normal_stream(20, 1.0, 301).reshape(4, 5)
        combo = op_compose(op_matrix(a), op_matrix(b))
        x = normal_stream(5, 1.0, 302)
        assert np.allclose(combo.apply(x), a @ (b @ x), atol=1e-12)


class TestMask:
    def test_round_trip_bool(self):
        # scattering ones through the mask gives back the raster it was built from
        keep = uniform_stream(24, 5).reshape(4, 6) > 0.5
        op = op_mask(keep)
        assert np.array_equal(op.adjoint(np.ones(op.range_shape)) == 1.0, keep)

    def test_random_fraction_and_determinism(self):
        m1 = random_mask((16, 16), 0.3, seed=9)
        m2 = random_mask((16, 16), 0.3, seed=9)
        assert m1.dtype == bool and m1.shape == (16, 16)
        assert np.array_equal(m1, m2)
        assert np.count_nonzero(m1) == int(round(0.3 * 256))
        assert not np.array_equal(m1, random_mask((16, 16), 0.3, seed=10))

    def test_random_mask_keeps_the_lowest_draws(self):
        # the kept entries are the m smallest of the seeded uniform stream
        keep = random_mask((8, 8), 0.5, seed=2)
        draws = uniform_stream(64, 2)
        assert np.max(draws[keep.ravel()]) < np.min(draws[~keep.ravel()])

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_mask((4, 4), 0.0, seed=1)
        with pytest.raises(ValidationError, match="at least one entry"):
            op_mask(np.zeros((2, 2), dtype=bool))

    def test_op_mask_gathers(self):
        data = np.arange(16, dtype=float).reshape(4, 4)
        keep = np.zeros((4, 4))
        keep.flat[[1, 5, 10]] = 1.0  # a float raster reads as bool
        op = op_mask(keep)
        assert np.array_equal(op.apply(data), np.array([1.0, 5.0, 10.0]))
        back = op.adjoint(np.array([2.0, 3.0, 4.0]))
        expected = np.zeros((4, 4))
        expected.flat[[1, 5, 10]] = [2.0, 3.0, 4.0]
        assert np.array_equal(back, expected)

    def test_dot(self):
        op = op_mask(random_mask((12, 9), 0.4, seed=3))
        assert dot_test(op, trials=100, seed=1) < EXACT

    def test_dot_complex(self):
        # the mask of a complex spectrum: the same frequencies of its stacked parts
        mask = random_mask((8, 8), 0.5, seed=4)
        op = op_mask(np.stack([mask, mask]))
        assert op.domain_shape == (2, 8, 8) and op.range_shape == (2 * np.count_nonzero(mask),)
        assert dot_test(op, trials=100, seed=2) < EXACT

    def test_any_shape(self):
        keep = np.array([True, False, True, True])
        op = op_mask(keep)
        assert np.array_equal(op.apply(np.arange(4.0)), [0.0, 2.0, 3.0])
        assert np.array_equal(op.adjoint(np.ones(3)), keep.astype(float))

    @pytest.mark.parametrize("stacked", [False, True], ids=["real", "complex"])
    def test_normal_is_where_bit_for_bit(self, stacked):
        keep = uniform_stream(63, 6).reshape(7, 9) < 0.5
        assert_normal_is_where(np.stack([keep, keep]) if stacked else keep, seed=40)


def assert_normal_is_where(keep, seed):
    """The fused mask normal equals ``np.where(keep, x, 0.0)``, zero signs included."""
    x = normal_stream(keep.size, 1.0, seed).reshape(keep.shape)
    x.flat[::3] = -0.0  # signed zeros on kept and dropped entries alike
    got = op_mask(keep).normal(x)
    want = np.where(keep, x, 0.0)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    fraction=st.floats(0.0, 1.0),
    pick=st.integers(0, 143),
    stacked=st.booleans(),
)
@example(h=1, w=12, fraction=1.0, pick=0, stacked=False)  # all kept
@example(h=12, w=1, fraction=0.0, pick=5, stacked=True)  # one kept
@example(h=1, w=1, fraction=0.0, pick=0, stacked=False)
def test_generated_mask_normals_are_where_bit_for_bit(h, w, fraction, pick, stacked):
    # shapes from 1xN to Nx1, and their (2, h, w) stacks as for a spectrum's
    # parts; ``pick`` keeps one entry so the mask is never empty
    keep = uniform_stream(h * w, 7).reshape(h, w) < fraction
    keep.flat[pick % keep.size] = True
    assert_normal_is_where(np.stack([keep, keep]) if stacked else keep, seed=41)


class TestMultiply:
    def test_forward_is_pointwise(self):
        w = normal_stream(16, 1.0, 310).reshape(4, 4)
        x = normal_stream(16, 1.0, 311).reshape(4, 4)
        assert np.array_equal(op_multiply(w).apply(x), w * x)

    def test_adjoint_conjugates(self):
        # real weights are their own conjugate
        w = normal_stream(16, 1.0, 312).reshape(4, 4)
        op = op_multiply(w)
        y = normal_stream(16, 1.0, 314).reshape(4, 4)
        assert np.allclose(op.adjoint(y), np.conj(w) * y, atol=1e-15)

    def test_dot(self):
        w = normal_stream(30, 1.0, 315).reshape(5, 6)
        assert dot_test(op_multiply(w), trials=100, seed=3) < EXACT

    def test_rejects_complex_weights(self):
        with pytest.raises(ValidationError, match="^op_multiply takes real values, not complex ones$"):
            op_multiply(np.ones((3, 3)) + 1j)


class TestConvolveCircular:
    def test_impulse_at_origin_is_identity(self):
        kernel = np.zeros((8, 8))
        kernel[0, 0] = 1.0
        op = op_convolve(kernel)
        x = normal_stream(64, 1.0, 320).reshape(8, 8)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    def test_centered_impulse_embeds_to_identity(self):
        # a centered 3x3 delta, embedded, acts as the identity
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        op = op_convolve(embed_kernel(kernel, (8, 8)))
        x = normal_stream(64, 1.0, 321).reshape(8, 8)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    def test_matches_direct_circular_sum(self):
        # y[n, m] = sum_{p, q} h[p, q] x[(n - p) mod H, (m - q) mod W]
        h, w = 6, 7
        kernel = normal_stream(h * w, 1.0, 322).reshape(h, w)
        x = normal_stream(h * w, 1.0, 323).reshape(h, w)
        direct = np.zeros((h, w))
        for p in range(h):
            for q in range(w):
                direct += kernel[p, q] * np.roll(x, shift=(p, q), axis=(0, 1))
        assert np.allclose(op_convolve(kernel).apply(x), direct, atol=1e-10)

    def test_convolution_theorem(self):
        kernel = normal_stream(64, 1.0, 324).reshape(8, 8)
        x = normal_stream(64, 1.0, 325).reshape(8, 8)
        y = op_convolve(kernel).apply(x)
        dft = op_dft2((8, 8))
        lhs = spectrum(dft.apply(y))
        rhs = spectrum(dft.apply(kernel)) * spectrum(dft.apply(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_dot(self):
        kernel = embed_kernel(gaussian_kernel(5, 1.2), (12, 12))
        assert dot_test(op_convolve(kernel), trials=100, seed=5) < FFTTOL

    def test_adjoint_is_correlation(self):
        kernel = normal_stream(16, 1.0, 326).reshape(4, 4)
        op = op_convolve(kernel)
        dense = dense_matrix(op)
        y = normal_stream(16, 1.0, 327).reshape(4, 4)
        assert np.allclose(op.adjoint(y).ravel(), dense.T @ y.ravel(), atol=1e-12)

    def test_rejects_a_complex_kernel(self):
        kernel = np.zeros((4, 4), dtype=complex)
        kernel[0, 0] = 1.0
        with pytest.raises(ValidationError, match="^op_convolve takes real values, not complex ones$"):
            op_convolve(kernel)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_an_empty_kernel(self, shape):
        with pytest.raises(ValidationError, match="^op_convolve expects a non-empty 2D raster$"):
            op_convolve(np.zeros(shape))


class TestEmbedKernel:
    def test_center_moves_to_origin(self):
        kernel = np.arange(9, dtype=float).reshape(3, 3)
        big = embed_kernel(kernel, (6, 6))
        assert big[0, 0] == kernel[1, 1]
        assert big.sum() == kernel.sum()

    def test_rejects_oversize(self):
        with pytest.raises(ValidationError):
            embed_kernel(np.ones((7, 7)), (6, 6))


class TestGrad:
    def test_finite_differences(self):
        x = normal_stream(20, 1.0, 340).reshape(4, 5)
        g = op_grad((4, 5)).apply(x)
        assert g.shape == (2, 4, 5)
        assert np.allclose(g[0, :, :-1], x[:, 1:] - x[:, :-1], atol=1e-15)
        assert np.allclose(g[1, :-1, :], x[1:, :] - x[:-1, :], atol=1e-15)
        assert np.all(g[0, :, -1] == 0.0) and np.all(g[1, -1, :] == 0.0)

    def test_constant_image_has_zero_grad(self):
        g = op_grad((6, 6)).apply(np.full((6, 6), 3.7))
        assert np.all(g == 0.0)

    def test_horizontal_ramp(self):
        # f(i, j) = j: horizontal channel all ones except the clamped last
        # column, vertical channel identically zero
        ys, xs = np.mgrid[0:5, 0:6]
        g = op_grad((5, 6)).apply(xs.astype(float))
        assert np.all(g[0, :, :-1] == 1.0) and np.all(g[0, :, -1] == 0.0)
        assert np.all(g[1] == 0.0)

    def test_dot(self):
        assert dot_test(op_grad((9, 7)), trials=100, seed=7) < EXACT

    def test_adjoint_matches_dense_transpose(self):
        op = op_grad((4, 4))
        dense = dense_matrix(op)
        y = normal_stream(32, 1.0, 341).reshape(2, 4, 4)
        assert np.allclose(op.adjoint(y).ravel(), dense.T @ y.ravel(), atol=1e-12)


def reference_grad(h, w):
    """(apply, adjoint, normal) of op_grad as strided 2D slices, the oracle."""

    def forward(x):
        g = np.zeros((2, h, w))
        g[0, :, : w - 1] = x[:, 1:] - x[:, : w - 1]
        g[1, : h - 1, :] = x[1:, :] - x[: h - 1, :]
        return g

    def scatter(gx, gy):
        out = np.zeros((h, w))
        if w > 1:
            out[:, 1:] += gx
            out[:, : w - 1] -= gx
        if h > 1:
            out[1:, :] += gy
            out[: h - 1, :] -= gy
        return out

    return (
        forward,
        lambda g: scatter(g[0, :, : w - 1], g[1, : h - 1, :]),
        lambda x: scatter(x[:, 1:] - x[:, : w - 1], x[1:, :] - x[: h - 1, :]),
    )


def reference_convolve(kernel):
    """(apply, adjoint, normal) of op_convolve through numpy's rfft2/irfft2."""
    khat = np.fft.rfft2(kernel)
    power = khat.real**2 + khat.imag**2

    def filtered(x, weights):
        spectrum = np.fft.rfft2(x)
        spectrum *= weights
        return np.fft.irfft2(spectrum, s=kernel.shape)

    return (
        lambda x: filtered(x, khat),
        lambda y: filtered(y, np.conj(khat)),
        lambda x: filtered(x, power),
    )


def signed_field(shape, seed):
    """A random field with +0.0 and -0.0 entries mixed in."""
    x = _random_field(shape, seed)
    x.flat[::3] = -0.0
    x.flat[1::5] = 0.0
    return x


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_matches_reference(op, reference, seed):
    """apply, adjoint and normal equal the oracle bit for bit, inputs untouched."""
    x = signed_field(op.domain_shape, seed)
    y = signed_field(op.range_shape, seed + 1)
    for method, oracle, arg in zip((op.apply, op.adjoint, op.normal), reference, (x, y, x)):
        before = arg.copy()
        assert_bit_equal(method(arg), oracle(before))
        assert_bit_equal(arg, before)


def convolve_case(shape, seed):
    """(op_convolve, its oracle) for a random real kernel on ``shape``."""
    kernel = _random_field(shape, seed)
    return op_convolve(kernel), reference_convolve(kernel)


STENCIL_SHAPES = [(1, 1), (1, 7), (7, 1), (9, 7), (128, 128)]


class TestBitExactStencils:
    """The flat-raster gradient and in-place convolution match the 2D forms."""

    @pytest.mark.parametrize("shape", STENCIL_SHAPES, ids=str)
    def test_grad(self, shape):
        assert_matches_reference(op_grad(shape), reference_grad(*shape), seed=360)

    @pytest.mark.parametrize("shape", STENCIL_SHAPES, ids=lambda shape: f"{shape}-real-circular")
    def test_convolve(self, shape):
        op, reference = convolve_case(shape, seed=361)
        assert_matches_reference(op, reference, seed=362)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(h=st.integers(1, 20), w=st.integers(1, 20))
def test_generated_stencils_are_bit_exact(h, w):
    assert_matches_reference(op_grad((h, w)), reference_grad(h, w), seed=364)
    op, reference = convolve_case((h, w), seed=365)
    assert_matches_reference(op, reference, seed=366)


def spectrum(parts):
    """The complex spectrum whose real and imaginary parts ``op_dft2`` stacks."""
    return parts[0] + 1j * parts[1]


class TestDft2Operator:
    def test_forward_matches_fft(self):
        x = normal_stream(48, 1.0, 350).reshape(6, 8)
        parts = op_dft2((6, 8)).apply(x)
        assert parts.shape == (2, 6, 8) and parts.dtype == np.float64
        assert np.allclose(spectrum(parts), np.fft.fft2(x), atol=1e-10)

    def test_dot(self):
        assert dot_test(op_dft2((8, 8)), trials=100, seed=8) < FFTTOL

    def test_unitary_up_to_scale(self):
        # A* A = N I for the unnormalized transform
        op = op_dft2((4, 6))
        x = normal_stream(24, 1.0, 351).reshape(4, 6)
        assert np.allclose(op.adjoint(op.apply(x)), 24.0 * x, atol=1e-10)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (-1, 4)])
    def test_rejects_a_non_positive_shape(self, shape):
        want = r"^op_dft2 shape must be a \(height, width\) pair of integers >= 1$"
        with pytest.raises(ValidationError, match=want):
            op_dft2(shape)


class TestCompose:
    def test_mri_style_composition(self):
        mask = random_mask((8, 8), 0.4, seed=11)
        op = op_compose(op_mask(np.stack([mask, mask])), op_dft2((8, 8)))
        assert op.domain_shape == (8, 8) and op.range_shape == (2 * np.count_nonzero(mask),)
        assert dot_test(op, trials=100, seed=9) < FFTTOL

    def test_five_random_compositions(self):
        for trial in range(5):
            shape = (6 + trial, 8 - trial % 3)
            w = normal_stream(shape[0] * shape[1], 1.0, 360 + trial).reshape(shape)
            mask = random_mask(shape, 0.5, seed=370 + trial)
            kernel = embed_kernel(gaussian_kernel(3, 0.9), shape)
            op = op_compose(op_mask(mask), op_compose(op_multiply(w), op_convolve(kernel)))
            assert dot_test(op, trials=100, seed=380 + trial) < FFTTOL

    def test_identity_compose_transparent(self):
        kernel = embed_kernel(gaussian_kernel(3, 1.0), (6, 6))
        a = op_convolve(kernel)
        combo = op_compose(op_multiply(np.ones((6, 6))), a)
        x = normal_stream(36, 1.0, 365).reshape(6, 6)
        assert np.allclose(combo.apply(x), a.apply(x), atol=1e-14)

    def test_adjoint_of_composition_reverses(self):
        a = op_matrix(normal_stream(12, 1.0, 366).reshape(3, 4))
        b = op_matrix(normal_stream(20, 1.0, 367).reshape(4, 5))
        combo = op_compose(a, b)
        y = normal_stream(3, 1.0, 368)
        assert np.allclose(combo.adjoint(y), b.adjoint(a.adjoint(y)), atol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            op_compose(op_multiply(np.ones((3, 3))), op_multiply(np.ones((4, 4))))

    def test_field_mismatch_rejected(self):
        # a spectrum's (2, h, w) stack of parts does not feed an image operator
        with pytest.raises(ValidationError, match="cannot compose"):
            op_compose(op_multiply(np.ones((4, 4))), op_dft2((4, 4)))


def _normal_cases():
    cases = _selftest_cases()
    for shape in [(7, 9), (1, 16), (16, 1)]:
        n = shape[0] * shape[1]
        kernel = normal_stream(n, 1.0, 400 + n).reshape(shape)
        label = f"{shape[0]}x{shape[1]}"
        cases.append((f"grad_{label}", op_grad(shape), EXACT))
        cases.append((f"convolve_circular_{label}", op_convolve(kernel), FFTTOL))
        blur = op_compose(op_mask(random_mask(shape, 0.5, seed=410 + n)), op_convolve(kernel))
        cases.append((f"mask_convolve_{label}", blur, FFTTOL))
    return cases


NORMAL_CASES = _normal_cases()


@pytest.mark.parametrize("name,op,tol", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
class TestNormal:
    def test_matches_adjoint_of_apply(self, name, op, tol):
        for trial in range(3):
            x = _random_field(op.domain_shape, 420 + trial)
            want = op.adjoint(op.apply(x))
            got = op.normal(x)
            assert got.shape == op.domain_shape
            scale = max(float(np.linalg.norm(want.ravel())), 1e-300)
            assert float(np.linalg.norm((got - want).ravel())) <= 1e-12 * scale

    def test_self_adjoint(self, name, op, tol):
        for trial in range(10):
            x = _random_field(op.domain_shape, 430 + 2 * trial)
            y = _random_field(op.domain_shape, 431 + 2 * trial)
            lhs = np.vdot(y.ravel(), op.normal(x).ravel())
            rhs = np.vdot(op.normal(y).ravel(), x.ravel())
            assert abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), 1e-300)


SELFTEST_CASES = _selftest_cases()


@pytest.mark.parametrize("name,op,tol", SELFTEST_CASES, ids=[c[0] for c in SELFTEST_CASES])
def test_conormal_matches_apply_of_adjoint(name, op, tol):
    # A A* on the range side, fused or not, is the plain composition
    for trial in range(3):
        y = _random_field(op.range_shape, 440 + trial)
        want = op.apply(op.adjoint(y))
        got = op._conormal(y)
        assert got.shape == op.range_shape
        scale = max(float(np.linalg.norm(want.ravel())), 1e-300)
        assert float(np.linalg.norm((got - want).ravel())) <= 1e-12 * scale


def test_mask_after_blur_conormal_is_one_real_fft_pair(monkeypatch):
    # one scatter, one filtered pass and one gather; A* A costs two pairs
    shape = (16, 16)
    op = op_compose(
        op_mask(random_mask(shape, 0.3, seed=3)),
        op_convolve(embed_kernel(gaussian_kernel(5, 1.0), shape)),
    )
    y = _random_field(op.range_shape, 450)
    calls = []
    for fn in ("rfft", "irfft"):
        original = getattr(np.fft, fn)

        def counted(*args, _fn=fn, _original=original, **kwargs):
            calls.append(_fn)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, fn, counted)
    op._conormal(y)
    assert sorted(calls) == ["irfft", "rfft"]
    calls.clear()
    op.normal(_random_field(op.domain_shape, 451))
    assert sorted(calls) == ["irfft", "irfft", "rfft", "rfft"]


def _generated_part(kind, shape, seed):
    """One operator of ``kind`` on ``shape`` and its ``_selftest_cases`` tolerance."""
    if kind == "multiply":
        return op_multiply(_random_field(shape, seed)), EXACT
    if kind == "convolve_circular":
        return op_convolve(_random_field(shape, seed)), FFTTOL
    if kind == "dft2":
        return op_dft2(shape), FFTTOL
    if kind == "mask":
        # after dft2, the same frequencies of both of the spectrum's parts
        return op_mask(np.broadcast_to(random_mask(shape[-2:], 0.5, seed), shape)), EXACT
    return op_grad(shape), EXACT


@st.composite
def _generated_chains(draw):
    """``(h, w, kinds, seed)``: operator kinds, innermost first."""
    # the image kinds map (h, w) to itself; dft2 maps it to the (2, h, w)
    # spectrum parts, which only a mask can follow
    spectral = draw(st.booleans())
    outer = [None, "mask"] + ([] if spectral else ["grad"])
    last = draw(st.sampled_from(outer))
    image = ["multiply", "convolve_circular"]
    least = 0 if last or spectral else 1
    kinds = draw(st.lists(st.sampled_from(image), min_size=least, max_size=2))
    kinds += (["dft2"] if spectral else []) + ([last] if last else [])
    h, w, seed = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(0, 2**16))
    return h, w, kinds, seed


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(chain=_generated_chains())
@example(chain=(1, 9, ["convolve_circular", "grad"], 3))
@example(chain=(9, 1, ["multiply", "dft2", "mask"], 4))
@example(chain=(7, 5, ["multiply", "convolve_circular", "mask"], 6))
def test_generated_operators_pair_and_fuse_their_normals(chain):
    h, w, kinds, seed = chain
    op, tol = _generated_part(kinds[0], (h, w), seed)
    for k, kind in enumerate(kinds[1:], start=1):
        outer, outer_tol = _generated_part(kind, op.range_shape, seed + k)
        op, tol = op_compose(outer, op), max(tol, outer_tol)
    assert dot_test(op, trials=25, seed=seed) <= tol
    assert normal_test(op, seed=seed) <= 1e-12
    y = _random_field(op.range_shape, seed)
    want = op.apply(op.adjoint(y))
    err = float(np.linalg.norm((op._conormal(y) - want).ravel()))
    assert err <= 1e-12 * max(float(np.linalg.norm(want.ravel())), 1e-300)


class TestValidateOnce:
    """A composite checks its input at the outermost call, not inside its parts."""

    shape = (12, 10)

    @pytest.fixture
    def blur(self):
        mask = random_mask(self.shape, 0.5, seed=440)
        return op_compose(
            op_mask(mask), op_convolve(embed_kernel(gaussian_kernel(3, 1.0), self.shape))
        )

    def _calls(self, blur):
        return {
            "apply": (blur.apply, blur.domain_shape),
            "adjoint": (blur.adjoint, blur.range_shape),
            "normal": (blur.normal, blur.domain_shape),
        }

    @pytest.mark.parametrize("side", ["apply", "adjoint", "normal"])
    def test_wrong_input_raises_validation_error(self, blur, side):
        call, shape = self._calls(blur)[side]
        wrong_shape = np.zeros(shape[:-1] + (shape[-1] + 1,))
        complex_input = np.zeros(shape, dtype=complex)
        nonfinite = np.zeros(shape)
        nonfinite.flat[3] = np.nan
        for bad in (wrong_shape, complex_input, nonfinite):
            with pytest.raises(ValidationError, match=r"^mask\*convolve_circular: "):
                call(bad)

    @pytest.mark.parametrize("side", ["apply", "adjoint", "normal"])
    def test_one_check_per_call(self, blur, side, monkeypatch):
        checked = []
        original = LinearMap._coerce

        def counting(self, *args):
            checked.append(self.name)
            return original(self, *args)

        monkeypatch.setattr(LinearMap, "_coerce", counting)
        call, shape = self._calls(blur)[side]
        call(np.ones(shape))
        assert checked == ["mask*convolve_circular"]


class TestMatrixAdapter:
    def test_matches_dense_products(self):
        a = normal_stream(35, 1.0, 390).reshape(5, 7)
        op = op_matrix(a)
        x = normal_stream(7, 1.0, 391)
        y = normal_stream(5, 1.0, 392)
        assert np.allclose(op.apply(x), a @ x, atol=1e-13)
        assert np.allclose(op.adjoint(y), a.T @ y, atol=1e-13)
        assert dot_test(op, trials=100, seed=10) < EXACT

    def test_rejects_a_complex_matrix(self):
        with pytest.raises(ValidationError, match="^op_matrix takes real values, not complex ones$"):
            op_matrix(np.eye(3) * 1j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_matrix(self, bad):
        with pytest.raises(ValidationError, match="^op_matrix input contains non-finite samples$"):
            op_matrix([[bad, 1.0], [0.0, 1.0]])


class TestHaar:
    def test_orthonormal_energy(self):
        img = normal_stream(256, 1.0, 400).reshape(16, 16)
        coeffs = op_haar((16, 16), 2).apply(img)
        assert abs(np.sum(coeffs**2) - np.sum(img**2)) < 1e-10

    def test_round_trip(self):
        img = normal_stream(64, 1.0, 401).reshape(8, 8)
        haar = op_haar((8, 8), 3)
        back = haar.adjoint(haar.apply(img))
        assert np.max(np.abs(back - img)) < 1e-12

    def test_single_level_pairs(self):
        # rows patterned [a, a, b, b]: detail coefficients inside constant
        # pairs are exactly zero; averages land in the low-pass quadrant
        img = np.tile(np.array([[2.0, 2.0, 6.0, 6.0]]), (4, 1))
        out = op_haar((4, 4), 1).apply(img)
        expected = np.zeros((4, 4))
        expected[:2, 0] = 4.0
        expected[:2, 1] = 12.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_dense_matrix_is_orthonormal(self):
        mat = dense_matrix(op_haar((8, 8), 3))
        assert np.max(np.abs(mat.T @ mat - np.eye(64))) < 1e-10

    def test_levels_validated(self):
        with pytest.raises(ValidationError, match="does not divide by 2"):
            op_haar((6, 6), 2)  # 6 % 4 != 0
        with pytest.raises(ValidationError):
            op_haar((8, 8), 0)
        # 1 << 2**40 would be a 128 GiB integer; a count past the shape's bit length
        # is rejected before any shift, with the same message as 6 levels on 32x32
        for levels in (6, 2**40):
            with pytest.raises(ValidationError, match=rf"^op_haar shape 32x32 .* 2\^{levels} on"):
                op_haar((32, 32), levels)

    @pytest.mark.parametrize("shape, deepest", [((32, 32), 5), ((16, 64), 4), ((8, 24), 3)])
    def test_the_deepest_level_count_builds_and_one_more_is_rejected(self, shape, deepest):
        mat = dense_matrix(op_haar(shape, deepest))
        assert np.max(np.abs(mat.T @ mat - np.eye(mat.shape[1]))) < 1e-10
        with pytest.raises(ValidationError, match=rf"does not divide by 2\^{deepest + 1} on"):
            op_haar(shape, deepest + 1)

    def test_bare_array_in_and_out_leaves_the_input(self):
        img = normal_stream(64, 1.0, 402).reshape(8, 8)
        kept = img.copy()
        haar = op_haar((8, 8), 3)
        coeffs = haar.apply(img)
        assert type(coeffs) is np.ndarray
        assert np.array_equal(img, kept)
        kept = coeffs.copy()
        assert np.max(np.abs(haar.adjoint(coeffs) - img)) < 1e-12
        assert np.array_equal(coeffs, kept)  # the synthesis works on a copy too


class TestDct8:
    def test_matches_scipy_blockwise(self):
        img = normal_stream(256, 1.0, 410).reshape(16, 16)
        mine = op_dct8((16, 16)).apply(img)
        ref = np.zeros((16, 16))
        for by in range(0, 16, 8):
            for bx in range(0, 16, 8):
                ref[by : by + 8, bx : bx + 8] = scipy.fft.dctn(
                    img[by : by + 8, bx : bx + 8], norm="ortho"
                )
        assert np.max(np.abs(mine - ref)) < 1e-10

    def test_round_trip_and_energy(self):
        img = normal_stream(1024, 1.0, 411).reshape(32, 32)
        dct = op_dct8((32, 32))
        for op in (dct, op_haar((32, 32), 4)):
            assert abs(np.sum(op.apply(img) ** 2) - np.sum(img**2)) < 1e-10
        back = dct.adjoint(dct.apply(img))
        assert np.max(np.abs(back - img)) < 1e-12

    def test_requires_multiple_of_eight(self):
        with pytest.raises(ValidationError, match="not divisible into 8x8 blocks"):
            op_dct8((12, 12))

    def test_constant_block_concentrates_dc(self):
        img = np.full((8, 8), 2.0)
        coeffs = op_dct8((8, 8)).apply(img)
        assert coeffs[0, 0] == pytest.approx(16.0)  # 2 * 8 with ortho scaling
        off = coeffs.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_bare_array_in_and_out_leaves_the_input(self):
        img = normal_stream(256, 1.0, 412).reshape(16, 16)
        kept = img.copy()
        dct = op_dct8((16, 16))
        coeffs = dct.apply(img)
        assert type(coeffs) is np.ndarray
        assert np.array_equal(img, kept)
        assert np.max(np.abs(dct.adjoint(coeffs) - img)) < 1e-12


@pytest.mark.parametrize(
    "name,op", [("haar", op_haar((8, 8), 1)), ("dct8", op_dct8((8, 8)))], ids=["haar", "dct8"]
)
class TestTransformInputs:
    """A transform checks its raster as an operator input, on either side."""

    def test_takes_float32_and_integer_rasters(self, name, op):
        img = normal_stream(64, 1.0, 5).reshape(8, 8)
        for call in (op.apply, op.adjoint):
            narrow = img.astype(np.float32)
            assert np.array_equal(call(narrow), call(narrow.astype(np.float64)))
            ints = np.arange(64).reshape(8, 8) % 5
            assert np.array_equal(call(ints), call(ints.astype(np.float64)))

    def test_rejects_a_wrong_shape_complex_or_non_finite_input(self, name, op):
        nonfinite = np.zeros((8, 8))
        nonfinite[2, 3] = np.inf
        for side, call in (("domain", op.apply), ("range", op.adjoint)):
            for bad, text in (
                (np.zeros(8), f"{side} shape (8,) does not match (8, 8)"),
                (np.zeros((8, 8)) + 1j, f"{side} input must be real"),
                (nonfinite, f"{side} input contains non-finite samples"),
            ):
                with pytest.raises(ValidationError, match=f"^{re.escape(f'{name}: {text}')}$"):
                    call(bad)


class TestDiagnostics:
    def test_dot_test_catches_wrong_adjoint(self):
        a = normal_stream(12, 1.0, 420).reshape(3, 4)
        broken = LinearMap((4,), (3,), lambda x: a @ x, lambda y: (a + 0.01).T @ y)
        assert dot_test(broken, trials=10, seed=2) > 1e-4
