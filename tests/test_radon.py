"""Ray transform: geometry, invariants, the analytic oracle, and the slice law.

The analytic chord-length sinogram of ellipse phantoms provides the forward
oracle; the adjoint needs no oracle because the dot test pins it to the
forward to machine precision.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit import (
    Ellipse,
    RadonGeometry,
    SHEPP_LOGAN,
    ValidationError,
    analytic_sinogram,
    dot_test,
    fbp,
    fourier_slice_check,
    op_radon,
    render,
    shepp_logan,
)
from reconkit import operators
from reconkit.grids import normal_stream
from reconkit.operators import _bilinear_stencil

DISK = (Ellipse(0.0, 0.0, 0.6, 0.6, 0.0, 1.0),)


class TestGeometry:
    def test_angles_cover_half_turn(self):
        geom = RadonGeometry(6, 32)
        assert np.allclose(geom.angles, np.arange(6) * np.pi / 6.0)
        assert geom.angles[-1] < np.pi

    def test_validation(self):
        with pytest.raises(ValidationError):
            RadonGeometry(0, 8)
        with pytest.raises(ValidationError):
            RadonGeometry(8, 0)
        with pytest.raises(ValidationError):
            RadonGeometry(8, 8, detector_pitch=0.0)

    @pytest.mark.parametrize("counts", [(2.5, 16), (4, 16.0), (True, 16), (4, False), ("4", 16)])
    def test_rejects_counts_that_are_not_integers(self, counts):
        with pytest.raises(ValidationError, match="^RadonGeometry n_(angles|detectors) must be an integer >= 1$"):
            RadonGeometry(*counts)

    def test_takes_numpy_integer_counts(self):
        geom = RadonGeometry(np.int64(4), np.int32(16))
        assert op_radon(geom, (16, 16)).range_shape == (4, 16)

    def test_sinogram_validation(self):
        # fbp takes a sinogram raster beside its geometry, and their shapes must agree
        geom = RadonGeometry(2, 4)
        for shape in ((3, 4), (2, 5), (4, 2)):
            with pytest.raises(ValidationError, match="does not match geometry"):
                fbp(np.zeros(shape), geom)
        for bad in (np.zeros(8), np.zeros((0, 4))):
            with pytest.raises(ValidationError, match="expects a non-empty 2D raster"):
                fbp(bad, geom)
        with pytest.raises(ValidationError, match="non-finite"):
            fbp(np.full((2, 4), np.nan), geom)
        assert np.array_equal(fbp(np.zeros((2, 4)), geom), np.zeros((4, 4)))


class TestRadonInvariants:
    def test_bare_array_is_the_operator_apply(self):
        # a sinogram is the operator's bare (n_angles, n_detectors) float64
        # array, as analytic_sinogram's is, and fbp takes it as it is
        img = normal_stream(256, 1.0, 7).reshape(16, 16)
        geom = RadonGeometry(6, 16)
        for sino in (op_radon(geom, (16, 16)).apply(img), analytic_sinogram(DISK, geom, 16)):
            assert type(sino) is np.ndarray
            assert sino.dtype == np.float64 and sino.shape == (6, 16)
            assert fbp(sino, geom).shape == (16, 16)

    def test_mass_preserved_per_view(self):
        # each view's detector sum approximates the image integral
        img = shepp_logan(64)
        total = img.sum()
        sino = op_radon(RadonGeometry(24, 96), img.shape).apply(img)
        view_sums = sino.sum(axis=1)
        assert np.max(np.abs(view_sums - total)) / total < 0.01

    def test_disk_views_are_symmetric_with_central_peak(self):
        img = render(DISK, 64)
        sino = op_radon(RadonGeometry(12, 64), img.shape).apply(img)
        for a in range(12):
            assert np.allclose(sino[a], sino[a, ::-1], atol=1e-8)
            # the chord profile is flat near its center, so pixelation can
            # tie neighbors with the central bins; demand the central bins
            # sit within a percent of the row maximum rather than argmax
            center = max(sino[a, 31], sino[a, 32])
            assert center >= 0.99 * sino[a].max()
        # cross-angle consistency of a rotation-invariant object (regression
        # bound: measured 1.24% once, frozen with margin)
        rel = np.linalg.norm(sino - sino.mean(axis=0)[None, :]) / np.linalg.norm(sino)
        assert rel < 0.03

    def test_nonnegative_image_gives_nonnegative_sinogram(self):
        img = shepp_logan(48)
        assert img.min() >= 0.0
        assert op_radon(RadonGeometry(16, 64), img.shape).apply(img).min() >= 0.0

    def test_centered_square_axis_aligned(self):
        # centered unit square of side s at theta = 0: projection is s inside
        # |y| < s/2 and zero outside, up to the one-pixel interpolation ramp
        size = 64
        s = 20
        img = np.zeros((size, size))
        lo = (size - s) // 2
        img[lo : lo + s, lo : lo + s] = 1.0
        proj = op_radon(RadonGeometry(1, size), (size, size)).apply(img)[0]
        offs = np.arange(size) - (size - 1) / 2.0
        interior = np.abs(offs) < s / 2.0 - 1.0
        exterior = np.abs(offs) > s / 2.0 + 1.0
        assert np.max(np.abs(proj[interior] - s)) < 1e-9
        assert np.max(np.abs(proj[exterior])) < 1e-9

    def test_detector_pitch_scales_offsets(self):
        img = render(DISK, 64)
        fine = op_radon(RadonGeometry(4, 128, detector_pitch=0.5), img.shape).apply(img)
        coarse = op_radon(RadonGeometry(4, 64, detector_pitch=1.0), img.shape).apply(img)
        # the even samples of the fine sinogram sit between coarse samples;
        # compare total mass instead of the raw grids
        assert abs(fine.sum() * 0.5 - coarse.sum()) / abs(coarse.sum()) < 0.02

    def test_deterministic_applies(self):
        op = op_radon(RadonGeometry(10, 32), (32, 32))
        x = shepp_logan(32)
        assert np.array_equal(op.apply(x), op.apply(x))


class TestAnalyticOracle:
    def test_discrete_matches_analytic_disk(self):
        img = render(DISK, 128)
        geom = RadonGeometry(36, 128)
        discrete = op_radon(geom, img.shape).apply(img)
        exact = analytic_sinogram(DISK, geom, 128)
        rel = np.linalg.norm(discrete - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    def test_discrete_matches_analytic_head(self):
        img = shepp_logan(128)
        geom = RadonGeometry(30, 128)
        discrete = op_radon(geom, img.shape).apply(img)
        exact = analytic_sinogram(SHEPP_LOGAN, geom, 128)
        rel = np.linalg.norm(discrete - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    def test_analytic_disk_chord_values(self):
        # chord length of a line at offset s through a radius-r disk:
        # 2 sqrt(r^2 - s^2), in pixels via the size/2 unit scale
        size = 100
        geom = RadonGeometry(3, size)
        sino = analytic_sinogram(DISK, geom, size)
        scale = size / 2.0
        offs = (np.arange(size) - (size - 1) / 2.0) / scale
        inside = np.abs(offs) < 0.6
        expected = np.zeros(size)
        expected[inside] = 2.0 * np.sqrt(0.6**2 - offs[inside] ** 2) * scale
        for a in range(3):
            assert np.max(np.abs(sino[a] - expected)) < 1e-9


@pytest.mark.parametrize(
    "geom,shape",
    [
        (RadonGeometry(12, 16), (16, 16)),
        (RadonGeometry(30, 48, detector_pitch=0.7), (32, 32)),
        (RadonGeometry(7, 24, detector_pitch=1.3), (24, 18)),
    ],
)
class TestAdjointPairing:
    def test_dot(self, geom, shape):
        assert dot_test(op_radon(geom, shape), trials=100, seed=13) < 1e-6

    def test_per_view_path_matches_cached(self, geom, shape, monkeypatch):
        cached = op_radon(geom, shape)
        monkeypatch.setattr(operators, "_RADON_CACHE_BUDGET", 0)
        per_view = op_radon(geom, shape)
        x = normal_stream(shape[0] * shape[1], 1.0, 21).reshape(shape)
        y = normal_stream(geom.n_angles * geom.n_detectors, 1.0, 22).reshape(
            geom.n_angles, geom.n_detectors
        )
        assert np.array_equal(per_view.apply(x), cached.apply(x))
        # both paths sum the same per-view tables in the same order
        assert np.array_equal(per_view.adjoint(y), cached.adjoint(y))
        assert np.array_equal(per_view.normal(x), cached.normal(x))
        assert dot_test(per_view, trials=100, seed=13) < 1e-6


class TestAxisAngles:
    def test_half_turn_view_of_a_wide_image_is_the_tall_image_first_view(self):
        # at pi/2 the rays of a 48x64 image run along its rows, as those of
        # the transposed 64x48 image do at 0; no border ray may be dropped
        geom = RadonGeometry(30, 64)
        wide = op_radon(geom, (48, 64)).apply(np.ones((48, 64)))[15]
        tall = op_radon(geom, (64, 48)).apply(np.ones((64, 48)))[0]
        assert wide.sum() == 3024.0
        assert np.array_equal(wide, tall)

    def test_constant_square_reads_the_same_at_zero_and_half_turn(self):
        sino = op_radon(RadonGeometry(30, 64), (64, 64)).apply(np.ones((64, 64)))
        for view in (0, 15):
            assert sino[view].sum() == 4096.0
            assert sino[view, 0] == 64.0


def _built_forward(geom, shape, x):
    """Every view's forward through a table built at its own angle."""
    out = np.zeros((geom.n_angles, geom.n_detectors))
    for a, theta in enumerate(geom.angles):
        rays, _, starts, cols, vals = operators._radon_view_table(theta, shape, geom.offsets)
        out[a, rays] = operators._ray_sums(x.ravel(), starts, cols, vals)
    return out


def _assert_views_match_built(op, geom, shape, seed=41):
    # ray by ray: a view turned the wrong way reverses its detector order, and a
    # reflection without the transpose permutation samples the source's pixels
    x = normal_stream(shape[0] * shape[1], 1.0, seed).reshape(shape)
    want = _built_forward(geom, shape, x)
    got = op.apply(x)
    for a in range(geom.n_angles):
        scale = max(float(np.max(np.abs(want[a]))), 1e-300)
        assert np.max(np.abs(got[a] - want[a])) <= 1e-13 * scale, f"view {a}"


class TestDerivedViews:
    @pytest.mark.parametrize(
        "geom, size",
        [
            (RadonGeometry(2, 8), 8),
            (RadonGeometry(12, 16), 16),
            (RadonGeometry(30, 37, detector_pitch=0.8), 48),
            (RadonGeometry(30, 64), 64),
            (RadonGeometry(40, 33, detector_pitch=1.3), 33),
        ],
    )
    def test_each_view_matches_its_built_table(self, geom, size):
        _assert_views_match_built(op_radon(geom, (size, size)), geom, (size, size))

    def test_each_view_matches_its_built_table_over_budget(self):
        geom, shape = RadonGeometry(180, 256), (256, 256)
        op = op_radon(geom, shape)
        span = int(np.ceil(np.hypot(*shape))) + 1
        assert geom.n_angles * geom.n_detectors * span > operators._RADON_CACHE_BUDGET
        _assert_views_match_built(op, geom, shape)

    @pytest.mark.parametrize(
        "geom, shape, builds",
        [
            (RadonGeometry(30, 64), (64, 64), 8),
            (RadonGeometry(40, 32), (32, 32), 11),
            (RadonGeometry(2, 16), (16, 16), 1),
            (RadonGeometry(31, 64), (64, 64), 31),
            (RadonGeometry(30, 64), (48, 64), 30),
        ],
        ids=["square_even", "self_reflecting", "two_views", "odd_views", "non_square"],
    )
    @pytest.mark.parametrize("budget", [None, 0], ids=["cached", "over_budget"])
    def test_builds_only_the_views_to_pi_over_4_on_square_even_geometries(
        self, monkeypatch, geom, shape, builds, budget
    ):
        calls = []
        build = operators._radon_view_table

        def counted(theta, *args):
            calls.append(theta)
            return build(theta, *args)

        monkeypatch.setattr(operators, "_radon_view_table", counted)
        if budget is not None:
            monkeypatch.setattr(operators, "_RADON_CACHE_BUDGET", budget)
        op = op_radon(geom, shape)
        x = np.ones(shape)
        y = op.apply(x)
        op.adjoint(y)
        op.normal(x)
        per_apply = 1 if budget is None else 3
        assert len(calls) == builds * per_apply
        # only the views in [0, pi/4] are built when the others are derived
        assert sorted(set(calls)) == sorted(geom.angles[:builds])
        if builds < geom.n_angles:
            assert geom.angles[builds - 1] <= np.pi / 4 < geom.angles[builds]


def _stencil_matrix(geom, shape):
    """The ray transform as a dense matrix, scattered from the bilinear stencil."""
    h, w = shape
    mat = np.zeros((geom.n_angles, geom.n_detectors, h * w))
    rays = np.arange(geom.n_detectors)[:, None]
    for a, theta in enumerate(geom.angles):
        xs, ys = operators._ray_points(theta, shape, geom.offsets)
        for idx, wgt in zip(*_bilinear_stencil(shape, xs, ys)):
            np.add.at(mat[a], (np.broadcast_to(rays, idx.shape), idx), wgt)
    return mat.reshape(-1, h * w)


def _dense(op, size):
    return np.stack([op.apply(e.reshape(op.domain_shape)).ravel() for e in np.eye(size)], axis=1)


# generated shapes include 2xN, Nx2 and odd sizes, and detector counts that
# differ from the image size
_GEOMETRIES = dict(
    h=st.integers(2, 11),
    w=st.integers(2, 11),
    n_det=st.integers(1, 17),
    pitch=st.floats(0.3, 2.5),
    n_angles=st.integers(1, 40),
)


def _generated_geometries(test):
    test = example(h=2, w=2, n_det=2, pitch=2.5, n_angles=4)(test)  # every ray misses
    test = example(h=9, w=2, n_det=12, pitch=1.0, n_angles=40)(test)
    test = example(h=2, w=9, n_det=5, pitch=0.7, n_angles=13)(test)
    test = example(h=7, w=7, n_det=9, pitch=0.8, n_angles=10)(test)  # the turn and the reflection
    test = example(h=6, w=6, n_det=7, pitch=1.1, n_angles=8)(test)  # pi/4 reflects onto itself
    test = given(**_GEOMETRIES)(test)
    return settings(max_examples=25, derandomize=True, deadline=None, database=None)(test)


@_generated_geometries
def test_generated_geometries_pair_and_match_the_stencil(h, w, n_det, pitch, n_angles):
    geom, shape = RadonGeometry(n_angles, n_det, detector_pitch=pitch), (h, w)
    cached = op_radon(geom, shape)
    with mock.patch.object(operators, "_RADON_CACHE_BUDGET", 0):
        per_view = op_radon(geom, shape)
    assert dot_test(cached, trials=20, seed=5) < 1e-6
    assert dot_test(per_view, trials=20, seed=5) < 1e-6
    x = normal_stream(h * w, 1.0, 31).reshape(shape)
    assert np.array_equal(per_view.apply(x), cached.apply(x))
    for op in (cached, per_view):
        assert np.array_equal(op.normal(x), op.adjoint(op.apply(x)))
    want = _stencil_matrix(geom, shape)
    got = _dense(cached, h * w)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    _assert_views_match_built(cached, geom, shape)


@_generated_geometries
def test_view_tables_hold_each_live_stencil_pair_once(h, w, n_det, pitch, n_angles):
    # the oracle: every live corner of every sample in (ray, sample, corner)
    # order, grouped by (ray, pixel) and summed in that order by bincount
    geom, shape = RadonGeometry(n_angles, n_det, detector_pitch=pitch), (h, w)
    for theta in geom.angles:
        xs, ys = operators._ray_points(theta, shape, geom.offsets)
        indices, weights = _bilinear_stencil(shape, xs, ys)
        ray = np.repeat(np.arange(n_det), 4 * xs.shape[1])
        pix = np.stack(indices, axis=-1).ravel()
        wgt = np.stack(weights, axis=-1).ravel()
        live = wgt != 0.0
        pairs, group = np.unique(ray[live] * (h * w) + pix[live], return_inverse=True)
        summed = np.bincount(group, weights=wgt[live], minlength=pairs.size)

        rays, counts, starts, cols, vals = operators._radon_view_table(theta, shape, geom.offsets)
        got = np.repeat(rays, counts) * (h * w) + cols
        order = np.argsort(got)
        assert np.array_equal(got[order], pairs)
        assert np.array_equal(vals[order], summed)
        assert np.all(vals != 0.0)
        assert np.all(counts > 0)
        assert np.array_equal(starts, np.cumsum(counts) - counts)


class TestFourierSlice:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 4, np.pi / 2])
    def test_low_band_agreement(self, theta):
        img = shepp_logan(64)
        assert fourier_slice_check(img, theta) < 3e-2

    def test_square_required(self):
        with pytest.raises(ValidationError):
            fourier_slice_check(np.zeros((8, 10)), 0.0)

    def test_exact_reference_tightens_with_the_grid(self):
        # both sides are exact sums, so the mismatch is the projector's own
        # bilinear error, which halves with each doubling of the grid
        assert fourier_slice_check(shepp_logan(256), np.pi / 4) < 5e-3

    def test_windowed_image_tightens_agreement(self):
        img = shepp_logan(64)
        wnd = np.hanning(64)
        soft = img * np.outer(wnd, wnd)
        assert fourier_slice_check(soft, np.pi / 4) < fourier_slice_check(img, np.pi / 4)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_central_impulse_flat_spectrum(self, theta):
        # an impulse at the exact grid center has a flat spectrum; at the
        # axis-aligned angles the ray samples land on grid points, so both
        # routes are constant in magnitude and agree essentially exactly
        # (oblique angles pick up the interpolation transfer function and
        # belong to the windowed-image tolerance regime instead)
        size = 65
        data = np.zeros((size, size))
        data[32, 32] = 1.0
        assert fourier_slice_check(data, theta) < 1e-3
