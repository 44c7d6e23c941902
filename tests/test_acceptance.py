"""End-to-end acceptance gate.

One test per shipped guarantee.  Each prints a single PASS/FAIL line with
the measured value (visible under ``pytest -s``) and enforces the stated
tolerance; tests with a runtime budget enforce that too.  Expected numbers
are frozen from measured runs of this code, not tuned to make tests pass.
"""

import json
import time

import numpy as np
import pytest

from reconkit import (
    SHEPP_LOGAN,
    Objective,
    RadonGeometry,
    admm,
    analytic_sinogram,
    compressibility_study,
    conjugate_gradient_normal,
    dot_test,
    embed_kernel,
    fbp,
    fourier_slice_check,
    ista,
    nullspace_demo,
    objective_value,
    op_convolve,
    op_matrix,
    op_radon,
    shepp_logan,
    snr_db,
    sparse_recovery_instance,
    transform_dct8,
    transform_haar,
    wiener_deconvolve,
)
from reconkit.cli import _selftest_cases, main
from reconkit.grids import normal_stream


def report(num, name, ok, detail):
    line = f"ACCEPT {num:02d} {name:<36} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_gate_01_nullspace_reproduction():
    """Three starts, three answers, one residual; differences along (1,-1,-1)."""
    expected = [
        (1.70, 0.3667, 1.3333),
        (1.3667, 0.70, 1.6667),
        (-2.30, 4.3667, 5.3333),
    ]
    with Timer() as t:
        rep = nullspace_demo()
    table_ok = all(
        abs(got - want) <= 0.02
        for sol, exp in zip((r.final for r in rep.reports), expected)
        for got, want in zip(sol, exp)
    )
    sse_ok = all(abs(s - 0.0033) <= 0.0005 for s in rep.sse)
    axis = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
    diff_ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            d = rep.reports[i].final - rep.reports[j].final
            d = d / np.linalg.norm(d)
            diff_ok &= min(np.linalg.norm(d - axis), np.linalg.norm(d + axis)) <= 1e-4
    ok = table_ok and sse_ok and diff_ok and t.elapsed < 1.0
    report(1, "nullspace-three-solutions", ok,
           f"sse={rep.sse[0]:.6f} table_ok={table_ok} diffs_ok={diff_ok} {t.elapsed:.2f}s")


def test_gate_02_operator_dot_tests():
    """Every shipped operator passes <Ax,y>=<x,A*y> over 100 seeded trials."""
    cases = _selftest_cases()
    with Timer() as t:
        results = [(name, dot_test(op, trials=100, seed=200), tol) for name, op, tol in cases]
    worst = max(err / tol for _, err, tol in results)
    failed = [name for name, err, tol in results if err > tol]
    ok = not failed and t.elapsed < 30.0
    report(2, "operator-adjoint-consistency", ok,
           f"{len(cases)} ops x 100 trials, worst err/tol={worst:.2e}, {t.elapsed:.1f}s")


def test_gate_03_fourier_slice():
    """Projection DFT matches the central spectrum slice on the windowed phantom."""
    n = 256
    img = shepp_logan(n)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / (n - 1))
    windowed = img * np.outer(w, w)
    with Timer() as t:
        errs = [fourier_slice_check(windowed, th) for th in (0.0, np.pi / 6, np.pi / 4, np.pi / 2)]
    worst = max(errs)
    ok = worst < 3e-2 and t.elapsed < 10.0
    report(3, "fourier-slice-theorem", ok, f"worst rel err={worst:.2e} (tol 3e-2), {t.elapsed:.1f}s")


def test_gate_04_oracle_tomography():
    """Discrete ray transform tracks closed-form line integrals; FBP recovers."""
    with Timer() as t:
        truth = shepp_logan(256)
        geom = RadonGeometry(180, 256)
        num = op_radon(geom, truth.shape).apply(truth)
        ana = analytic_sinogram(SHEPP_LOGAN, geom, 256)
        rel = np.linalg.norm(num - ana) / np.linalg.norm(ana)
        snr180 = snr_db(truth, fbp(ana, geom, out_shape=(256, 256)))
        geom360 = RadonGeometry(360, 256)
        ana360 = analytic_sinogram(SHEPP_LOGAN, geom360, 256)
        snr360 = snr_db(truth, fbp(ana360, geom360, out_shape=(256, 256)))
    ok = rel < 0.02 and snr180 >= 15.0 and snr360 > snr180 and t.elapsed < 60.0
    report(4, "tomography-oracle-agreement", ok,
           f"rel={rel:.4f} (tol 0.02), fbp180={snr180:.2f} dB, fbp360={snr360:.2f} dB, {t.elapsed:.1f}s")


def dense_from_op(op, shape):
    n = shape[0] * shape[1]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(op.apply(e.reshape(shape)).ravel())
    return np.array(cols).T


def circulant_cov(prior, shape):
    n = shape[0] * shape[1]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(np.fft.ifft2(prior * np.fft.fft2(e.reshape(shape))).real.ravel())
    return np.array(cols).T


def test_gate_05_map_equals_mmse():
    """Frequency-domain regularized inverse == dense posterior mean, 20 instances."""
    shapes = [(4, 4), (4, 8), (2, 16), (8, 4), (2, 8), (4, 6), (3, 8), (2, 12), (4, 7), (5, 6)]
    with Timer() as t:
        worst_pair = worst_ne = 0.0
        for i in range(20):
            shape = shapes[i % len(shapes)]
            h, w = shape
            n = h * w
            base = 500 + 10 * i
            kw = 2 if min(h, w) < 3 else 3
            small = np.abs(normal_stream(kw * kw, 1.0, base).reshape(kw, kw)) + 0.1
            kernel = embed_kernel(small / small.sum(), shape)
            prior = np.abs(np.fft.fft2(normal_stream(n, 1.0, base + 1).reshape(shape))) ** 2 / n + 0.4
            sigma = 0.3 + 0.05 * (i % 7)
            g = normal_stream(n, 1.0, base + 2).reshape(shape)

            f_map = wiener_deconvolve(g, kernel, sigma, prior).ravel()
            H = dense_from_op(op_convolve(kernel), shape)
            C = circulant_cov(prior, shape)
            f_mmse = C @ H.T @ np.linalg.solve(H @ C @ H.T + sigma**2 * np.eye(n), g.ravel())
            worst_pair = max(worst_pair,
                             np.linalg.norm(f_map - f_mmse) / np.linalg.norm(f_mmse))

            A = H.T @ H + sigma**2 * np.linalg.inv(C)
            b = H.T @ g.ravel()
            worst_ne = max(worst_ne,
                           np.linalg.norm(A @ f_map - b) / np.linalg.norm(b),
                           np.linalg.norm(A @ f_mmse - b) / np.linalg.norm(b))
    ok = worst_pair <= 1e-7 and worst_ne <= 1e-7 and t.elapsed < 5.0
    report(5, "map-equals-mmse", ok,
           f"pair={worst_pair:.2e} normal-eq={worst_ne:.2e} (tol 1e-7), {t.elapsed:.1f}s")


def test_gate_06_solver_cross_agreement():
    """ISTA, FISTA, and ADMM land on the same objective for the shipped instance."""
    with Timer() as t:
        inst = sparse_recovery_instance()
        obj = Objective(inst.forward, inst.data, "abs", inst.lam)
        r_ista = ista(obj, max_iter=4000, tol=1e-14)
        r_fista = ista(obj, accelerate=True, max_iter=4000, tol=1e-14)
        r_admm = admm(obj, rho=1.0, max_iter=1500, tol=1e-12)
        vals = [objective_value(obj, r.final) for r in (r_ista, r_fista, r_admm)]
        spread = (max(vals) - min(vals)) / min(vals)
        mono = bool(np.all(np.diff(r_ista.objective_trace) <= 1e-12))
    ok = spread <= 1e-5 and mono
    report(6, "solver-cross-agreement", ok,
           f"objective spread={spread:.2e} (tol 1e-5), ista monotone={mono}, {t.elapsed:.1f}s")


def test_gate_07_solution_structure():
    """Least squares stays in the row space; l1 solutions stay sparse."""
    with Timer() as t:
        worst_proj = 0.0
        max_nnz_excess = -np.inf
        for trial in range(50):
            m, n = 5, 12
            H = normal_stream(m * n, 1.0, 900 + 2 * trial).reshape(m, n)
            g = normal_stream(m, 1.0, 901 + 2 * trial)
            obj = Objective(op_matrix(H), g, "quadratic", 0.0)
            f = conjugate_gradient_normal(obj, max_iter=400, tol=1e-13).final.ravel()
            Q, _ = np.linalg.qr(H.T)
            worst_proj = max(worst_proj,
                             np.linalg.norm(f - Q @ (Q.T @ f)) / np.linalg.norm(f))

            m2, n2 = 6, 12
            H2 = normal_stream(m2 * n2, 1.0, 950 + 2 * trial).reshape(m2, n2)
            g2 = normal_stream(m2, 1.0, 951 + 2 * trial)
            lam = 0.1 * np.max(np.abs(H2.T @ g2))
            obj2 = Objective(op_matrix(H2), g2, "abs", lam)
            f2 = ista(obj2, accelerate=True, max_iter=5000, tol=1e-14).final.ravel()
            nnz = int(np.sum(np.abs(f2) > 1e-8))
            max_nnz_excess = max(max_nnz_excess, nnz - m2)
    ok = worst_proj <= 1e-6 and max_nnz_excess <= 0
    report(7, "solution-structure", ok,
           f"l2 row-space resid={worst_proj:.2e} (tol 1e-6), l1 nnz excess={max_nnz_excess:+d}, {t.elapsed:.1f}s")


def test_gate_08_tv_beats_tikhonov(tmp_path):
    """Edge-preserving penalty wins by >= 1 dB on the swept deblur+inpaint task."""
    out = tmp_path / "cmp"
    with Timer() as t:
        code = main([
            "compare-l2-l1", "--size", "128", "--snr-db", "20",
            "--mask-fraction", "0.5", "--out", str(out),
        ])
    assert code == 0
    rows = {cells[0]: cells for cells in
            (line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:])}
    snr_l2 = float(rows["l2_grad"][2])
    snr_l1 = float(rows["l1_tv"][2])
    gap = snr_l1 - snr_l2
    ok = gap >= 1.0 and t.elapsed < 300.0
    report(8, "tv-beats-tikhonov", ok,
           f"l2={snr_l2:.2f} dB, tv={snr_l1:.2f} dB, gap={gap:.2f} (need >=1), {t.elapsed:.0f}s")


def test_gate_09_compressibility_parseval():
    """SNR grows with kept coefficients and ties out against retained energy."""
    img = shepp_logan(128)
    fracs = (0.01, 0.05, 0.1, 0.25)
    with Timer() as t:
        worst_tie = 0.0
        strict = True
        floor_ok = True
        for name, fwd in (("haar", lambda im: transform_haar(im, 4)), ("dct8", transform_dct8)):
            rows = compressibility_study(img, name, fracs, levels=4)
            snrs = [s for _, s in rows]
            strict &= bool(np.all(np.diff(snrs) > 0))
            coeffs = fwd(img).ravel()
            energy = np.sum(coeffs**2)
            order = np.argsort(-np.abs(coeffs), kind="stable")
            for frac, snr in rows:
                k = max(1, int(round(frac * coeffs.size)))
                discarded = np.sum(coeffs[order[k:]] ** 2)
                if discarded > 0:
                    worst_tie = max(worst_tie, abs(snr - 10.0 * np.log10(energy / discarded)))
                else:
                    # every dropped coefficient is exactly zero: the identity
                    # predicts a perfect round trip, which floats cap near 300 dB
                    floor_ok &= snr > 250.0
    ok = strict and worst_tie <= 1e-6 and floor_ok
    report(9, "compressibility-parseval", ok,
           f"strictly increasing={strict}, tie-out={worst_tie:.2e} (tol 1e-6), {t.elapsed:.1f}s")


def test_gate_10_direct_vs_variational(tmp_path):
    """With 30 views, filtered back projection trails the variational solve."""
    out = tmp_path / "fvt"
    with Timer() as t:
        code = main(["fbp-vs-tv", "--out", str(out)])
    assert code == 0
    rows = dict(line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:])
    snr_fbp = float(rows["fbp"])
    snr_tv = float(rows["tv_admm"])
    ok = snr_fbp < snr_tv
    report(10, "direct-trails-variational", ok,
           f"fbp={snr_fbp:.2f} dB < tv={snr_tv:.2f} dB, {t.elapsed:.1f}s")
