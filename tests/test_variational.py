"""Solvers for penalized least squares: gradients, CG, prox maps, ISTA, ADMM.

Oracles: dense linear algebra for the quadratic solvers, central finite
differences for the gradient, closed forms for the prox maps,
and a projected-gradient solve of the exact dual box problem for 1D total
variation.  Quality thresholds were measured once and frozen.
"""

import numpy as np
import pytest

from reconkit import (
    SHEPP_LOGAN,
    DivergenceError,
    LinearMap,
    Objective,
    RadonGeometry,
    ValidationError,
    admm,
    analytic_sinogram,
    conjugate_gradient_normal,
    embed_kernel,
    gaussian_kernel,
    gradient_descent,
    ista,
    lambda_sweep,
    normal_stream,
    nullspace_demo,
    objective_value,
    op_compose,
    op_convolve,
    op_grad,
    op_mask,
    op_matrix,
    op_multiply,
    op_radon,
    prox_apply,
    random_mask,
    shepp_logan,
    snr_db,
)
from reconkit import variational

from problems import sparse_recovery_instance


def dense_instance(m, n, seed, ridge=0.0):
    h = normal_stream(m * n, 1.0, seed).reshape(m, n)
    if ridge:
        h = h + ridge * np.eye(m, n)
    g = normal_stream(m, 1.0, seed + 1)
    return h, g


class TestObjective:
    def test_validation(self):
        h = op_matrix(np.eye(3))
        with pytest.raises(ValidationError):
            Objective(forward=h, data=np.zeros(4))
        with pytest.raises(ValidationError):
            Objective(forward=h, data=np.zeros(3), penalty="huber")
        with pytest.raises(ValidationError):
            Objective(forward=h, data=np.zeros(3), lam=-0.5)
        with pytest.raises(ValidationError):
            Objective(forward=h, data=np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ValidationError):
            Objective(forward=h, data=np.zeros(3), reg_op=op_matrix(np.eye(4)))

    def test_value_closed_forms(self):
        h = op_matrix(2.0 * np.eye(2))
        g = np.array([1.0, 2.0])
        f = np.array([1.0, -1.0])
        quad = Objective(forward=h, data=g, penalty="quadratic", lam=0.5)
        assert objective_value(quad, f) == pytest.approx(0.5 * 17 + 0.5 * 2 / 2, abs=1e-14)
        l1 = Objective(forward=h, data=g, penalty="abs", lam=0.5)
        assert objective_value(l1, f) == pytest.approx(0.5 * 17 + 0.5 * 2, abs=1e-14)


def quadratic_gradient(obj, f):
    """The quadratic objective's gradient as gradient descent takes it: one unit step's move."""
    return f - gradient_descent(obj, f0=f, step=1.0, max_iter=1).final


class TestGradient:
    def test_identity_closed_form(self):
        obj = Objective(forward=op_matrix(np.eye(5)), data=np.zeros(5), penalty="quadratic")
        f = np.arange(5.0)
        assert np.allclose(quadratic_gradient(obj, f), f, atol=1e-14)

    def test_zero_at_dense_minimizer(self):
        h, g = dense_instance(6, 6, 100, ridge=3.0)
        lam = 0.3
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=lam)
        fstar = np.linalg.solve(h.T @ h + lam * np.eye(6), h.T @ g)
        assert np.linalg.norm(quadratic_gradient(obj, fstar)) < 1e-8

    def test_matches_central_finite_differences(self):
        h, g = dense_instance(8, 8, 102)
        lam = 0.7
        grad_op = op_matrix(np.diff(np.eye(8), axis=0))
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=lam, reg_op=grad_op)
        f = normal_stream(8, 1.0, 103)
        analytic = quadratic_gradient(obj, f)
        numeric = np.zeros(8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = 1e-6
            numeric[i] = (objective_value(obj, f + e) - objective_value(obj, f - e)) / 2e-6
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-5


class TestGradientDescent:
    def test_recovers_dense_least_squares(self):
        h, _ = dense_instance(8, 8, 110, ridge=4.0)
        f_true = normal_stream(8, 1.0, 111)
        obj = Objective(forward=op_matrix(h), data=h @ f_true, penalty="quadratic", lam=0.0)
        rep = gradient_descent(obj, max_iter=2000, tol=1e-14)
        assert np.linalg.norm(rep.final - f_true) / np.linalg.norm(f_true) < 1e-5

    def test_trace_monotone_under_auto_step(self):
        h, g = dense_instance(10, 10, 112)
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.1)
        rep = gradient_descent(obj, max_iter=300, tol=1e-14)
        assert np.all(np.diff(rep.objective_trace) <= 1e-12)
        assert len(rep.objective_trace) == rep.iterations
        assert len(rep.residual_trace) == rep.iterations

    def test_starting_at_minimizer_is_flat(self):
        h, g = dense_instance(6, 6, 113, ridge=3.0)
        lam = 0.2
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=lam)
        fstar = np.linalg.solve(h.T @ h + lam * np.eye(6), h.T @ g)
        rep = gradient_descent(obj, f0=fstar, max_iter=50, tol=1e-12)
        assert rep.converged and rep.iterations == 1
        assert rep.objective_trace[0] == pytest.approx(objective_value(obj, fstar), rel=1e-12)

    def test_oversized_fixed_step_diverges_with_trace(self):
        h, g = dense_instance(8, 8, 114)
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.0)
        with pytest.raises(DivergenceError) as err:
            gradient_descent(obj, step=100.0, max_iter=100, tol=1e-14)
        assert err.value.trace is not None and len(err.value.trace) >= 5

    def test_step_validation(self):
        obj = Objective(forward=op_matrix(np.eye(3)), data=np.zeros(3))
        with pytest.raises(ValidationError):
            gradient_descent(obj, step=-1.0)

    def test_fixed_step_still_checks_the_power_seed(self):
        obj = Objective(forward=op_matrix(np.eye(3)), data=np.zeros(3))
        with pytest.raises(ValidationError, match="seed"):
            gradient_descent(obj, step=0.1, power_seed=-1)

    def test_auto_step_equals_its_value_passed_as_a_fixed_step(self):
        h, g = dense_instance(10, 10, 112)
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.1)
        auto = gradient_descent(obj, step=None, max_iter=40, tol=1e-14, power_seed=3)
        fixed = gradient_descent(obj, step=variational._auto_step(obj, 3), max_iter=40, tol=1e-14)
        assert np.array_equal(auto.final, fixed.final)
        assert np.array_equal(auto.objective_trace, fixed.objective_trace)
        assert auto.iterations == fixed.iterations


class TestForwardApplyCount:
    @pytest.mark.parametrize(
        "solve, penalty",
        [
            (lambda obj: gradient_descent(obj, max_iter=20, tol=0.0), "quadratic"),
            (lambda obj: ista(obj, max_iter=20, tol=0.0), "abs"),
            (lambda obj: ista(obj, accelerate=True, max_iter=20, tol=0.0), "abs"),
        ],
        ids=["gradient_descent", "ista", "fista"],
    )
    def test_one_forward_apply_per_iteration(self, solve, penalty):
        # the gradient reuses the residual H f - g of the previous objective
        h, g = dense_instance(12, 10, 130)
        applies = []

        def forward(x):
            applies.append(1)
            return h @ x

        counting = LinearMap((10,), (12,), forward, lambda y: h.T @ y, name="counting")
        rep = solve(Objective(forward=counting, data=g, penalty=penalty, lam=0.1))
        assert rep.iterations == 20
        power_iterations, start_objective = 50, 1
        assert len(applies) == power_iterations + start_objective + rep.iterations

    def test_admm_objective_costs_no_apply(self):
        # no fused normal, so every CG apply of H* H + rho I is counted: one
        # for the start residual and one per inner iteration, and nothing for
        # the objective, which comes from the f-step's final CG residual
        h, g = dense_instance(12, 10, 131)
        applies = []

        def forward(x):
            applies.append(1)
            return h @ x

        counting = LinearMap((10,), (12,), forward, lambda y: h.T @ y, name="counting")
        obj = Objective(forward=counting, data=g, penalty="abs", lam=0.1)
        rep = admm(obj, max_iter=7, inner_iter=3, tol=0.0)
        assert rep.iterations == 7
        assert len(applies) == 7 * (1 + 3)


class TestConjugateGradient:
    def test_matches_dense_solve(self):
        h, g = dense_instance(32, 32, 120, ridge=2.0)
        lam = 0.4
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=lam)
        rep = conjugate_gradient_normal(obj, max_iter=200, tol=1e-13)
        dense = np.linalg.solve(h.T @ h + lam * np.eye(32), h.T @ g)
        assert np.linalg.norm(rep.final - dense) / np.linalg.norm(dense) < 1e-8
        assert len(rep.residual_trace) == rep.iterations

    def test_finite_termination(self):
        # exact arithmetic terminates in n steps; round-off leaves a
        # residual below 1e-8 relative by then
        h, g = dense_instance(16, 16, 121, ridge=4.0)
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.1)
        rep = conjugate_gradient_normal(obj, max_iter=64, tol=1e-8)
        assert rep.converged and rep.iterations <= 16

    def test_one_iteration_per_distinct_eigenvalue(self):
        d = np.array([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), 2.0, 2.0])
        obj = Objective(
            forward=op_matrix(np.diag(d)), data=np.ones(6), penalty="quadratic", lam=0.0
        )
        rep = conjugate_gradient_normal(obj, max_iter=10, tol=1e-10)
        assert rep.converged and rep.iterations <= 3

    def test_rank_deficient_system_sse(self):
        h = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]])
        g = np.array([3.0, -1.0, 2.1])
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=1e-6)
        rep = conjugate_gradient_normal(obj, max_iter=100, tol=1e-12)
        sse = float(np.sum((g - h @ rep.final) ** 2))
        assert abs(sse - 1.0 / 300.0) < 5e-4

    def test_converged_start_runs_no_iteration(self):
        h, g = dense_instance(8, 8, 122, ridge=3.0)
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.0)
        start = np.linalg.solve(h, g)
        rep = conjugate_gradient_normal(obj, f0=start, max_iter=10, tol=1e-10)
        assert rep.converged and rep.iterations == 0
        assert rep.objective_trace.size == 0 and rep.residual_trace.size == 0
        assert np.array_equal(rep.final, start) and rep.final is not start

    def test_inconsistent_adjoint_hits_curvature_guard(self):
        # a deliberately wrong adjoint makes the normal operator indefinite,
        # which the pAp check catches
        bad = LinearMap((4,), (4,), lambda x: -x, lambda y: y, name="sign_flip")
        obj = Objective(forward=bad, data=np.ones(4), penalty="quadratic", lam=0.0)
        with pytest.raises(DivergenceError, match="iteration 1: non-positive curvature") as err:
            conjugate_gradient_normal(obj, max_iter=10, tol=1e-12)
        assert err.value.trace.size == 0  # it fails before its first objective

    @pytest.mark.parametrize("max_iter", [3, 50])
    def test_zero_tolerance_stops_at_the_roundoff_floor(self, max_iter):
        # on the null-space demo's system the recurrence residual reaches
        # roundoff by iteration 2; run past it, CG blows up or breaks down
        h = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]])
        obj = Objective(forward=op_matrix(h), data=np.array([3.0, -1.0, 2.1]))
        want = conjugate_gradient_normal(obj, max_iter=50, tol=1e-12).final
        rep = conjugate_gradient_normal(obj, max_iter=max_iter, tol=0.0)
        assert rep.converged
        assert np.allclose(rep.final, want, rtol=0.0, atol=1e-12)


class TestNullspaceDemo:
    def test_matches_reference_table(self):
        rep = nullspace_demo()
        expected = np.array(
            [
                [1.70, 0.3667, 1.3333],
                [1.3667, 0.70, 1.6667],
                [-2.30, 4.3667, 5.3333],
            ]
        )
        solutions = np.array([r.final for r in rep.reports])
        assert np.max(np.abs(solutions - expected)) < 0.02
        assert np.all(np.abs(rep.sse - 0.003333) < 5e-4)

    def test_pairwise_differences_lie_along_the_null_vector(self):
        rep = nullspace_demo()
        n_hat = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
        for i in range(3):
            for j in range(i + 1, 3):
                diff = rep.reports[i].final - rep.reports[j].final
                off = diff - np.dot(diff, n_hat) * n_hat
                assert np.linalg.norm(off) < 1e-4 * max(np.linalg.norm(diff), 1.0)


class TestProx:
    def test_soft_threshold_closed_form(self):
        u = np.array([2.0, 0.5, -3.0])
        assert np.allclose(prox_apply("abs", u, 1.0), [1.0, 0.0, -2.0], atol=1e-15)

    def test_quadratic_closed_form(self):
        assert prox_apply("quadratic", np.array([2.0]), 1.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            prox_apply("tv", np.array([1.0]), 1.0)
        with pytest.raises(ValidationError):
            prox_apply("abs", np.array([np.inf]), 1.0)
        with pytest.raises(ValidationError):
            prox_apply("abs", np.array([1.0]), -1.0)

    @pytest.mark.parametrize("kind", ["quadratic", "abs"])
    def test_public_prox_is_the_unchecked_prox_after_its_checks(self, kind):
        u = normal_stream(64, 3.0, 17)
        assert np.array_equal(prox_apply(kind, u, 0.7), variational._PENALTIES[kind][1](u, 0.7))

    @pytest.mark.parametrize("kind", ["quadratic", "abs"])
    def test_prox_minimizes_its_potential(self, kind):
        # prox(u, s) minimizes 0.5 (u - p)^2 + s potential(p) in each element,
        # with the potential the objective itself sums over L f
        potential, prox = variational._PENALTIES[kind]
        u = normal_stream(32, 2.0, 18)
        for s in (0.1, 0.7, 3.0):
            for ui, pi in zip(u, prox(u, s)):
                def cost(q):
                    return 0.5 * (ui - q) ** 2 + s * potential(np.array([q]))

                assert all(cost(pi + d) > cost(pi) for d in (1e-3, -1e-3, 0.1, -0.1))

    def test_solvers_do_not_recheck_their_prox_input(self, monkeypatch):
        # each solver checks the prox input itself, just before the prox
        def checked_again(*args):
            raise AssertionError("a solver ran the public prox_apply")

        monkeypatch.setattr(variational, "prox_apply", checked_again)
        h, g = dense_instance(6, 10, 140)
        obj = Objective(forward=op_matrix(h), data=g, penalty="abs", lam=0.1)
        for accelerate in (False, True):
            assert ista(obj, accelerate=accelerate, max_iter=5).iterations == 5
        assert admm(obj, max_iter=5).iterations == 5


def correlated_lasso_instance():
    """16x64 sensing matrix with chained columns; slow for plain ISTA."""
    m, n = 16, 64
    raw = normal_stream(m * n, 1.0, 77).reshape(m, n)
    mix = np.eye(n)
    for j in range(1, n):
        mix[j - 1, j] = 0.9
    h = raw @ mix / np.sqrt(m)
    truth = np.zeros(n)
    truth[[7, 20, 41, 55]] = [1.5, -2.0, 1.0, -1.2]
    g = h @ truth
    lam = 0.05 * float(np.max(np.abs(h.T @ g)))
    return Objective(forward=op_matrix(h), data=g, penalty="abs", lam=lam)


class TestSparseInstance:
    def test_shapes_and_determinism(self):
        a = sparse_recovery_instance()
        b = sparse_recovery_instance()
        assert a.forward.domain_shape == (32,)
        assert a.forward.range_shape == (8,)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.data, b.data)
        assert a.lam == b.lam

    def test_truth_sparsity_and_consistency(self):
        inst = sparse_recovery_instance(m=10, n=40, sparsity=3, seed=2)
        assert int(np.sum(inst.truth != 0)) == 3
        assert np.allclose(inst.data, inst.forward.apply(inst.truth))
        assert inst.lam > 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            sparse_recovery_instance(m=8, n=8)
        with pytest.raises(ValidationError):
            sparse_recovery_instance(m=4, n=16, sparsity=5)


class TestIsta:
    def test_recovers_sparse_support(self):
        inst = sparse_recovery_instance()
        obj = Objective(forward=inst.forward, data=inst.data, penalty="abs", lam=inst.lam)
        rep = ista(obj, accelerate=True, max_iter=20000, tol=1e-300)
        support = np.flatnonzero(np.abs(rep.final) > 1e-8)
        assert np.array_equal(support, np.flatnonzero(inst.truth != 0))
        assert snr_db(inst.truth, rep.final) > 40.0

    def test_large_lambda_kills_everything(self):
        h, g = dense_instance(6, 10, 140)
        lam = 2.0 * float(np.max(np.abs(h.T @ g)))
        obj = Objective(forward=op_matrix(h), data=g, penalty="abs", lam=lam)
        rep = ista(obj, max_iter=50, tol=1e-12)
        assert np.array_equal(rep.final, np.zeros(10))

    def test_plain_trace_monotone(self):
        obj = correlated_lasso_instance()
        rep = ista(obj, max_iter=500, tol=1e-300)
        assert np.all(np.diff(rep.objective_trace) <= 1e-12)

    def test_converged_iterate_is_prox_fixed_point(self):
        inst = sparse_recovery_instance()
        obj = Objective(forward=inst.forward, data=inst.data, penalty="abs", lam=inst.lam)
        rep = ista(obj, max_iter=20000, tol=1e-300)
        gamma = variational._auto_step(obj, 0)
        f = rep.final
        grad = obj.forward.adjoint(obj.forward.apply(f) - obj.data)
        again = prox_apply("abs", f - gamma * grad, gamma * obj.lam)
        assert np.linalg.norm(again - f) <= 1e-5 * max(np.linalg.norm(f), 1.0)

    def test_acceleration_beats_plain_iteration(self):
        # frozen: plain ISTA is still 0.02 above its 1000-iteration objective
        # at iteration 300; the accelerated run gets there by 135
        obj = correlated_lasso_instance()
        plain = ista(obj, max_iter=1000, tol=1e-300)
        target = plain.objective_trace[-1]
        assert plain.objective_trace[299] > target + 1e-3
        fast = ista(obj, accelerate=True, max_iter=300, tol=1e-300)
        assert np.min(fast.objective_trace) <= target

    def test_validation(self):
        obj = Objective(forward=op_matrix(np.eye(3)), data=np.zeros(3), penalty="quadratic")
        with pytest.raises(ValidationError):
            ista(obj)
        grad_op = op_grad((2, 2))
        l1 = Objective(
            forward=op_multiply(np.ones((2, 2))), data=np.zeros((2, 2)), penalty="abs",
            lam=0.1, reg_op=grad_op,
        )
        with pytest.raises(ValidationError):
            ista(l1)

    def test_fista_matches_a_textbook_fista(self):
        # the reference applies H at the momentum point every iteration
        h, g = dense_instance(12, 20, 135)
        lam = 0.1 * float(np.max(np.abs(h.T @ g)))
        obj = Objective(forward=op_matrix(h), data=g, penalty="abs", lam=lam)
        rep = ista(obj, accelerate=True, max_iter=150, tol=0.0)
        gamma = variational._auto_step(obj, 0)
        f = np.zeros(20)
        y, t = f, 1.0
        for _ in range(150):
            u = y - gamma * (h.T @ (h @ y - g))
            f_new = np.sign(u) * np.maximum(np.abs(u) - gamma * lam, 0.0)
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = f_new + ((t - 1.0) / t_new) * (f_new - f)
            f, t = f_new, t_new
        assert np.linalg.norm(rep.final - f) <= 1e-12 * np.linalg.norm(f)


class TestNumericalFailuresAreDivergences:
    """Overflow inside a solver raises DivergenceError, never an input error."""

    def test_admm_prox_step_overflow(self):
        # lam / rho is +inf: the prox weight is checked once, before any step
        g = normal_stream(64, 1.0, 414).reshape(8, 8)
        obj = Objective(op_multiply(np.ones((8, 8))), g, "abs", 1e10)
        with pytest.raises(DivergenceError, match="lam / rho"):
            admm(obj, rho=1e-300, max_iter=5)

    @pytest.mark.parametrize("accelerate", [False, True], ids=["ista", "fista"])
    def test_ista_prox_step_overflow(self, accelerate):
        # gamma = 0.9e120 and lam = 1e190: gamma lam would threshold at +inf
        g = normal_stream(64, 1.0, 415).reshape(8, 8)
        obj = Objective(op_multiply(np.full((8, 8), 1e-60)), g, "abs", 1e190)
        with pytest.raises(DivergenceError, match="gamma lam"):
            ista(obj, accelerate=accelerate, max_iter=5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("solver", ["ista", "gradient_descent"])
    def test_power_iteration_overflow(self, solver):
        g = normal_stream(64, 1.0, 413).reshape(8, 8)
        forward = op_multiply(np.full((8, 8), 1e200))
        if solver == "ista":
            with pytest.raises(DivergenceError):
                ista(Objective(forward, g, "abs", 0.1))
        else:
            with pytest.raises(DivergenceError):
                gradient_descent(Objective(forward, g, "quadratic", 0.1))

    @pytest.mark.parametrize("accelerate", [False, True], ids=["ista", "fista"])
    def test_ista_misfit_overflow(self, accelerate):
        # 0.5 ||H f - g||^2 overflows while every sample stays finite
        obj = Objective(op_matrix(np.eye(4)), np.full(4, 1e160), "abs", 1.0)
        with pytest.raises(DivergenceError):
            ista(obj, accelerate=accelerate, max_iter=5)


class TestAutoStep:
    @pytest.mark.parametrize("solver", ["ista", "gradient_descent"])
    def test_power_iteration_underflow_keeps_the_operator_step(self, solver):
        # the squares of H* H v underflow; the step must still be 0.9 / Lip
        forward = op_multiply(np.full((8, 8), 1e-100))
        g = np.ones((8, 8))
        if solver == "ista":
            rep = ista(Objective(forward, g, "abs", 1e-210), max_iter=200, tol=1e-10)
        else:
            obj = Objective(forward, g, "quadratic", 0.0)
            rep = gradient_descent(obj, max_iter=200, tol=1e-10)
        assert rep.converged
        assert np.allclose(rep.final, 1e100, rtol=1e-9, atol=0.0)


class TestSolutionStructure:
    def test_min_norm_solution_lies_in_adjoint_range(self):
        for trial in range(10):
            h, g = dense_instance(5, 12, 150 + 2 * trial)
            obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.0)
            rep = conjugate_gradient_normal(obj, max_iter=100, tol=1e-12)
            q, _ = np.linalg.qr(h.T)
            resid = rep.final - q @ (q.T @ rep.final)
            assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(rep.final)

    def test_l1_solution_has_at_most_m_nonzeros(self):
        for trial in range(20):
            h, g = dense_instance(6, 12, 200 + 2 * trial)
            lam = 0.1 * float(np.max(np.abs(h.T @ g)))
            obj = Objective(forward=op_matrix(h), data=g, penalty="abs", lam=lam)
            rep = ista(obj, accelerate=True, max_iter=5000, tol=1e-14)
            nnz = int(np.sum(np.abs(rep.final) > 1e-8))
            assert nnz <= 6


class TestAdmm:
    def test_agrees_with_ista_objective(self):
        inst = sparse_recovery_instance()
        obj = Objective(forward=inst.forward, data=inst.data, penalty="abs", lam=inst.lam)
        ri = ista(obj, accelerate=True, max_iter=20000, tol=1e-300)
        ra = admm(obj, rho=1.0, max_iter=2000, tol=1e-12)
        vi = objective_value(obj, ri.final)
        va = objective_value(obj, ra.final)
        assert abs(vi - va) / vi < 1e-5

    def test_zero_weight_reduces_to_least_squares(self):
        h, g = dense_instance(12, 12, 91, ridge=3.0)
        quad = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.0)
        cg = conjugate_gradient_normal(quad, max_iter=200, tol=1e-13)
        l1 = Objective(forward=op_matrix(h), data=g, penalty="abs", lam=0.0)
        rep = admm(l1, rho=1.0, max_iter=800, tol=1e-11)
        rel = np.linalg.norm(rep.final - cg.final) / np.linalg.norm(cg.final)
        assert rel < 1e-6

    def test_quadratic_penalty_matches_normal_equations(self):
        h, g = dense_instance(12, 12, 91, ridge=3.0)
        obj = Objective(forward=op_matrix(h), data=g, penalty="quadratic", lam=0.7)
        cg = conjugate_gradient_normal(obj, max_iter=200, tol=1e-13)
        rep = admm(obj, rho=2.0, max_iter=400, tol=1e-11)
        assert np.linalg.norm(rep.final - cg.final) / np.linalg.norm(cg.final) < 1e-6

    def test_tv_denoise_matches_dual_oracle(self):
        # a step image with identical rows: the 2D problem separates into
        # one 1D total-variation problem per row, solved exactly through the
        # dual box-constrained quadratic
        n = 32
        row = np.where(np.arange(n) < n // 2, 0.2, 1.0)
        noisy_row = row + normal_stream(n, 0.05, 314)
        img = np.tile(noisy_row, (n, 1))
        lam = 0.4
        obj = Objective(
            forward=op_multiply(np.ones((n, n))), data=img, penalty="abs", lam=lam,
            reg_op=op_grad((n, n)),
        )
        rep = admm(obj, rho=1.0, max_iter=600, tol=1e-10)
        out = rep.final
        assert np.max(np.abs(out - out[0])) == 0.0  # row symmetry preserved

        d = np.zeros((n - 1, n))
        for i in range(n - 1):
            d[i, i] = -1.0
            d[i, i + 1] = 1.0
        z = np.zeros(n - 1)
        lip = np.linalg.norm(d @ d.T, 2)
        for _ in range(60000):
            z = np.clip(z - (d @ (d.T @ z - noisy_row)) / lip, -lam, lam)
        oracle = noisy_row - d.T @ z
        assert np.max(np.abs(out[0] - oracle)) < 1e-6

    def test_tv_denoise_flattens_plateaus(self):
        n = 32
        row = np.where(np.arange(n) < n // 2, 0.2, 1.0)
        img = np.tile(row + normal_stream(n, 0.05, 314), (n, 1))
        obj = Objective(
            forward=op_multiply(np.ones((n, n))), data=img, penalty="abs", lam=0.4,
            reg_op=op_grad((n, n)),
        )
        out = admm(obj, rho=1.0, max_iter=600, tol=1e-10).final
        left = out[:, 2 : n // 2 - 2]
        right = out[:, n // 2 + 2 : n - 2]
        gap = abs(right.mean() - left.mean())
        assert np.max(np.abs(left - left.mean())) < 0.01 * gap
        assert np.max(np.abs(right - right.mean())) < 0.01 * gap

    def test_primal_residual_reaches_tolerance(self):
        inst = sparse_recovery_instance()
        obj = Objective(forward=inst.forward, data=inst.data, penalty="abs", lam=inst.lam)
        rep = admm(obj, rho=1.0, max_iter=1000, tol=1e-8)
        assert rep.converged
        assert rep.residual_trace[-1] <= 1e-8

    def test_validation(self):
        quad = Objective(forward=op_matrix(np.eye(3)), data=np.zeros(3))
        with pytest.raises(ValidationError):
            admm(quad, rho=0.0)


def blurred_masked(img, kernel, mask, sigma, seed):
    """Circular blur by the centered ``kernel`` then ``mask``, and its data with seeded noise.

    The noise is a raster over the whole grid, kept through the mask in flat
    order as the operator keeps pixels.
    """
    op = op_compose(op_mask(mask), op_convolve(embed_kernel(kernel, img.shape)))
    return op, op.apply(img) + normal_stream(mask.size, sigma, seed)[mask.ravel()]


def deblur_objective(penalty, lam):
    img = shepp_logan(32)
    mask = random_mask((32, 32), 0.5, seed=21)
    op, g = blurred_masked(img, gaussian_kernel(5, 1.0), mask, 0.1, 22)
    return Objective(forward=op, data=g, penalty=penalty, lam=lam, reg_op=op_grad((32, 32)))


def fewview_objective():
    # noiseless data fit almost exactly: the misfit is a small difference of
    # large inner products, the worst case for the apply-free objective
    geom = RadonGeometry(30, 32)
    return Objective(
        forward=op_radon(geom, (32, 32)), data=analytic_sinogram(SHEPP_LOGAN, geom, 32).data,
        penalty="abs", lam=0.5, reg_op=op_grad((32, 32)),
    )


class TestAdmmObjectiveTrace:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_objective("abs", 0.05),
            fewview_objective,
            lambda: deblur_objective("quadratic", 0.5),
        ],
        ids=["abs_deblur", "abs_fewview", "quadratic_deblur"],
    )
    def test_last_entry_matches_objective_value(self, make):
        obj = make()
        rep = admm(obj, rho=2.0, max_iter=30, inner_iter=10)
        want = objective_value(obj, rep.final)
        assert abs(rep.objective_trace[-1] - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("rho", [1e-300, 1e300])
    @pytest.mark.parametrize("penalty", ["abs", "quadratic"])
    def test_trace_stays_finite_at_extreme_rho(self, penalty, rho):
        rep = admm(deblur_objective(penalty, 0.05), rho=rho, max_iter=10, inner_iter=5)
        assert np.all(np.isfinite(rep.objective_trace))


class TestFormulationEquivalences:
    def test_square_vs_no_square_same_argmin(self):
        # along an affine family the squared and unsquared residual norms
        # have the same minimizer
        h, g = dense_instance(6, 10, 170)
        f0 = normal_stream(10, 1.0, 171)
        d = normal_stream(10, 1.0, 172)
        hd = h @ d
        r0 = g - h @ f0
        t_closed = float(np.dot(hd, r0) / np.dot(hd, hd))

        def unsquared(t):
            return np.linalg.norm(g - h @ (f0 + t * d))

        lo, hi = t_closed - 5.0, t_closed + 5.0
        for _ in range(120):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if unsquared(m1) <= unsquared(m2):
                hi = m2
            else:
                lo = m1
        t_search = 0.5 * (lo + hi)
        assert abs(t_search - t_closed) < 1e-6

    def test_penalized_matches_constrained_by_bisection(self):
        # solve penalized at lam0, read off sigma = ||g - H f||, then find
        # the lam whose residual hits sigma: the penalty values must agree
        h, g = dense_instance(8, 10, 55)
        fwd = op_matrix(h)

        def solve(lam):
            obj = Objective(forward=fwd, data=g, penalty="quadratic", lam=lam)
            return conjugate_gradient_normal(obj, max_iter=300, tol=1e-13).final

        f_pen = solve(0.5)
        sigma = np.linalg.norm(g - h @ f_pen)
        lo, hi = 1e-8, 1e8
        for _ in range(90):
            mid = np.sqrt(lo * hi)
            if np.linalg.norm(g - h @ solve(mid)) < sigma:
                lo = mid
            else:
                hi = mid
        f_con = solve(np.sqrt(lo * hi))
        reg_pen = np.linalg.norm(f_pen)
        reg_con = np.linalg.norm(f_con)
        assert abs(reg_con - reg_pen) / reg_pen < 1e-4


class TestLambdaSweep:
    def test_single_weight(self):
        res = lambda_sweep(lambda lam: np.zeros((2, 2)), np.ones((2, 2)), [0.5])
        assert len(res.rows) == 1
        assert res.best_lambda == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            lambda_sweep(lambda lam: np.zeros(2), np.ones(2), [])

    def test_deterministic(self):
        img = shepp_logan(32)
        mask = random_mask((32, 32), 0.5, seed=21)
        op, g = blurred_masked(img, gaussian_kernel(5, 1.0), mask, 0.1, 22)
        grad = op_grad((32, 32))

        def run(lam):
            obj = Objective(
                forward=op, data=g, penalty="quadratic",
                lam=lam, reg_op=grad,
            )
            return conjugate_gradient_normal(obj, max_iter=100, tol=1e-8).final

        a = lambda_sweep(run, img, [0.01, 0.1])
        b = lambda_sweep(run, img, [0.01, 0.1])
        assert a.best_lambda == b.best_lambda
        assert all(ra == rb for ra, rb in zip(a.rows, b.rows))

    def test_best_estimate_is_the_best_weights_reconstruction(self):
        img = shepp_logan(32)
        mask = random_mask((32, 32), 0.5, seed=21)
        op, g = blurred_masked(img, gaussian_kernel(5, 1.0), mask, 0.1, 22)
        grad = op_grad((32, 32))

        def run(lam):
            obj = Objective(
                forward=op, data=g, penalty="quadratic",
                lam=lam, reg_op=grad,
            )
            return conjugate_gradient_normal(obj, max_iter=100, tol=1e-8).final

        res = lambda_sweep(run, img, [0.001, 0.03, 1.0])
        assert res.best_lambda == 0.03
        assert np.array_equal(res.best_estimate, run(res.best_lambda))

    def test_tie_keeps_the_first_weight(self):
        estimates = {0.1: np.zeros(2), 0.2: np.zeros(2), 0.3: np.full(2, 5.0)}
        res = lambda_sweep(lambda lam: estimates[lam], np.ones(2), [0.1, 0.2, 0.3])
        assert res.best_lambda == 0.1
        assert res.best_estimate is estimates[0.1]

    def test_interior_weight_beats_endpoints(self):
        img = shepp_logan(32)
        mask = random_mask((32, 32), 0.5, seed=21)
        op, g = blurred_masked(img, gaussian_kernel(5, 1.0), mask, 0.1, 22)
        grad = op_grad((32, 32))

        def run(lam):
            obj = Objective(
                forward=op, data=g, penalty="quadratic",
                lam=lam, reg_op=grad,
            )
            return conjugate_gradient_normal(obj, max_iter=400, tol=1e-10).final

        res = lambda_sweep(run, img, [1e-3, 1e-2, 1e-1, 1.0, 10.0])
        snrs = [snr for _, snr in res.rows]
        best = max(snrs)
        assert res.best_lambda == 0.1
        assert best > snrs[0] + 1.0 and best > snrs[-1] + 1.0

    def test_small_weight_limit_matches_unregularized(self):
        img = shepp_logan(32)
        full = np.ones((32, 32), dtype=bool)
        op, g = blurred_masked(img, gaussian_kernel(3, 0.5), full, 1e-4, 23)
        grad = op_grad((32, 32))

        def solve(lam, reg):
            obj = Objective(
                forward=op, data=g, penalty="quadratic",
                lam=lam, reg_op=reg,
            )
            return conjugate_gradient_normal(obj, max_iter=2000, tol=1e-13).final

        s_unreg = snr_db(img, solve(0.0, None))
        s_tiny = snr_db(img, solve(1e-10, grad))
        assert abs(s_tiny - s_unreg) < 0.1
