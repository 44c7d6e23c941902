"""Every solver on generated problems, checked against an answer found another way.

Hypothesis draws the problems (derandomized, so every run sees the same
ones), and each check compares a solver's final with what the problem's
dense matrices say it must be:

* quadratic ``op_matrix`` problems: gradient descent, CG and ADMM against
  ``np.linalg.solve`` of the dense normal equations;
* abs ``op_matrix`` problems: the first-order optimality residual
  ``||f - prox(f - H^T (H f - g))||`` of ISTA, FISTA and ADMM, and the spread
  of their objective values;
* mask after blur, with ``op_grad``: the quadratic through CG and gradient
  descent against the dense solve, and TV through ADMM against a dense
  primal-dual (Chambolle-Pock) reference run;
* the Fourier sampling model ``op_compose(op_mask(np.stack([m, m])),
  op_dft2(shape))``: CG against the dense solve.

Each bound is fixed from the worst value measured over these problems, with
the margin stated beside ``BOUNDS``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit import (
    Objective,
    admm,
    conjugate_gradient_normal,
    embed_kernel,
    gaussian_kernel,
    gradient_descent,
    ista,
    normal_stream,
    objective_value,
    op_compose,
    op_convolve,
    op_dft2,
    op_grad,
    op_mask,
    op_matrix,
    random_mask,
)

GENERATED = settings(max_examples=12, derandomize=True, deadline=None, database=None)
IMAGES = settings(max_examples=4, derandomize=True, deadline=None, database=None)

SEEDS = st.integers(0, 2**16)
RHOS = st.sampled_from([0.5, 1.0, 4.0])

# each bound is 100 times the worst value measured over these problems,
# rounded up to one significant digit; the measured worst is beside it
BOUNDS = {
    "matrix cg": 3e-13,  # 2.2e-15
    "matrix gd": 2e-5,  # 1.4e-7
    "matrix admm": 3e-6,  # 2.2e-8
    "ista optimality": 2e-4,  # 1.4e-6
    "fista optimality": 5e-4,  # 4.8e-6
    "admm optimality": 5e-6,  # 4.4e-8
    "abs spread": 6e-6,  # 5.2e-8
    "blur cg": 7e-11,  # 6.5e-13
    "blur gd": 5e-5,  # 4.4e-7
    "blur admm tv": 2e-3,  # 1.05e-5
    "fourier cg": 6e-9,  # 5.7e-11
}


def within(name, value):
    assert value <= BOUNDS[name], (name, value)


def dense(op):
    """The operator's matrix, column j its apply to the j-th unit vector."""
    n = int(np.prod(op.domain_shape))
    columns = [op.apply(e.reshape(op.domain_shape)).ravel() for e in np.eye(n)]
    return np.stack(columns, axis=1)


def normal_solution(h, g, lam, l):
    """The minimizer of 0.5 ||g - H f||^2 + 0.5 lam ||L f||^2, from the dense normal equations."""
    return np.linalg.solve(h.T @ h + lam * l.T @ l, h.T @ g)


def rel(got, want):
    return float(np.linalg.norm((got - want).ravel()) / np.linalg.norm(want.ravel()))


def matrix_problem(m, n, seed):
    return normal_stream(m * n, 1.0, seed).reshape(m, n), normal_stream(m, 1.0, seed + 1)


@GENERATED
@given(m=st.integers(1, 8), n=st.integers(1, 8), lam=st.floats(0.1, 2.0), rho=RHOS, seed=SEEDS)
def test_quadratic_matrix_problems_reach_the_normal_equation_solution(m, n, lam, rho, seed):
    h, g = matrix_problem(m, n, seed)
    obj = Objective(op_matrix(h), g, "quadratic", lam)
    want = normal_solution(h, g, lam, np.eye(n))
    within("matrix cg", rel(conjugate_gradient_normal(obj, max_iter=100, tol=1e-12).final, want))
    within("matrix gd", rel(gradient_descent(obj, max_iter=5000, tol=1e-15).final, want))
    solved = admm(obj, rho=rho, max_iter=2000, tol=1e-12, inner_iter=30)
    within("matrix admm", rel(solved.final, want))


@GENERATED
@given(m=st.integers(1, 8), n=st.integers(1, 8), lam=st.floats(0.05, 1.0), rho=RHOS, seed=SEEDS)
def test_abs_matrix_problems_meet_first_order_optimality(m, n, lam, rho, seed):
    h, g = matrix_problem(m, n, seed)
    obj = Objective(op_matrix(h), g, "abs", lam)
    finals = {
        "ista": ista(obj, max_iter=3000, tol=1e-12).final,
        "fista": ista(obj, accelerate=True, max_iter=3000, tol=1e-12).final,
        "admm": admm(obj, rho=rho, max_iter=1000, tol=1e-9, inner_iter=10).final,
    }
    # f is optimal exactly when a unit forward-backward step, with the soft
    # threshold written out here, leaves it where it is
    scale = np.linalg.norm(h.T @ g)
    for name, f in finals.items():
        v = f - h.T @ (h @ f - g)
        step = f - np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
        within(f"{name} optimality", float(np.linalg.norm(step) / scale))
    values = [objective_value(obj, f) for f in finals.values()]
    within("abs spread", (max(values) - min(values)) / min(values))


def tv_reference(h, l, g, lam, iterations=4000):
    """The objective of a Chambolle-Pock primal-dual run on the dense TV problem.

    The dual variable lives on ``L f`` and stays in the box ``|z| <= lam``;
    the primal step is the exact prox of the misfit.  ``||L||^2 <= 8`` for
    ``op_grad``, so steps of 0.35 keep ``tau sigma ||L||^2 < 1``.
    """
    tau = sigma = 0.35
    n = h.shape[1]
    prox = np.linalg.inv(np.eye(n) + tau * h.T @ h)
    hg = tau * h.T @ g
    f = f_bar = np.zeros(n)
    z = np.zeros(l.shape[0])
    for _ in range(iterations):
        z = np.clip(z + sigma * (l @ f_bar), -lam, lam)
        f_new = prox @ (f - tau * (l.T @ z) + hg)
        f, f_bar = f_new, 2.0 * f_new - f
    return 0.5 * float(np.sum((h @ f - g) ** 2)) + lam * float(np.sum(np.abs(l @ f)))


@IMAGES
@given(
    size=st.tuples(st.integers(8, 16), st.integers(8, 16)),
    fraction=st.floats(0.3, 0.9),
    lam=st.floats(0.05, 0.5),
    seed=SEEDS,
)
@example(size=(16, 16), fraction=0.5, lam=0.1, seed=7)
def test_mask_blur_problems_with_the_gradient(size, fraction, lam, seed):
    kernel = embed_kernel(gaussian_kernel(5, 1.0), size)
    forward = op_compose(op_mask(random_mask(size, fraction, seed)), op_convolve(kernel))
    grad = op_grad(size)
    g = normal_stream(forward.range_shape[0], 1.0, seed + 1)
    h, l = dense(forward), dense(grad)

    quadratic = Objective(forward, g, "quadratic", lam, reg_op=grad)
    want = normal_solution(h, g, lam, l).reshape(size)
    cg = conjugate_gradient_normal(quadratic, max_iter=500, tol=1e-12)
    within("blur cg", rel(cg.final, want))
    within("blur gd", rel(gradient_descent(quadratic, max_iter=5000, tol=1e-15).final, want))

    # every f is feasible, so the reference objective bounds the minimum from
    # above; rho = 2 lam, near where ADMM converged fastest on these problems
    tv = Objective(forward, g, "abs", lam, reg_op=grad)
    solved = admm(tv, rho=2.0 * lam, max_iter=200, tol=1e-9, inner_iter=10)
    reference = tv_reference(h, l, g, lam)
    within("blur admm tv", (objective_value(tv, solved.final) - reference) / reference)


@IMAGES
@given(
    size=st.tuples(st.integers(8, 16), st.integers(8, 16)),
    fraction=st.floats(0.2, 0.8),
    lam=st.floats(0.5, 20.0),
    smooth=st.booleans(),
    seed=SEEDS,
)
@example(size=(16, 16), fraction=0.4, lam=1.0, smooth=True, seed=7)
def test_fourier_sampling_model_solves_by_cg(size, fraction, lam, smooth, seed):
    keep = random_mask(size, fraction, seed)
    if smooth:
        keep[0, 0] = True  # the mean, which op_grad does not see
    forward = op_compose(op_mask(np.stack([keep, keep])), op_dft2(size))
    reg = op_grad(size) if smooth else None
    g = normal_stream(forward.range_shape[0], 1.0, seed + 1)
    obj = Objective(forward, g, "quadratic", lam, reg_op=reg)
    l = dense(reg) if smooth else np.eye(keep.size)
    want = normal_solution(dense(forward), g, lam, l).reshape(size)
    within("fourier cg", rel(conjugate_gradient_normal(obj, max_iter=1000, tol=1e-12).final, want))
