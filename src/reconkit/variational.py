"""Penalized least-squares objectives and the iterative solvers for them.

Objective conventions, fixed once for the whole package:

* quadratic penalty: ``J(f) = ||g - H f||^2 + lam ||L f||^2`` (the classic
  smoothing form; its gradient is ``-2 H* g + 2 (H* H + lam L* L) f``);
* abs and student penalties: ``J(f) = 0.5 ||g - H f||^2 + lam sum phi([L f]_n)``
  with ``phi = |u|`` or ``phi = (r + 1/2) log(1 + u^2)``.

``lam`` plays the role of the noise variance when the penalty comes from a
probabilistic model; the package exposes the single knob and documents the
mapping rather than both.

``_cg_quadratic`` is the one CG loop: ``conjugate_gradient_normal`` runs it
with a callback that records the traces, and ADMM's f-step runs it.
``_iterate`` is the one loop of gradient descent, ISTA/FISTA and ADMM, each a
step function with its own stop rule; it keeps the traces and builds the
``SolveReport``.  Steps reuse the residual ``H f - g`` for the objective, so
gradient descent and ISTA/FISTA apply ``H`` once per iteration: FISTA forms
the residual at its momentum point from the last two by linearity.  ADMM's
objective costs no apply: its misfit follows from the f-step's final CG
residual and the ``L f`` it already holds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BreakdownError, DivergenceError, ValidationError
from .grids import _seed_value, normal_stream
from .operators import LinearMap, op_matrix
from .phantoms import snr_db

__all__ = [
    "Objective",
    "SolveReport",
    "ProxSpec",
    "SweepResult",
    "NullspaceReport",
    "objective_value",
    "grad_objective_quadratic",
    "gradient_descent",
    "conjugate_gradient_normal",
    "nullspace_demo",
    "prox_apply",
    "ista",
    "admm",
    "lambda_sweep",
]

_PENALTIES = ("quadratic", "abs", "student", "indicator_nonneg")


@dataclass(frozen=True)
class Objective:
    """A data-fidelity term plus a separable penalty on ``reg_op`` outputs.

    ``reg_op = None`` means the identity.  ``student_r`` only matters for the
    student penalty.
    """

    forward: LinearMap
    data: np.ndarray
    penalty: str = "quadratic"
    lam: float = 0.0
    reg_op: LinearMap | None = None
    student_r: float = 1.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if self.forward.domain_complex or self.forward.range_complex:
            raise ValidationError("solvers operate on real-field operators")
        if data.shape != self.forward.range_shape:
            raise ValidationError(
                f"data shape {data.shape} does not match forward range {self.forward.range_shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValidationError("objective data contains non-finite samples")
        if self.penalty not in _PENALTIES:
            raise ValidationError(f"unknown penalty {self.penalty!r}")
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValidationError("lam must be finite and >= 0")
        if self.reg_op is not None:
            if self.reg_op.domain_shape != self.forward.domain_shape:
                raise ValidationError("reg_op domain must match the forward domain")
            if self.reg_op.domain_complex or self.reg_op.range_complex:
                raise ValidationError("reg_op must act on the real field")
        if not (self.student_r > 0 and np.isfinite(self.student_r)):
            raise ValidationError("student_r must be finite and > 0")
        object.__setattr__(self, "data", data)

    def reg_apply(self, f: np.ndarray) -> np.ndarray:
        return f if self.reg_op is None else self.reg_op.apply(f)

    def reg_adjoint(self, v: np.ndarray) -> np.ndarray:
        return v if self.reg_op is None else self.reg_op.adjoint(v)

    def reg_normal(self, f: np.ndarray) -> np.ndarray:
        return f if self.reg_op is None else self.reg_op.normal(f)


@dataclass
class SolveReport:
    """What a solver did: the estimate, traces, and the run configuration."""

    final: np.ndarray
    objective_trace: np.ndarray
    residual_trace: np.ndarray
    iterations: int
    converged: bool
    config: dict = field(default_factory=dict)


def objective_value(obj: Objective, f) -> float:
    f = np.asarray(f, dtype=np.float64)
    return _objective(obj, f, _sqnorm(obj.forward.apply(f) - obj.data))


def _sqnorm(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _objective(obj: Objective, f: np.ndarray, fid2: float, lf=None) -> float:
    """``objective_value`` from the squared misfit ``||H f - g||^2`` (and ``L f``) at hand."""
    if obj.penalty == "indicator_nonneg":
        return np.inf if np.any(f < 0) else 0.5 * fid2
    lf = obj.reg_apply(f) if lf is None else lf
    if obj.penalty == "quadratic":
        return fid2 + obj.lam * _sqnorm(lf)
    if obj.penalty == "abs":
        return 0.5 * fid2 + obj.lam * float(np.sum(np.abs(lf)))
    return 0.5 * fid2 + obj.lam * (obj.student_r + 0.5) * float(np.sum(np.log1p(lf**2)))


def grad_objective_quadratic(obj: Objective, f) -> np.ndarray:
    """Gradient of the quadratic objective, -2 H* g + 2 (H* H + lam L* L) f."""
    if obj.penalty != "quadratic":
        raise ValidationError("grad_objective_quadratic requires the quadratic penalty")
    f = np.asarray(f, dtype=np.float64)
    return _quadratic_gradient(obj, f, obj.forward.apply(f) - obj.data)


def _quadratic_gradient(obj: Objective, f: np.ndarray, resid: np.ndarray) -> np.ndarray:
    grad = 2.0 * obj.forward.adjoint(resid)
    if obj.lam > 0:
        grad = grad + 2.0 * obj.lam * obj.reg_normal(f)
    return grad


def _normal_equations(obj: Objective, weight: float) -> Callable:
    """``x -> (H* H + weight L* L) x`` through both operators' fused normals."""

    def apply(x):
        out = obj.forward.normal(x)
        if weight > 0:
            out = out + weight * obj.reg_normal(x)
        return out

    return apply


def _check_finite(trace: list, where: str, *values) -> None:
    """Stop a solver whose iterate or residual has left the finite range.

    Operators validate only at their public boundary, so an overflowed
    iterate would otherwise surface as an input error at the next apply.
    """
    for value in values:
        if not np.all(np.isfinite(value)):
            raise DivergenceError(f"{where}: non-finite iterate or residual", trace=np.asarray(trace))


# ---------------------------------------------------------------------------
# The solver loop
# ---------------------------------------------------------------------------


def _start(obj: Objective, f0) -> np.ndarray:
    """The checked start point: zeros, or a float64 copy of ``f0``."""
    f = np.zeros(obj.forward.domain_shape) if f0 is None else np.array(f0, dtype=np.float64)
    if f.shape != obj.forward.domain_shape:
        raise ValidationError("f0 shape does not match the operator domain")
    return f


def _settled(prev: float, current: float, tol: float) -> bool:
    """Stop rule of gradient descent and ISTA: a small relative objective change."""
    return abs(current - prev) <= tol * max(abs(prev), 1e-300)


def _iterate(f: np.ndarray, step: Callable, max_iter: int, label: str, config: dict) -> SolveReport:
    """Run ``step`` from ``f`` until its stop rule holds or ``max_iter`` runs out.

    ``step(f, trace, where)`` does one iteration and returns ``(f, objective,
    residual, converged)``.  It hands ``trace`` (the objective values so far)
    and ``where`` to ``_check_finite`` before a non-finite value can reach an
    operator, so a divergence names its iteration and carries the trace.
    """
    objective: list[float] = []
    residual: list[float] = []
    converged = False
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        f, value, res, converged = step(f, objective, f"{label} iteration {iterations}")
        objective.append(value)
        residual.append(res)
    return SolveReport(
        final=f,
        objective_trace=np.asarray(objective),
        residual_trace=np.asarray(residual),
        iterations=iterations,
        converged=converged,
        config=config,
    )


# ---------------------------------------------------------------------------
# Step-size estimation
# ---------------------------------------------------------------------------


def _power_max_eig(apply_normal: Callable, shape, iters: int = 50, seed=0) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration."""
    n = int(np.prod(shape))
    v = normal_stream(n, 1.0, _seed_value(seed)).reshape(shape)
    norm = float(np.linalg.norm(v.ravel()))
    if norm == 0.0:
        return 0.0
    v = v / norm
    top = 0.0
    for _ in range(iters):
        w = apply_normal(v)
        top = float(np.linalg.norm(w.ravel()))
        if top == 0.0:
            return 0.0
        if not np.isfinite(top):
            # an overflow here would surface as an input error at the next apply
            raise DivergenceError("power iteration: the normal operator overflowed")
        v = w / top
    return top


def _lipschitz_quadratic(obj: Objective, seed=0, iters: int = 50) -> float:
    normal = _normal_equations(obj, obj.lam)
    return 2.0 * _power_max_eig(normal, obj.forward.domain_shape, iters, seed)


def _lipschitz_data(forward: LinearMap, seed=0, iters: int = 50) -> float:
    return _power_max_eig(forward.normal, forward.domain_shape, iters, seed)


# ---------------------------------------------------------------------------
# Gradient descent
# ---------------------------------------------------------------------------


def gradient_descent(
    obj: Objective,
    f0=None,
    step="auto",
    max_iter: int = 500,
    tol: float = 1e-8,
    project_nonneg: bool = False,
    power_seed=0,
) -> SolveReport:
    """Fixed-step descent on the quadratic objective, optionally projected.

    ``step="auto"`` uses 0.9 / Lip with the Lipschitz constant estimated by
    50 power iterations from a seeded start, which keeps the trace monotone.
    """
    if obj.penalty != "quadratic":
        raise ValidationError("gradient_descent handles the quadratic penalty")
    f = _start(obj, f0)
    if step == "auto":
        lip = _lipschitz_quadratic(obj, seed=power_seed)
        gamma = 0.9 / lip if lip > 0 else 1.0
    else:
        gamma = float(step)
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ValidationError("step must be positive and finite")

    resid = obj.forward.apply(f) - obj.data
    prev = _objective(obj, f, _sqnorm(resid))
    rises = 0

    def descend(f, trace, where):
        nonlocal resid, prev, rises
        grad = _quadratic_gradient(obj, f, resid)
        f = f - gamma * grad
        if project_nonneg:
            f = np.maximum(f, 0.0)
        _check_finite(trace, where, f)
        resid = obj.forward.apply(f) - obj.data
        current = _objective(obj, f, _sqnorm(resid))
        _check_finite(trace, where, current)
        rises = rises + 1 if current > prev else 0
        if rises >= 5:
            raise DivergenceError(
                f"objective grew for 5 consecutive iterations (step {gamma:.3e})",
                trace=np.asarray(trace + [current]),
            )
        converged = _settled(prev, current, tol)
        prev = current
        return f, current, float(np.linalg.norm(grad.ravel())), converged

    config = {
        "solver": "gradient_descent",
        "step": "auto" if step == "auto" else gamma,
        "gamma": gamma,
        "max_iter": max_iter,
        "tol": tol,
        "project_nonneg": project_nonneg,
        "power_seed": _seed_value(power_seed),
        "lam": obj.lam,
    }
    return _iterate(f, descend, max_iter, "gradient descent", config)


# ---------------------------------------------------------------------------
# Conjugate gradients on the normal equations
# ---------------------------------------------------------------------------


def _cg_quadratic(
    apply_a: Callable, b: np.ndarray, x0: np.ndarray, max_iter: int, tol: float, trace=(), callback=None
):
    """Plain CG for SPD (or consistent PSD) systems; returns (x, r, it, converged).

    Stops once the residual norm is at most ``tol * ||b||``.  ``r`` is the
    final residual ``b - A x`` of the recurrence, so a caller has ``A x =
    b - r`` without another apply.  ``trace`` is the caller's objective
    trace, carried by a DivergenceError when the residual leaves the finite
    range.  ``callback(x, residual_norm)`` runs
    after every iteration's guard and before its stop test.
    """
    x = x0.copy()
    r = b - apply_a(x)
    p = r.copy()
    rs = _sqnorm(r)
    _check_finite(trace, "conjugate gradients start", rs)
    bnorm = max(float(np.linalg.norm(b.ravel())), 1e-300)
    it = 0
    converged = bool(np.sqrt(rs) <= tol * bnorm)
    while not converged and it < max_iter:
        ap = apply_a(p)
        pap = float(np.vdot(p, ap).real)
        if pap <= 0.0:
            raise BreakdownError("conjugate gradients hit a non-positive curvature direction")
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = _sqnorm(r)
        it += 1
        _check_finite(trace, f"conjugate gradients iteration {it}", rs_new, x)
        if callback is not None:
            callback(x, np.sqrt(rs_new))
        if np.sqrt(rs_new) <= tol * bnorm:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, r, it, converged


def conjugate_gradient_normal(
    obj: Objective,
    f0=None,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> SolveReport:
    """CG on (H* H + lam L* L) f = H* g, started from ``f0``.

    On a singular but consistent system the iterates stay in the affine space
    f0 + range(H* H), so the limit keeps the null-space component of the
    start; that behavior is load-bearing for the null-space demonstration.
    Each iteration's objective costs one forward apply.
    """
    if obj.penalty != "quadratic":
        raise ValidationError("conjugate_gradient_normal handles the quadratic penalty")
    f = _start(obj, f0)
    obj_trace: list[float] = []
    res_trace: list[float] = []

    def record(x, residual_norm):
        obj_trace.append(objective_value(obj, x))
        res_trace.append(float(residual_norm))

    b = obj.forward.adjoint(obj.data)
    f, _, iterations, converged = _cg_quadratic(
        _normal_equations(obj, obj.lam), b, f, max_iter, tol, obj_trace, record
    )
    return SolveReport(
        final=f,
        objective_trace=np.asarray(obj_trace),
        residual_trace=np.asarray(res_trace),
        iterations=iterations,
        converged=converged,
        config={
            "solver": "conjugate_gradient_normal",
            "max_iter": max_iter,
            "tol": tol,
            "lam": obj.lam,
        },
    )


@dataclass
class NullspaceReport:
    """Three least-squares solutions of one underdetermined 3x3 system."""

    inits: np.ndarray
    solutions: np.ndarray
    sse: np.ndarray
    null_direction: np.ndarray
    reports: list


def nullspace_demo() -> NullspaceReport:
    """Solve a rank-2 3x3 system by CG from three different starting points.

    The matrix annihilates (1, -1, -1), so the data cannot distinguish
    solutions that differ along that direction: CG keeps whatever null-space
    component the start carries.  The three starts below carry components
    0, -1/3, and -4, so the three answers disagree while fitting the data
    equally well.
    """
    h = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]])
    g = np.array([3.0, -1.0, 2.1])
    inits = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [13.0, 8.0, 17.0]])
    forward = op_matrix(h)
    obj = Objective(forward=forward, data=g, penalty="quadratic", lam=0.0)
    reports = [
        conjugate_gradient_normal(obj, f0=f0, max_iter=50, tol=1e-12) for f0 in inits
    ]
    solutions = np.array([rep.final for rep in reports])
    sse = np.array([float(np.sum((g - h @ sol) ** 2)) for sol in solutions])
    null_dir = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
    return NullspaceReport(inits, solutions, sse, null_dir, reports)


# ---------------------------------------------------------------------------
# Proximal operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProxSpec:
    """Which separable potential to use and its parameters."""

    kind: str
    lam: float = 1.0
    sigma2: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        if self.kind not in _PENALTIES:
            raise ValidationError(f"unknown penalty {self.kind!r}")
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValidationError("ProxSpec.lam must be finite and >= 0")
        if not (self.sigma2 > 0 and np.isfinite(self.sigma2)):
            raise ValidationError("ProxSpec.sigma2 must be finite and > 0")
        if not (self.r > 0 and np.isfinite(self.r)):
            raise ValidationError("ProxSpec.r must be finite and > 0")


def _student_cost(u, f, weight):
    return 0.5 * (f - u) ** 2 + weight * np.log1p(f**2)


def _prox_student(u: np.ndarray, weight: float) -> np.ndarray:
    """Global minimizer of 0.5 (f - u)^2 + weight log(1 + f^2), elementwise.

    Stationary points solve the cubic f^3 - u f^2 + (1 + 2 weight) f - u = 0.
    All real roots are found in closed form (trigonometric and Cardano
    branches), polished by two safeguarded Newton steps, and the root with
    the lowest cost wins; ties go to the smaller magnitude.  Elements whose
    polished root fails the stationarity residual fall back to a dense 1D
    grid scan.
    """
    u = np.asarray(u, dtype=np.float64)
    if weight == 0.0:
        return u.copy()
    flat = u.ravel()
    c = 2.0 * weight
    b = 1.0 + c
    # depressed cubic y^3 + p y + q with f = y + u/3
    p = b - flat**2 / 3.0
    q = -2.0 * flat**3 / 27.0 + flat * b / 3.0 - flat
    disc = -4.0 * p**3 - 27.0 * q**2

    roots = np.empty((flat.size, 3), dtype=np.float64)
    three = disc > 0
    if np.any(three):
        pm = p[three]
        qm = q[three]
        m = 2.0 * np.sqrt(-pm / 3.0)
        arg = np.clip(3.0 * qm / (pm * m), -1.0, 1.0)
        phi = np.arccos(arg) / 3.0
        for k in range(3):
            roots[three, k] = m * np.cos(phi - 2.0 * np.pi * k / 3.0)
    single = ~three
    if np.any(single):
        ps = p[single]
        qs = q[single]
        d = np.sqrt(np.maximum(qs**2 / 4.0 + ps**3 / 27.0, 0.0))
        y = np.cbrt(-qs / 2.0 + d) + np.cbrt(-qs / 2.0 - d)
        roots[single, 0] = y
        roots[single, 1] = y
        roots[single, 2] = y
    cand = roots + flat[:, None] / 3.0
    # the minimizer shares u's sign and never overshoots it
    lo = np.minimum(0.0, flat)[:, None]
    hi = np.maximum(0.0, flat)[:, None]
    cand = np.clip(cand, lo, hi)

    for _ in range(2):  # Newton polish on the undepressed cubic
        resid = cand**3 - flat[:, None] * cand**2 + b * cand - flat[:, None]
        deriv = 3.0 * cand**2 - 2.0 * flat[:, None] * cand + b
        step = np.where(np.abs(deriv) > 1e-30, resid / deriv, 0.0)
        cand = np.clip(cand - step, lo, hi)

    cost = _student_cost(flat[:, None], cand, weight)
    best = np.min(cost, axis=1, keepdims=True)
    tied = cost <= best + 1e-10 * (1.0 + np.abs(best))
    magnitude = np.where(tied, np.abs(cand), np.inf)
    pick = np.argmin(magnitude, axis=1)
    out = cand[np.arange(flat.size), pick]

    # stationarity check; a failed element falls back to a dense grid scan
    resid = out**3 - flat * out**2 + b * out - flat
    bad = np.abs(resid) > 1e-6 * (1.0 + np.abs(flat)) ** 3
    if np.any(bad):
        warnings.warn("student prox fell back to grid search for some elements")
        for i in np.flatnonzero(bad):
            ui = flat[i]
            grid = np.linspace(min(0.0, ui), max(0.0, ui), 4001)
            coarse = grid[np.argmin(_student_cost(ui, grid, weight))]
            span = max(abs(ui), 1.0) / 4000.0
            fine = np.linspace(coarse - span, coarse + span, 2001)
            fine = np.clip(fine, min(0.0, ui), max(0.0, ui))
            out[i] = fine[np.argmin(_student_cost(ui, fine, weight))]
    return out.reshape(u.shape)


def prox_apply(spec: ProxSpec, u, step: float) -> np.ndarray:
    """Elementwise minimizer of 0.5 (u - f)^2 + step * Phi(f).

    Phi is the potential selected by ``spec``: lam f^2 / (2 sigma2) for
    quadratic, lam |f| for abs, lam (r + 1/2) log(1 + f^2) for student, and
    the nonnegativity indicator (a projection; the step is irrelevant).
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValidationError("prox_apply input contains non-finite samples")
    if not (step >= 0 and np.isfinite(step)):
        raise ValidationError("prox_apply step must be finite and >= 0")
    if spec.kind == "quadratic":
        return u / (1.0 + step * spec.lam / spec.sigma2)
    if spec.kind == "abs":
        thresh = step * spec.lam
        return np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)
    if spec.kind == "student":
        return _prox_student(u, step * spec.lam * (spec.r + 0.5))
    return np.maximum(u, 0.0)  # indicator_nonneg


# ---------------------------------------------------------------------------
# ISTA / FISTA
# ---------------------------------------------------------------------------


def ista(
    obj: Objective,
    f0=None,
    accelerate: bool = False,
    max_iter: int = 1000,
    tol: float = 1e-10,
    power_seed=0,
) -> SolveReport:
    """Proximal gradient descent for 0.5 ||g - H f||^2 + lam ||f||_1.

    The gradient step is 0.9 / Lip with Lip estimated by power iteration on
    H* H; the prox step is the soft threshold.  ``accelerate`` switches on
    the momentum sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2; the plain
    iteration keeps the objective trace monotone.
    """
    if obj.penalty != "abs":
        raise ValidationError("ista handles the abs penalty")
    if obj.reg_op is not None:
        raise ValidationError("ista requires reg_op = identity (pass None)")
    f = _start(obj, f0)
    lip = _lipschitz_data(obj.forward, seed=power_seed)
    gamma = 0.9 / lip if lip > 0 else 1.0
    spec = ProxSpec("abs", lam=obj.lam)

    # the gradient point's residual H y - g comes from the objective's applies:
    # y = f for plain ISTA, and FISTA's y = f_k + beta (f_k - f_{k-1}) has
    # H y - g = r_k + beta (r_k - r_{k-1}) by linearity
    resid = obj.forward.apply(f) - obj.data
    prev = _objective(obj, f, _sqnorm(resid))
    y, resid_y = f, resid
    t = 1.0

    def proximal_step(f, trace, where):
        nonlocal resid, prev, y, resid_y, t
        point, point_resid = (y, resid_y) if accelerate else (f, resid)
        _check_finite(trace, where, point, point_resid)
        descent = point - gamma * obj.forward.adjoint(point_resid)
        _check_finite(trace, where, descent)
        f_new = prox_apply(spec, descent, gamma)
        resid_new = obj.forward.apply(f_new) - obj.data
        if accelerate:
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta = (t - 1.0) / t_new
            y = f_new + beta * (f_new - f)
            resid_y = resid_new + beta * (resid_new - resid)
            t = t_new
        resid = resid_new
        current = _objective(obj, f_new, _sqnorm(resid))
        converged = _settled(prev, current, tol)
        prev = current
        return f_new, current, float(np.linalg.norm((f_new - f).ravel())), converged

    config = {
        "solver": "fista" if accelerate else "ista",
        "gamma": gamma,
        "max_iter": max_iter,
        "tol": tol,
        "power_seed": _seed_value(power_seed),
        "lam": obj.lam,
    }
    return _iterate(f, proximal_step, max_iter, config["solver"], config)


# ---------------------------------------------------------------------------
# ADMM
# ---------------------------------------------------------------------------


def admm(
    obj: Objective,
    f0=None,
    rho: float = 1.0,
    max_iter: int = 200,
    tol_primal: float = 1e-6,
    tol_dual: float = 1e-6,
    inner_iter: int = 30,
    inner_tol: float = 1e-8,
) -> SolveReport:
    """Scaled-dual ADMM on the split u = L f.

    f-step: warm-started CG on (H* H + rho L* L) f = H* g + rho L* (u - a);
    u-step: the prox of the potential with step lam / rho applied to L f + a;
    dual update: a += L f - u.  Converged when the primal residual
    ||L f - u|| and the dual residual rho ||L* (u - u_prev)|| are both below
    their tolerances.
    """
    if obj.penalty not in ("abs", "quadratic", "student"):
        raise ValidationError("admm handles abs, quadratic, or student penalties")
    if not (rho > 0 and np.isfinite(rho)):
        raise ValidationError("rho must be positive and finite")
    f = _start(obj, f0)

    if obj.penalty == "abs":
        spec = ProxSpec("abs", lam=1.0)
    elif obj.penalty == "quadratic":
        spec = ProxSpec("quadratic", lam=1.0, sigma2=1.0)
    else:
        spec = ProxSpec("student", lam=1.0, r=obj.student_r)
    prox_step = obj.lam / rho

    apply_a = _normal_equations(obj, rho)
    hg = obj.forward.adjoint(obj.data)
    gg = _sqnorm(obj.data)
    u = obj.reg_apply(f).copy()
    alpha = np.zeros_like(u)

    def split_step(f, trace, where):
        nonlocal u, alpha
        rhs = hg + rho * obj.reg_adjoint(u - alpha)
        f, r, _, _ = _cg_quadratic(apply_a, rhs, f, inner_iter, inner_tol, trace)
        lf = obj.reg_apply(f)
        shifted = lf + alpha
        _check_finite(trace, where, shifted)
        u_prev = u
        u = prox_apply(spec, shifted, prox_step)
        _check_finite(trace, where, u)
        alpha = alpha + lf - u
        primal = float(np.linalg.norm((lf - u).ravel()))
        dual = rho * float(np.linalg.norm(obj.reg_adjoint(u - u_prev).ravel()))
        # H* H f = (rhs - r) - rho L* L f, so the misfit needs no forward apply;
        # its roundoff grows with rho ||L f||^2 (1e-11 relative at rho = 1e6)
        fid2 = float(np.vdot(f, rhs - r)) - rho * _sqnorm(lf) - 2.0 * float(np.vdot(f, hg)) + gg
        value = _objective(obj, f, fid2, lf)
        return f, value, primal, primal <= tol_primal and dual <= tol_dual

    config = {
        "solver": "admm",
        "rho": rho,
        "max_iter": max_iter,
        "tol_primal": tol_primal,
        "tol_dual": tol_dual,
        "inner_iter": inner_iter,
        "inner_tol": inner_tol,
        "lam": obj.lam,
        "penalty": obj.penalty,
    }
    return _iterate(f, split_step, max_iter, "admm", config)


# ---------------------------------------------------------------------------
# Regularization-weight sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    rows: list
    best_lambda: float
    best_snr: float
    best_estimate: np.ndarray


def lambda_sweep(
    run: Callable[[float], np.ndarray],
    truth,
    lambdas: Sequence[float],
) -> SweepResult:
    """Run a solver at each weight and score against the ground truth.

    ``run`` maps a weight to a reconstruction; determinism is inherited from
    the callable (seed it).  Returns the per-weight SNR table, the argmax
    (the first weight on a tie) and the reconstruction it produced.
    """
    lams = [float(l) for l in lambdas]
    if not lams:
        raise ValidationError("lambda_sweep needs at least one weight")
    for lam in lams:
        if not (lam >= 0 and np.isfinite(lam)):
            raise ValidationError("sweep weights must be finite and >= 0")
    rows = []
    best = None  # (lam, snr, estimate); a tie keeps the earlier weight
    for lam in lams:
        estimate = run(lam)
        snr = snr_db(truth, estimate)
        rows.append((lam, snr))
        if best is None or snr > best[1]:
            best = (lam, snr, estimate)
    lam, snr, estimate = best
    return SweepResult(rows=rows, best_lambda=lam, best_snr=snr, best_estimate=estimate)
