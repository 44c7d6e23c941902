"""Penalized least-squares objectives and the iterative solvers for them.

Every objective has one form, ``J(f) = 0.5 ||g - H f||^2 + lam sum_n
phi([L f]_n)``, with ``phi(u) = u^2 / 2`` for the quadratic penalty (whose
gradient is ``H* (H f - g) + lam L* L f``) and ``phi(u) = |u|`` for abs.

``_PENALTIES`` declares each penalty once: its potential ``sum phi`` over
``L f``, and its prox.  A prox's weight is its step: each solver works it
out once (gamma lam, or lam / rho) and an overflow is a DivergenceError.

``_iterate`` is the one solver loop: forward-backward splitting, CG on the
normal equations and ADMM are each a step function with its own stop rule,
and ``_iterate`` keeps the traces and builds every ``SolveReport``.
``_forward_backward`` is the one first-order step: a gradient step, then no
prox (gradient descent) or the soft threshold (ISTA, and FISTA at a momentum
point); it reuses the objective's residual ``H f - g``, so each iteration
applies ``H`` once.
``_cg_quadratic`` is the one CG kernel: it checks the start and returns the
CG step, which ``conjugate_gradient_normal`` runs through ``_iterate`` and
ADMM's f-step runs for at most ``inner_iter`` iterations.  ADMM's objective
costs no apply: its misfit follows from the f-step's final CG residual and
the ``L f`` it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, ValidationError
from .grids import _NONNEGATIVE, _POSITIVE, _count, _number, _real, _seed_value, normal_stream
from .operators import LinearMap, op_matrix
from .phantoms import snr_db

__all__ = [
    "Objective",
    "SolveReport",
    "SweepResult",
    "NullspaceReport",
    "objective_value",
    "gradient_descent",
    "conjugate_gradient_normal",
    "nullspace_demo",
    "prox_apply",
    "ista",
    "admm",
    "lambda_sweep",
]

@dataclass(frozen=True)
class Objective:
    """A data-fidelity term plus a separable penalty on ``reg_op`` outputs.

    ``penalty`` names a ``_PENALTIES`` entry; ``reg_op = None`` means the
    identity.
    """

    forward: LinearMap
    data: np.ndarray
    penalty: str = "quadratic"
    lam: float = 0.0
    reg_op: LinearMap | None = None

    def __post_init__(self):
        data = self.forward._coerce(self.data, self.forward.range_shape, "data")
        object.__setattr__(self, "lam", _number(self.lam, "Objective lam", _NONNEGATIVE))
        if self.penalty not in _PENALTIES:
            raise ValidationError(f"unknown penalty {self.penalty!r}")
        if self.reg_op is not None:
            if self.reg_op.domain_shape != self.forward.domain_shape:
                raise ValidationError("reg_op domain must match the forward domain")
        object.__setattr__(self, "data", data)

    def reg_apply(self, f: np.ndarray) -> np.ndarray:
        return f if self.reg_op is None else self.reg_op.apply(f)

    def reg_adjoint(self, v: np.ndarray) -> np.ndarray:
        return v if self.reg_op is None else self.reg_op.adjoint(v)

    def reg_normal(self, f: np.ndarray) -> np.ndarray:
        return f if self.reg_op is None else self.reg_op.normal(f)


@dataclass
class SolveReport:
    """What a solver did: the estimate, its traces, the iteration count and the stop verdict."""

    final: np.ndarray
    objective_trace: np.ndarray
    residual_trace: np.ndarray
    iterations: int
    converged: bool


def objective_value(obj: Objective, f) -> float:
    f = _real(f, "objective_value")
    return _objective(obj, f, _sqnorm(obj.forward.apply(f) - obj.data))


def _sqnorm(x: np.ndarray) -> float:
    return float(np.vdot(x, x))


def _objective(obj: Objective, f: np.ndarray, fid2: float, lf=None) -> float:
    """``objective_value`` from the squared misfit ``||H f - g||^2`` (and ``L f``) at hand."""
    lf = obj.reg_apply(f) if lf is None else lf
    return 0.5 * fid2 + obj.lam * _PENALTIES[obj.penalty][0](lf)


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
    if f0 is None:
        return np.zeros(obj.forward.domain_shape)
    return obj.forward._coerce(f0, obj.forward.domain_shape, "f0").copy()


def _iterate(
    f: np.ndarray, step: Callable, max_iter: int, label: str, converged: bool = False
) -> SolveReport:
    """Run ``step`` from ``f`` until its stop rule holds or ``max_iter`` runs out.

    ``step(f, trace, where)`` does one iteration and returns ``(f, objective,
    residual, converged)``.  It hands ``trace`` (the objective values so far)
    and ``where`` to ``_check_finite`` before a non-finite value can reach an
    operator, so a divergence names its iteration and carries the trace.
    ``converged`` is the start's verdict: a start that already meets the stop
    rule runs no iteration.
    """
    max_iter = _count(max_iter, f"{label} max_iter", 0)
    objective: list[float] = []
    residual: list[float] = []
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
    )


# ---------------------------------------------------------------------------
# Step-size estimation
# ---------------------------------------------------------------------------


def _auto_step(obj: Objective, seed) -> float:
    """The step 0.9 / Lip, Lip the top eigenvalue of ``H* H + w L* L``.

    That is the Hessian of J's smooth part: ``w = lam`` for the quadratic
    penalty and ``w = 0`` for abs.  It runs 50 power iterations from a seeded
    start; a zero operator gets step 1, and an operator so small that the
    squares of ``H* H v`` underflow still gets its own step.
    """
    apply_normal = _normal_equations(obj, obj.lam if obj.penalty == "quadratic" else 0.0)
    shape = obj.forward.domain_shape
    n = int(np.prod(shape))
    v = normal_stream(n, 1.0, _seed_value(seed)).reshape(shape)
    norm = float(np.linalg.norm(v.ravel()))
    if norm == 0.0:
        return 1.0
    v = v / norm
    top = 0.0
    for _ in range(50):
        w = apply_normal(v)
        top = float(np.linalg.norm(w.ravel()))
        if top == 0.0:
            # the squares of a tiny w underflow: take the norm of w / max|w|
            peak = float(np.max(np.abs(w)))
            if peak == 0.0:
                return 1.0
            top = peak * float(np.linalg.norm(w.ravel() / peak))
        if not np.isfinite(top):
            # an overflow here would surface as an input error at the next apply
            raise DivergenceError("power iteration: the normal operator overflowed")
        v = w / top
    return 0.9 / top


# ---------------------------------------------------------------------------
# Forward-backward splitting: gradient descent, ISTA and FISTA
# ---------------------------------------------------------------------------


def _forward_backward(
    obj: Objective,
    f: np.ndarray,
    gamma: float,
    accelerate: bool,
    max_iter: int,
    tol: float,
    label: str,
) -> SolveReport:
    """Iterate ``f <- prox(y - gamma * gradient)`` from ``f`` for at most ``max_iter`` steps.

    The gradient is the smooth part's at ``y``: ``H* (H y - g)``, plus
    ``lam L* L y`` for a quadratic objective, which then has no prox; the abs
    penalty's soft threshold, its ``_PENALTIES`` prox, runs with step ``gamma lam``.
    ``y`` is the last iterate, or with ``accelerate`` FISTA's momentum point,
    whose residual follows by linearity.  The run stops on a relative
    objective change of at most ``tol``; without momentum, 5 rises in a row
    diverge.  The residual trace holds the step lengths ||f_{k+1} - f_k||.
    """
    tol = _number(tol, f"{label} tol", _NONNEGATIVE)
    smooth = obj.penalty == "quadratic"  # then the gradient step covers all of J
    prox = _PENALTIES[obj.penalty][1]
    weight = gamma * obj.lam
    if not smooth and not np.isfinite(weight):
        raise DivergenceError(f"{label}: the prox step gamma lam overflowed (gamma {gamma:.3e})")
    resid = obj.forward.apply(f) - obj.data
    prev = _objective(obj, f, _sqnorm(resid))
    y, resid_y, t, rises = f, resid, 1.0, 0

    def step(f, trace, where):
        nonlocal resid, prev, y, resid_y, t, rises
        if accelerate:
            # the momentum point is new; the last iterate passed the checks below
            _check_finite(trace, where, y, resid_y)
        else:
            y, resid_y = f, resid
        grad = obj.forward.adjoint(resid_y)
        if smooth and obj.lam > 0:
            grad = grad + obj.lam * obj.reg_normal(y)
        descent = y - gamma * grad
        del grad  # not held through the forward apply below, the step's memory peak
        _check_finite(trace, where, descent)
        f_new = descent if smooth else prox(descent, weight)
        resid_new = obj.forward.apply(f_new) - obj.data
        change = f_new - f
        if accelerate:
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta = (t - 1.0) / t_new
            y = f_new + beta * change
            resid_y = resid_new + beta * (resid_new - resid)
            t = t_new
        resid = resid_new
        current = _objective(obj, f_new, _sqnorm(resid))
        _check_finite(trace, where, current)
        rises = rises + 1 if current > prev and not accelerate else 0
        if rises >= 5:
            raise DivergenceError(
                f"objective grew for 5 consecutive iterations (step {gamma:.3e})",
                trace=np.asarray(trace + [current]),
            )
        converged = abs(current - prev) <= tol * max(abs(prev), 1e-300)
        prev = current
        return f_new, current, float(np.linalg.norm(change.ravel())), converged

    return _iterate(f, step, max_iter, label)


def gradient_descent(
    obj: Objective,
    f0=None,
    step: float | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
    power_seed=0,
) -> SolveReport:
    """Fixed-step descent on the quadratic objective 0.5 ||g - H f||^2 + lam ||L f||^2 / 2.

    Each step is ``f <- f - step (H* (H f - g) + lam L* L f)``.  ``step=None``
    picks the auto step: 0.9 / Lip with the Lipschitz constant estimated by 50
    power iterations from a seeded start, which keeps the trace monotone.
    ``power_seed`` is checked even with a fixed step.
    """
    if obj.penalty != "quadratic":
        raise ValidationError("gradient_descent handles the quadratic penalty")
    f = _start(obj, f0)
    if step is None:
        gamma = _auto_step(obj, power_seed)
    else:
        gamma = _number(step, "gradient descent step", _POSITIVE)
        _seed_value(power_seed)
    return _forward_backward(obj, f, gamma, False, max_iter, tol, "gradient descent")


# ---------------------------------------------------------------------------
# Conjugate gradients on the normal equations
# ---------------------------------------------------------------------------


_EPS = float(np.finfo(np.float64).eps)


def _cg_quadratic(apply_a: Callable, b: np.ndarray, x: np.ndarray, tol: float, trace=()):
    """Plain CG for SPD (or consistent PSD) systems ``A x = b``, started at ``x``.

    Returns ``(step, r, converged)``: the start residual ``r = b - A x``,
    whether it already meets the stop test ``||r|| <= max(tol, eps) ||b||``
    (``eps`` the float64 machine epsilon: a recurrence residual below it is
    roundoff, and CG run past it diverges), and
    ``step(x, trace, where)``, which does one iteration and returns ``(x, r,
    ||r||, converged)``.  ``r`` is the recurrence residual, so a caller has
    ``A x = b - r`` without another apply.  ``trace`` is the caller's
    objective trace, carried by a DivergenceError when the residual leaves
    the finite range.
    """
    r = b - apply_a(x)
    p = r.copy()
    rs = _sqnorm(r)
    _check_finite(trace, "conjugate gradients start", rs)
    stop = max(tol, _EPS) * max(float(np.linalg.norm(b.ravel())), 1e-300)

    def step(x, trace, where):
        nonlocal r, p, rs
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0:
            raise DivergenceError(
                f"{where}: non-positive curvature direction", trace=np.asarray(trace)
            )
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = _sqnorm(r)
        _check_finite(trace, where, rs_new, x)
        converged = bool(np.sqrt(rs_new) <= stop)
        if not converged:
            p = r + (rs_new / rs) * p
        rs = rs_new
        return x, r, float(np.sqrt(rs_new)), converged

    return step, r, bool(np.sqrt(rs) <= stop)


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
    tol = _number(tol, "conjugate gradients tol", _NONNEGATIVE)
    cg_step, _, converged = _cg_quadratic(
        _normal_equations(obj, obj.lam), obj.forward.adjoint(obj.data), f, tol
    )

    def step(f, trace, where):
        f, _, residual, converged = cg_step(f, trace, where)
        return f, objective_value(obj, f), residual, converged

    return _iterate(f, step, max_iter, "conjugate gradients", converged)


@dataclass
class NullspaceReport:
    """Three least-squares solutions of one underdetermined 3x3 system.

    ``reports[i].final`` is the solution CG reached from ``inits[i]``, and
    ``sse[i]`` its sum of squared residuals.
    """

    inits: np.ndarray
    sse: np.ndarray
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
    sse = np.array([float(np.sum((g - h @ rep.final) ** 2)) for rep in reports])
    return NullspaceReport(inits, sse, reports)


# ---------------------------------------------------------------------------
# Proximal operators
# ---------------------------------------------------------------------------


# penalty -> (potential sum_n phi(u_n), prox(u, step)), for
# J(f) = 0.5 ||H f - g||^2 + lam potential(L f).  The prox minimizes
# 0.5 (u - p)^2 + step phi(p) per element; the solvers call it unchecked,
# having checked u and step.
_PENALTIES = {
    "quadratic": (lambda lf: 0.5 * _sqnorm(lf), lambda u, step: u / (1.0 + step)),
    "abs": (
        lambda lf: float(np.sum(np.abs(lf))),
        lambda u, step: np.sign(u) * np.maximum(np.abs(u) - step, 0.0),
    ),
}


def prox_apply(penalty: str, u, step: float) -> np.ndarray:
    """Elementwise minimizer of 0.5 (u - f)^2 + step * Phi(f).

    Phi is the potential of ``penalty``: f^2 / 2 for quadratic and |f| for
    abs.  ``step`` carries the penalty weight: gamma lam in ISTA/FISTA,
    lam / rho in ADMM.
    """
    if penalty not in _PENALTIES:
        raise ValidationError(f"unknown penalty {penalty!r}")
    u = _real(u, "prox_apply")
    if not np.all(np.isfinite(u)):
        raise ValidationError("prox_apply input contains non-finite samples")
    step = _number(step, "prox_apply step", _NONNEGATIVE)
    return _PENALTIES[penalty][1](u, step)


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
    gamma = _auto_step(obj, power_seed)
    label = "fista" if accelerate else "ista"
    return _forward_backward(obj, f, gamma, accelerate, max_iter, tol, label)


# ---------------------------------------------------------------------------
# ADMM
# ---------------------------------------------------------------------------


def admm(
    obj: Objective,
    f0=None,
    rho: float = 1.0,
    max_iter: int = 200,
    tol: float = 1e-6,
    inner_iter: int = 30,
) -> SolveReport:
    """Scaled-dual ADMM for J = 0.5 ||g - H f||^2 + lam sum phi(L f) on the split u = L f.

    f-step: warm-started CG on (H* H + rho L* L) f = H* g + rho L* (u - a),
    for at most ``inner_iter`` iterations or a relative residual of 1e-8;
    u-step: the prox of the potential with step lam / rho applied to L f + a;
    dual update: a += L f - u.  Converged when the primal residual
    ||L f - u|| and the dual residual rho ||L* (u - u_prev)|| are both at
    most ``tol``.

    The objective trace takes its misfit from the f-step's CG residual, as a
    difference of terms of size rho ||L f||^2, so it loses accuracy as rho
    grows: about 2e-6 relative at rho = 1e12, and meaningless by 1e20.  The
    iterates and the stop rule do not read it.
    """
    rho = _number(rho, "admm rho", _POSITIVE)
    tol = _number(tol, "admm tol", _NONNEGATIVE)
    inner_iter = _count(inner_iter, "admm inner_iter", 0)
    f = _start(obj, f0)

    prox = _PENALTIES[obj.penalty][1]
    prox_step = obj.lam / rho
    if not np.isfinite(prox_step):
        raise DivergenceError(f"admm: the prox step lam / rho overflowed (rho {rho:.3e})")

    apply_a = _normal_equations(obj, rho)
    hg = obj.forward.adjoint(obj.data)
    gg = _sqnorm(obj.data)
    u = obj.reg_apply(f).copy()
    alpha = np.zeros_like(u)

    def split_step(f, trace, where):
        nonlocal u, alpha
        rhs = hg + rho * obj.reg_adjoint(u - alpha)
        cg_step, r, solved = _cg_quadratic(apply_a, rhs, f, 1e-8, trace)
        for it in range(1, inner_iter + 1):
            if solved:
                break
            f, r, _, solved = cg_step(f, trace, f"conjugate gradients iteration {it}")
        lf = obj.reg_apply(f)
        shifted = lf + alpha
        _check_finite(trace, where, shifted)
        u_prev = u
        u = prox(shifted, prox_step)
        _check_finite(trace, where, u)
        alpha = alpha + lf - u
        primal = float(np.linalg.norm((lf - u).ravel()))
        dual = rho * float(np.linalg.norm(obj.reg_adjoint(u - u_prev).ravel()))
        # H* H f = (rhs - r) - rho L* L f, so the misfit needs no forward apply;
        # its roundoff grows with rho ||L f||^2 (1e-11 relative at rho = 1e6)
        fid2 = float(np.vdot(f, rhs - r)) - rho * _sqnorm(lf) - 2.0 * float(np.vdot(f, hg)) + gg
        value = _objective(obj, f, fid2, lf)
        return f, value, primal, primal <= tol and dual <= tol

    return _iterate(f, split_step, max_iter, "admm")


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
    lams = [_number(lam, "lambda_sweep weight", _NONNEGATIVE) for lam in lambdas]
    if not lams:
        raise ValidationError("lambda_sweep needs at least one weight")
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
