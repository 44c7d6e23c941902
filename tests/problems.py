"""A small sparse-recovery problem that the solver tests and gate 06 share.

Not a test module: the tests import it by name.
"""

from dataclasses import dataclass

import numpy as np

from reconkit import LinearMap, ValidationError, normal_stream, op_matrix, uniform_stream


@dataclass
class SparseInstance:
    forward: LinearMap
    data: np.ndarray
    truth: np.ndarray
    lam: float


def sparse_recovery_instance(m: int = 8, n: int = 32, sparsity: int = 2, seed=8) -> SparseInstance:
    """A Gaussian sensing matrix with a sparse target and noiseless data.

    Deterministic given the seed; ``lam = 0.005 ||H* g||_inf`` is small
    enough that the l1 solution recovers the support.
    """
    if not sparsity <= m < n:
        raise ValidationError("need sparsity <= m < n")
    h = normal_stream(m * n, 1.0, seed).reshape(m, n) / np.sqrt(m)
    order = np.argsort(uniform_stream(n, seed + 1), kind="stable")
    support = np.sort(order[:sparsity])
    truth = np.zeros(n)
    signs = np.where(uniform_stream(sparsity, seed + 2) < 0.5, -1.0, 1.0)
    truth[support] = signs * (1.0 + uniform_stream(sparsity, seed + 3))
    g = h @ truth
    lam = 0.005 * float(np.max(np.abs(h.T @ g)))
    return SparseInstance(forward=op_matrix(h), data=g, truth=truth, lam=lam)

