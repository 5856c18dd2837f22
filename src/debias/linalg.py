"""Small dense linear algebra used by the benchmark problem generators:
Cholesky factors and SPD solves, and random orthogonal / conditioned-SPD
matrix generation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .observations import ContractError
from .resampling import RandomStream


class FactorizationError(ValueError):
    """Cholesky failed: the matrix is not positive definite."""


def cholesky_factor(A: np.ndarray):
    """Cholesky factor of an SPD matrix, as scipy's (c, lower) pair."""
    A = np.asarray(A, dtype=float)
    try:
        return scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"matrix is not positive definite: {exc}") from exc


def cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for SPD A."""
    return scipy.linalg.cho_solve(cholesky_factor(A), np.asarray(b, dtype=float))


def random_orthogonal(d: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian with the sign of
    R's diagonal pushed into Q."""
    if d < 1:
        raise ContractError(f"d must be >= 1, got {d}")
    G = stream.normal((d, d))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def spd_with_condition(d: int, kappa: float, stream: RandomStream) -> np.ndarray:
    """Random SPD matrix Q diag(lam) Q^T with eigenvalues in [1, kappa].

    The extreme eigenvalues are pinned to 1 and kappa so the condition number
    is exact; interior eigenvalues are log-uniform in [1, kappa].
    """
    if d < 1:
        raise ContractError(f"d must be >= 1, got {d}")
    if kappa < 1:
        raise ContractError(f"kappa must be >= 1, got {kappa}")
    if d == 1:
        return np.array([[1.0]])
    lam = np.empty(d)
    lam[0] = 1.0
    lam[1] = kappa
    if d > 2:
        lam[2:] = np.exp(stream.uniform(d - 2) * np.log(kappa))
    Q = random_orthogonal(d, stream)
    A = (Q * lam) @ Q.T
    return (A + A.T) / 2.0
