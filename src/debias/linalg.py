"""Small dense linear algebra used by the benchmark problem generators:
Cholesky factors and SPD solves (one matrix, or each of a stack), and random
orthogonal / conditioned-SPD matrix generation.

This is the one module that imports scipy, and it does so on first use: only
the SPD solves of P4 and P5 need it.
"""

from __future__ import annotations

import numpy as np

from .observations import ContractError
from .resampling import RandomStream


class FactorizationError(ValueError):
    """Cholesky failed: the matrix is not positive definite."""


def cholesky_factor(A: np.ndarray):
    """Cholesky factor of an SPD matrix, as scipy's (c, lower) pair."""
    import scipy.linalg

    A = np.asarray(A, dtype=float)
    try:
        return scipy.linalg.cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:  # the class scipy.linalg re-exports
        raise FactorizationError(f"matrix is not positive definite: {exc}") from exc


def cho_solve(factor, b) -> np.ndarray:
    """Solve A x = b given ``factor = cholesky_factor(A)``."""
    import scipy.linalg

    return scipy.linalg.cho_solve(factor, b)


def cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for SPD A."""
    return cho_solve(cholesky_factor(A), np.asarray(b, dtype=float))


def cholesky_solve_each(mats: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A_k x_k = b for each SPD matrix of a (K, d, d) stack; (K, d) out.

    Row k is bit-identical to ``cholesky_solve(mats[k], b)``: one LAPACK
    ``dposv`` per matrix, which is ``dpotrf`` (lower, upper triangle left as
    given) followed by ``dpotrs``, the routines scipy's
    ``cho_factor``/``cho_solve`` call. The stack raises what ``cholesky_solve``
    raises for its first failing row, in that path's order: a non-finite
    matrix, then a failed factorisation, then a non-finite factor.
    """
    from scipy.linalg.lapack import dposv

    mats = np.asarray(mats, dtype=float)
    b = np.asarray(b, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (b.size, b.size) or b.ndim != 1:
        raise ValueError(f"incompatible dimensions {mats.shape} and {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("array must not contain infs or NaNs")
    finite = np.isfinite(mats).all(axis=(1, 2))
    stop = len(mats) if finite.all() else int(np.argmin(finite))
    factors = np.empty((stop, b.size, b.size))
    out = np.empty((len(mats), b.size))
    for k in range(stop):
        factors[k], out[k], info = dposv(mats[k], b, lower=1)
        if info:
            break
    else:
        k, info = stop, 0
    if not np.isfinite(factors[:k]).all():
        raise ValueError("array must not contain infs or NaNs")
    if info > 0:
        raise FactorizationError(f"matrix is not positive definite: {info}-th "
                                 "leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         'on entry to "POSV".')
    if k < len(mats):
        raise ValueError("array must not contain infs or NaNs")
    return out


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
