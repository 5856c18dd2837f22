"""Test-only helpers: a quadratic form, an independent KKT solve for P5's
equality-constrained minimum, and a random symmetric third-order tensor."""

import numpy as np

from debias.linalg import FactorizationError, cholesky_solve
from debias.observations import ContractError
from debias.resampling import RandomStream


def quadratic_form(A: np.ndarray, y: np.ndarray) -> float:
    """y^T A y."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.shape != (y.shape[0], y.shape[0]):
        raise ContractError(f"dimension mismatch: A {A.shape}, y {y.shape}")
    return float(y @ A @ y)


def kkt_solve(B: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Minimize x^T B x subject to A x = b, for SPD B and full-row-rank A.

    Solved through the Schur complement: x = B^{-1} A^T (A B^{-1} A^T)^{-1} b,
    with optimal value b^T (A B^{-1} A^T)^{-1} b.

    Returns
    -------
    (x, value) : minimizer and minimum value.
    """
    B = np.asarray(B, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    d, p = A.shape
    if d > p:
        raise ContractError(f"A must have full row rank, needs d <= p, got {A.shape}")
    if B.shape != (p, p) or b.shape != (d,):
        raise ContractError(f"shape mismatch: B {B.shape}, A {A.shape}, b {b.shape}")
    Binv_At = cholesky_solve(B, A.T)
    schur = A @ Binv_At
    try:
        lam = cholesky_solve(schur, b)
    except FactorizationError as exc:
        raise FactorizationError(f"A B^-1 A^T is rank deficient: {exc}") from exc
    x = Binv_At @ lam
    value = float(b @ lam)
    residual = np.linalg.norm(A @ x - b)
    if residual > 1e-9 * max(1.0, np.linalg.norm(b)):
        raise FactorizationError(f"KKT solve lost feasibility, |Ax-b| = {residual:.3e}")
    return x, value


def random_symmetric_tensor3(d: int, stream: RandomStream) -> np.ndarray:
    """Random rank-3 tensor symmetrized over all index permutations."""
    T = stream.normal((d, d, d))
    out = np.zeros_like(T)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(T, perm)
    return out / 6.0
