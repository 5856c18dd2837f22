"""Small dense linear algebra used by the benchmark problem generators:
one SPD solve, ``cholesky_solve``, for a matrix or a stack of them, and
random orthogonal / conditioned-SPD matrix generation.

This is the one module that uses scipy, and it does so on first use: only
the SPD solves of P4 and P5 need it. Every solve is one call of LAPACK's
``dposv`` (a Cholesky factorisation of the lower triangle, then the two
triangular solves) through scipy's compiled wrapper module
``scipy.linalg._flapack``, loaded without importing the ``scipy.linalg``
package. A matrix, or each matrix of a stack, is factored in place in one
Fortran-ordered working copy.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy as np

from .observations import ContractError
from .resampling import RandomStream

_FLAPACK = "scipy.linalg._flapack"


class FactorizationError(ValueError):
    """Cholesky failed: the matrix is not positive definite."""


def _lapack():
    """scipy's compiled LAPACK wrappers: the module ``scipy.linalg`` loaded,
    if it is loaded, else this package's own copy."""
    return sys.modules.get(_FLAPACK) or _own_lapack()


@functools.cache
def _own_lapack():
    """``scipy.linalg._flapack`` loaded on first use, and kept out of
    ``sys.modules``.

    ``import scipy`` runs scipy's own start-up (DLL paths on Windows, for
    one); the extension module is then loaded from scipy's ``linalg``
    directory. The ``scipy.linalg`` package itself, and the array-API
    machinery it imports, stay unloaded, and a later ``import scipy.linalg``
    loads and binds its own ``_flapack`` (the same compiled routines) as usual.
    """
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = PathFinder.find_spec(_FLAPACK, [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled LAPACK module "
                          f"_flapack in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension registers itself; left there, a later
    # ``import scipy.linalg`` would find it and not bind ``scipy.linalg._flapack``
    sys.modules.pop(_FLAPACK, None)
    return module


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _check_factorization(info: int, routine: str) -> None:
    if info > 0:
        raise FactorizationError(f"matrix is not positive definite: {info}-th "
                                 "leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         f'on entry to "{routine}".')


def cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for SPD A: one matrix, b a vector or a matrix of
    right-hand sides, and x returned as ``dposv`` leaves it (Fortran order
    for a matrix); or each matrix of a (K, d, d) stack, b a vector, and x
    (K, d), row k bit-identical to a solve of ``A[k]`` alone.

    Each matrix is one ``dposv`` call, factored in place in a Fortran-ordered
    working copy. A stack raises what a solve of its first failing matrix
    alone raises, in that order: a non-finite matrix (ValueError), then a
    failed factorisation, a non-finite factor and a non-finite solution, as
    a finite SPD matrix with a subnormal pivot gives (each a
    FactorizationError; a stack's non-finite solution names its matrix).
    """
    A = np.asarray(A, dtype=float)
    b = _finite(b)
    if A.ndim not in (2, 3) or A.shape[-2] != A.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if b.ndim not in ((1, 2) if A.ndim == 2 else (1,)) or b.shape[0] != A.shape[-1]:
        raise ValueError(f"incompatible dimensions ({A.shape} and {b.shape})")
    mats = A if A.ndim == 3 else A[None]
    finite = np.isfinite(mats)
    stop = len(mats) if finite.all() else int(np.argmin(finite.all(axis=(1, 2))))
    work = mats[:stop].swapaxes(1, 2).copy().swapaxes(1, 2)
    dposv, x, info = _lapack().dposv, [], 0
    for mat in work:
        _, solved, info = dposv(mat, b, lower=1, overwrite_a=1)
        if info:
            break
        x.append(solved)
    rows = np.reshape(x, (len(x), b.size))
    if not (np.isfinite(work[:len(x)]).all() and np.isfinite(rows).all()):
        factored = np.isfinite(work[:len(x)]).all(axis=(1, 2))
        k = int(np.argmin(factored & np.isfinite(rows).all(axis=1)))
        if not factored[k]:
            raise FactorizationError("the Cholesky factor is not finite")
        raise FactorizationError("the solution is not finite" if A.ndim == 2
                                 else f"the solution for matrix {k} of the stack is not finite")
    _check_factorization(info, "POSV")
    if len(x) < len(mats):
        raise ValueError("array must not contain infs or NaNs")
    return x[0] if A.ndim == 2 else rows


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
    with np.errstate(over="ignore"):  # refused below
        A = (A + A.T) / 2.0
    if not np.isfinite(A).all():
        raise ContractError(f"kappa must leave the {d} x {d} SPD matrix finite, got {kappa}")
    return A
