import itertools
import sys

import numpy as np
import pytest
import scipy
import scipy.linalg

from _oracles import kkt_solve, projected_gradient_values, quadratic_form, random_symmetric_tensor3
from debias import linalg
from debias.linalg import (FactorizationError, cholesky_solve, random_orthogonal,
                           spd_with_condition)
from debias.observations import ContractError
from debias.resampling import RandomStream


def dominant_eigenvalue(A, squarings=80):
    """Power-iteration oracle, accelerated by repeated matrix squaring."""
    B = np.asarray(A, dtype=float)
    for _ in range(squarings):
        B = B / np.abs(B).max()
        B = B @ B
    v = B @ np.ones(A.shape[0])
    v /= np.linalg.norm(v)
    return float(v @ A @ v)


def random_spd(rng, d, scale=1.0):
    G = rng.normal(size=(d, d))
    return G @ G.T + scale * np.eye(d)


# ---------------------------------------------------------------------------
# cholesky_solve


def test_cholesky_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(cholesky_solve(np.eye(3), b), b, atol=1e-14)


def test_cholesky_diagonal_example():
    x = cholesky_solve(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
    assert x == pytest.approx([1.0, 0.5], abs=1e-14)


def test_cholesky_residual_random():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 20)
    b = rng.normal(size=20)
    x = cholesky_solve(A, b)
    norm = np.linalg.norm
    assert norm(A @ x - b) <= 1e-10 * (norm(A) * norm(x) + norm(b))


def test_cholesky_roundtrip_many():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 51))
        A = random_spd(rng, d)
        b = rng.normal(size=d)
        x = cholesky_solve(A, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-9


def test_cholesky_rejects_indefinite():
    with pytest.raises(FactorizationError):
        cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# cholesky_solve against scipy's cho_factor(lower=True) / cho_solve


def scipy_solve(A, b):
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), b)


@pytest.mark.parametrize("d", range(1, 13))
def test_factor_and_solve_match_scipy_bit_for_bit(d):
    rng = np.random.default_rng(100 + d)
    spd = random_spd(rng, d)
    # only the lower triangle is factored; the upper one is ignored
    lopsided = spd + np.triu(rng.normal(size=(d, d)), 1)
    for A in (spd, spd_with_condition(d, 1e6, RandomStream(d)), lopsided):
        for b in (rng.normal(size=d), rng.normal(size=(d, 3))):
            x = cholesky_solve(A, b)
            assert x.shape == b.shape
            assert np.array_equal(x, scipy_solve(A, b))


@pytest.mark.parametrize("d", [1, 2, 6])
def test_solve_each_factors_a_copy_row_by_row(d):
    # the stack is factored in place in a working copy; its caller's stack,
    # lower and upper triangles alike, is left as it was
    rng = np.random.default_rng(200 + d)
    mats = np.stack([random_spd(rng, d) + np.triu(rng.normal(size=(d, d)), 1)
                     for _ in range(5)])
    b, before = rng.normal(size=d), mats.copy()
    # C order, and each matrix in Fortran order, the layout dposv overwrites
    for stack in (mats, mats.swapaxes(1, 2).copy().swapaxes(1, 2)):
        out = cholesky_solve(stack, b)
        assert np.array_equal(stack, before)
        assert np.array_equal(out, [cholesky_solve(A, b) for A in before])
    # a lone matrix, given in the Fortran order dposv overwrites, is left too
    for A in before:
        given = np.asfortranarray(A)
        cholesky_solve(given, b)
        assert np.array_equal(given, A)


@pytest.mark.parametrize("p, d", [(1, 1), (3, 1), (4, 3), (7, 5), (12, 7), (20, 10), (40, 20)])
def test_schur_complement_matches_scipy_bit_for_bit(p, d):
    # P5's A B^-1 A': the right-hand side A.T is Fortran-ordered, and the
    # product takes the bits of the solution's memory order as well
    rng = np.random.default_rng(200 + p)
    for _ in range(20):
        B = random_spd(rng, p)
        A = rng.normal(size=(d, p))
        x = cholesky_solve(B, A.T)
        assert x.flags.f_contiguous
        assert np.array_equal(A @ x, A @ scipy_solve(B, A.T))


NAN = np.array([[1.0, np.nan], [0.0, 1.0]])
INF = np.array([[np.inf, 0.0], [0.0, 1.0]])
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("A, ours, scipys", [
    (NAN, ValueError, ValueError),
    (INF, ValueError, ValueError),
    (np.ones((2, 3)), ValueError, ValueError),
    (np.ones(3), ValueError, ValueError),
    # the class scipy raises is wrapped as the package's own
    (INDEFINITE, FactorizationError, np.linalg.LinAlgError),
])
def test_factor_errors_match_scipy(A, ours, scipys):
    b = np.ones(len(A))
    with pytest.raises(ValueError) as got:
        cholesky_solve(A, b)
    with pytest.raises(ValueError) as ref:
        scipy.linalg.cho_factor(A, lower=True)
    assert (type(got.value), type(ref.value)) == (ours, scipys)
    if ours is FactorizationError:
        assert "2-th leading minor of the array is not positive definite" in str(got.value)


@pytest.mark.parametrize("c, b", [
    (np.eye(2), np.array([1.0, np.nan])),
    (INF, np.ones(2)),
    (np.ones((2, 3)), np.ones(2)),
    (np.eye(2), np.ones(3)),
])
def test_cho_solve_errors_match_scipy(c, b):
    with pytest.raises(ValueError) as got:
        cholesky_solve(c, b)
    with pytest.raises(ValueError) as ref:
        scipy.linalg.cho_solve((c, True), b)
    assert type(got.value) is type(ref.value) is ValueError


def test_cholesky_solve_error_messages():
    cases = [
        (np.eye(2), np.array([1.0, np.nan]), "array must not contain infs or NaNs"),
        (INF, np.ones(2), "array must not contain infs or NaNs"),
        (np.ones((2, 3)), np.ones(2),
         "expected a square matrix or a stack of them, got shape (2, 3)"),
        (np.eye(2), np.ones(3), "incompatible dimensions ((2, 2) and (3,))"),
        (np.eye(2), np.ones((2, 2, 1)), "incompatible dimensions ((2, 2) and (2, 2, 1))"),
        (np.ones((4, 2, 3)), np.ones(2),
         "expected a square matrix or a stack of them, got shape (4, 2, 3)"),
        (np.ones((1, 4, 2, 2)), np.ones(2),
         "expected a square matrix or a stack of them, got shape (1, 4, 2, 2)"),
        # a stack's right-hand side is one vector
        (np.ones((4, 2, 2)), np.ones((2, 1)), "incompatible dimensions ((4, 2, 2) and (2, 1))"),
        (np.ones((4, 2, 2)), np.ones(3), "incompatible dimensions ((4, 2, 2) and (3,))"),
    ]
    for A, b, message in cases:
        with pytest.raises(ValueError) as got:
            cholesky_solve(A, b)
        assert str(got.value) == message


GOOD3 = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
NAN3 = np.array([[4.0, 1.0, 0.0], [1.0, np.nan, 1.0], [0.0, 1.0, 2.0]])
INDEFINITE3 = np.diag([1.0, -1.0, 1.0])
# finite, but l31 = 1e300 / 1e-150 overflows, l32 = (0 - inf * 0) / 1 is nan
# and so is the last pivot
OVERFLOWING3 = np.array([[1e-300, 0.0, 1e300], [0.0, 1.0, 0.0], [1e300, 0.0, 1.0]])


def _raised(A, b):
    with pytest.raises(ValueError) as got:
        cholesky_solve(A, b)
    return type(got.value), str(got.value)


@pytest.mark.parametrize("order", itertools.permutations(range(4)),
                         ids=lambda order: "".join(map(str, order)))
def test_stack_raises_as_its_first_failing_matrix_alone(order):
    mats = [GOOD3, NAN3, INDEFINITE3, OVERFLOWING3]
    b = np.array([1.0, -2.0, 0.5])
    alone = {k: _raised(mats[k], b) for k in (1, 2, 3)}
    nonfinite = (ValueError, "array must not contain infs or NaNs")
    assert alone[1] == nonfinite
    assert alone[2][0] is FactorizationError and "2-th leading minor" in alone[2][1]
    # OpenBLAS's potrf takes the nan pivot, so the factor is not finite; a
    # LAPACK that flags it fails the factorisation instead
    assert alone[3] == nonfinite or alone[3][0] is FactorizationError
    stack = np.stack([mats[k] for k in order])
    before = stack.copy()
    assert _raised(stack, b) == alone[next(k for k in order if k)]
    assert np.array_equal(stack, before, equal_nan=True)


def test_missing_lapack_module_names_the_scipy_version(monkeypatch):
    class NoModules:
        @staticmethod
        def find_spec(name, path):
            return None

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")  # this process's scipy.linalg
    monkeypatch.setattr(linalg, "PathFinder", NoModules)
    linalg._own_lapack.cache_clear()
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no compiled LAPACK"):
        cholesky_solve(np.eye(2), np.ones(2))


# ---------------------------------------------------------------------------
# kkt_solve


def test_kkt_zero_rhs():
    rng = np.random.default_rng(2)
    B = random_spd(rng, 5)
    A = rng.normal(size=(2, 5))
    x, value = kkt_solve(B, A, np.zeros(2))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(x, 0.0, atol=1e-12)


def test_kkt_line_example():
    x, value = kkt_solve(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]))
    assert x == pytest.approx([1.0, 0.0], abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_kkt_matches_projected_gradient():
    rng = np.random.default_rng(3)
    Bs, As, bs = [], [], []
    for _ in range(10):
        Bs.append(random_spd(rng, 6))
        As.append(rng.normal(size=(3, 6)))
        bs.append(rng.normal(size=3))
    steps = [1.0 / (2.0 * dominant_eigenvalue(B)) for B in Bs]
    oracle = projected_gradient_values(Bs, As, bs, steps, iters=4000)
    for B, A, b, want in zip(Bs, As, bs, oracle):
        _, value = kkt_solve(B, A, b)
        assert value == pytest.approx(want, rel=1e-6)


def test_kkt_optimality_against_feasible_perturbations():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = int(rng.integers(3, 9))
        d = int(rng.integers(1, p))
        B = random_spd(rng, p)
        A = rng.normal(size=(d, p))
        b = rng.normal(size=d)
        x, value = kkt_solve(B, A, b)
        # null-space directions keep Ax = b
        _, _, Vt = np.linalg.svd(A)
        null = Vt[d:]
        for _ in range(20):
            direction = null.T @ rng.normal(size=p - d)
            y = x + 1e-3 * direction
            assert y @ B @ y >= value - 1e-12


def test_kkt_rank_deficient():
    A = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # repeated constraint
    with pytest.raises(FactorizationError):
        kkt_solve(np.eye(3), A, np.array([1.0, 2.0]))


def test_kkt_shape_guard():
    with pytest.raises(ContractError):
        kkt_solve(np.eye(2), np.eye(3), np.ones(3))


# ---------------------------------------------------------------------------
# random matrices


def test_orthogonal_d1():
    q = random_orthogonal(1, RandomStream(5))
    assert q.shape == (1, 1)
    assert abs(abs(q[0, 0]) - 1.0) < 1e-12


def test_orthogonal_large():
    Q = random_orthogonal(100, RandomStream(6))
    assert np.abs(Q.T @ Q - np.eye(100)).max() <= 1e-10
    assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-8


def test_spd_condition_d1():
    assert spd_with_condition(1, 100.0, RandomStream(7)).tolist() == [[1.0]]


def test_spd_condition_d2_endpoints():
    A = spd_with_condition(2, 2.0, RandomStream(8))
    eig = np.sort(np.linalg.eigvalsh(A))
    assert eig == pytest.approx([1.0, 2.0], abs=1e-9)


def test_spd_condition_power_iteration():
    A = spd_with_condition(50, 10.0, RandomStream(9))
    lam_max = dominant_eigenvalue(A)
    lam_min = 1.0 / dominant_eigenvalue(np.linalg.inv(A))
    assert lam_max / lam_min == pytest.approx(10.0, rel=1e-6)


def test_spd_condition_is_spd_and_in_range():
    for seed in range(5):
        A = spd_with_condition(12, 7.0, RandomStream(20 + seed))
        np.linalg.cholesky(A)  # raises if not SPD
        eig = np.linalg.eigvalsh(A)
        assert eig.min() >= 1.0 - 1e-9
        assert eig.max() <= 7.0 + 1e-9


# ---------------------------------------------------------------------------
# quadratic forms and tensors


def test_quadratic_form_examples():
    assert quadratic_form(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)
    assert quadratic_form(np.eye(3), np.zeros(3)) == 0.0
    assert quadratic_form(np.diag([2.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(5.0)


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ContractError):
        quadratic_form(np.eye(2), np.ones(3))


def test_symmetric_tensor3_permutation_invariance():
    T = random_symmetric_tensor3(4, RandomStream(10))
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert np.allclose(T, np.transpose(T, perm), atol=1e-14)
