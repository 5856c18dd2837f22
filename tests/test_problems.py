import hashlib
import math
import re
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from _oracles import (categorical, fd_derivatives, gradient_descent_values, kkt_solve,
                      paired_naive_reference, sample_observations, uniform_mixture)
from debias.core import BootstrapPlan, EmpiricalBlock, covariance_debias, shift_debias
from debias.harness import run_sweep
from debias.linalg import FactorizationError, cholesky_solve, spd_with_condition
from debias.objectives import DomainError
from debias.observations import ContractError, ObservationSet, mean_observation
from debias.problems import (
    FAMILIES,
    MAX_CELLS,
    check_cells,
    check_trial_cells,
    generate_instance,
    p1_quadratic,
    p2_quartic,
    p3_rational,
    p4_opt_value,
    p5_constraint_value,
    p6_entropy,
    p7_wasserstein,
)
from debias.resampling import RandomStream, normals


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


# ---------------------------------------------------------------------------
# objective examples


def test_p1_examples():
    F = p1_quadratic(np.eye(2))
    assert F.fn(np.zeros(2)) == 0.0
    F2 = p1_quadratic(np.diag([1.0, 2.0]))
    assert F2.fn(np.array([1.0, 1.0])) == pytest.approx(3.0)
    assert F2.gradient(np.array([1.0, 1.0])) == pytest.approx([2.0, 4.0])
    assert rel_err(F2.gradient(np.array([1.0, 1.0])),
                   fd_derivatives(F2, np.array([1.0, 1.0]))[0]) < 1e-6


def test_p2_examples():
    F = p2_quartic(np.eye(3))
    assert F.fn(np.zeros(3)) == 0.0
    x = np.array([1.0, 1.0, 0.0])  # ||x||^2 = 2 -> F = 4
    assert F.fn(x) == pytest.approx(4.0)


def test_p3_examples():
    F = p3_rational(np.array([1.0]), np.array([1.0]))
    assert F.fn(np.array([1.0])) == pytest.approx(2.0)
    assert F.gradient(np.array([1.0])) == pytest.approx([0.0], abs=1e-12)
    assert not F.domain_check(np.array([1e-320]))
    with pytest.raises(DomainError):
        F.evaluate(ObservationSet.from_points([[1e-320]]).points[0])


def test_p3_requires_positive_coefficients():
    with pytest.raises(ContractError):
        p3_rational(np.array([1.0, -1.0]), np.array([1.0, 1.0]))


def test_p4_examples():
    b = np.array([1.0, 1.0])
    F = p4_opt_value(b)
    assert F.fn(np.eye(2).ravel()) == pytest.approx(-1.0)  # -.5 ||b||^2
    assert F.fn(np.diag([1.0, 2.0]).ravel()) == pytest.approx(-0.75)
    assert F.sign_constraint == "negative"
    assert F.hessian is None


def test_p5_examples():
    B = np.eye(2)
    A = np.array([[1.0, 0.0]])
    F = p5_constraint_value(B, A)
    assert F.fn(np.zeros(1)) == pytest.approx(0.0, abs=1e-12)
    assert F.fn(np.array([1.0])) == pytest.approx(1.0)
    # matches the standalone KKT solver on a random instance
    rng = np.random.default_rng(0)
    B2 = spd_with_condition(6, 3.0, RandomStream(1))
    A2 = rng.normal(size=(3, 6))
    F2 = p5_constraint_value(B2, A2)
    bv = rng.normal(size=3)
    _, value = kkt_solve(B2, A2, bv)
    assert F2.fn(bv) == pytest.approx(value, rel=1e-10)


def test_p6_examples():
    F = p6_entropy(4)
    assert F.fn(np.full(4, 0.25)) == pytest.approx(math.log(4.0))
    assert F.fn(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
    assert F.fn(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(math.log(2.0))
    with pytest.raises(DomainError):
        F.evaluate(ObservationSet.from_points([[0.5, 0.5, 0.5, -0.5]]).points[0])


def test_p7_examples():
    F = p7_wasserstein()
    s = uniform_mixture(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert F.evaluate((s, s)) == pytest.approx(0.0, abs=1e-12)
    a = uniform_mixture(np.array([[0.0, 0.0]]))
    b = uniform_mixture(np.array([[3.0, 4.0]]))
    assert F.evaluate((a, b)) == pytest.approx(25.0)
    # 1-D uniform {0,1} vs {1,2}
    pa = uniform_mixture(np.array([[0.0], [1.0]]))
    pb = uniform_mixture(np.array([[1.0], [2.0]]))
    assert F.evaluate((pa, pb)) == pytest.approx(1.0)


@pytest.mark.parametrize("params, n", [({}, 10), ({"m_samples": 7}, 10), ({"d": 1}, 10),
                                       ({"d": 32}, 10), ({}, 1)])
def test_p7_naive_value_is_transport_value_at_uniform_mixtures(params, n):
    # F is evaluated on point clouds only through fn_many, the naive value
    # at one uniform coefficient row per cloud
    for seed in range(4):
        inst = generate_instance("P7", params, RandomStream(seed))
        (clouds,) = inst.noise.sample(n, [RandomStream(seed).split(1)])
        (naive,) = EmpiricalBlock(inst.objective, [clouds]).naive
        assert naive.hex() == paired_naive_reference(clouds).hex()


def test_p7_duplicate_points_match_merged_cloud():
    # equal points stay separate atoms, so W2^2 of a cloud with duplicate
    # rows is that of the merged distribution up to rounding, at its mean
    # and at its resamples
    from debias.transport import transport_value

    F = p7_wasserstein()
    rng = np.random.default_rng(4)
    pool_x, pool_y = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))

    def merged(pool, picks, coeffs):
        w = np.bincount(picks, weights=coeffs, minlength=len(pool))
        return pool[w > 0], w[w > 0] / w.sum()

    for _ in range(20):
        ix, iy = rng.integers(0, 4, 9), rng.integers(0, 3, 7)
        clouds = (pool_x[ix], pool_y[iy])
        counts = [rng.integers(0, 3, (2, n)) + np.eye(1, n) for n in (9, 7)]
        coeffs = [c / c.sum(axis=1, keepdims=True) for c in counts]
        got = [F.evaluate(tuple(map(uniform_mixture, clouds))), *F.fn_many(clouds, coeffs)]
        rows = zip(got, [np.ones(9), *coeffs[0]], [np.ones(7), *coeffs[1]])
        for value, rx, ry in rows:
            (sx, wx), (sy, wy) = merged(pool_x, ix, rx), merged(pool_y, iy, ry)
            assert value == pytest.approx(transport_value(sx, sy, wx, wy), rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# derivative checks (P1, P2, P3, P5)


def _check_derivatives(F, draw_point, n_points=20, grad_tol=1e-5, hess_tol=1e-5):
    rng = np.random.default_rng(42)
    for _ in range(n_points):
        x = draw_point(rng)
        g, H = fd_derivatives(F, x)
        assert rel_err(np.asarray(F.gradient(x)), g) < grad_tol
        assert rel_err(np.asarray(F.hessian(x)), (H + H.T) / 2) < hess_tol


def test_p1_derivatives():
    A = spd_with_condition(4, 3.0, RandomStream(2))
    _check_derivatives(p1_quadratic(A), lambda rng: rng.normal(size=4))


def test_p2_derivatives():
    A = spd_with_condition(4, 3.0, RandomStream(3))
    _check_derivatives(p2_quartic(A), lambda rng: rng.normal(size=4), hess_tol=1e-4)


def test_p2_third_derivative_against_hessian_differences():
    A = spd_with_condition(3, 2.0, RandomStream(4))
    F = p2_quartic(A)
    rng = np.random.default_rng(5)
    x = rng.normal(size=3)
    h = 1e-5
    T_fd = np.empty((3, 3, 3))
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        T_fd[:, :, c] = (F.hessian(x + e) - F.hessian(x - e)) / (2 * h)
    assert rel_err(F.third_derivative(x), T_fd) < 1e-4


def test_p3_derivatives():
    b = np.array([0.5, 1.0, 2.0])
    c = np.array([1.0, 0.5, 0.25])
    _check_derivatives(p3_rational(b, c), lambda rng: rng.uniform(0.5, 3.0, size=3))


def test_p5_derivatives():
    B = spd_with_condition(6, 2.0, RandomStream(6))
    A = np.random.default_rng(7).normal(size=(3, 6))
    _check_derivatives(p5_constraint_value(B, A), lambda rng: rng.normal(size=3))


# ---------------------------------------------------------------------------
# convexity spot checks


def _midpoint_convex(F, draw_point, pairs=200, sign=1.0):
    rng = np.random.default_rng(8)
    for _ in range(pairs):
        u, v = draw_point(rng), draw_point(rng)
        lhs = sign * F.fn((u + v) / 2)
        rhs = (sign * F.fn(u) + sign * F.fn(v)) / 2
        assert lhs <= rhs + 1e-9


def test_convexity_p1_p2():
    A = spd_with_condition(3, 4.0, RandomStream(9))
    _midpoint_convex(p1_quadratic(A), lambda rng: rng.normal(size=3))
    _midpoint_convex(p2_quartic(A), lambda rng: rng.normal(size=3))


def test_convexity_p3():
    F = p3_rational(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    _midpoint_convex(F, lambda rng: rng.uniform(0.2, 4.0, size=2))


def test_convexity_p5():
    B = spd_with_condition(5, 2.0, RandomStream(10))
    A = np.random.default_rng(11).normal(size=(2, 5))
    _midpoint_convex(p5_constraint_value(B, A), lambda rng: rng.normal(size=2))


def test_concavity_p4():
    b = np.array([1.0, -0.5])

    def draw_spd_flat(rng):
        G = rng.normal(size=(2, 2))
        return (G @ G.T + 0.5 * np.eye(2)).ravel()

    _midpoint_convex(p4_opt_value(b), draw_spd_flat, pairs=100, sign=-1.0)


def test_concavity_p6():
    F = p6_entropy(4)

    def draw_simplex(rng):
        g = rng.gamma(1.0, 1.0, 4)
        return g / g.sum()

    _midpoint_convex(F, draw_simplex, pairs=100, sign=-1.0)


def test_convexity_p7_mixtures():
    # LP value is jointly convex in the pair of marginals; test on mixtures
    # of weighted empiricals over a shared support
    from debias.transport import transport_value

    rng = np.random.default_rng(12)
    support_x = rng.normal(size=(4, 2))
    support_y = rng.normal(size=(5, 2))

    def rand_weights(k):
        w = rng.gamma(1.0, 1.0, k)
        return w / w.sum()

    for _ in range(100):
        p1, p2 = rand_weights(4), rand_weights(4)
        q1, q2 = rand_weights(5), rand_weights(5)
        lhs = transport_value(support_x, support_y, (p1 + p2) / 2, (q1 + q2) / 2)
        rhs = (transport_value(support_x, support_y, p1, q1)
               + transport_value(support_x, support_y, p2, q2)) / 2
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# closed forms vs iterative oracles


def test_p4_matches_gradient_descent():
    # inner problem min .5 x'Ax + b'x solved iteratively
    rng = np.random.default_rng(13)
    As, bs = [], []
    for _ in range(10):
        d = int(rng.integers(2, 6))
        G = rng.normal(size=(d, d))
        As.append(G @ G.T + np.eye(d))
        bs.append(rng.normal(size=d))
    steps = [1.0 / (np.linalg.eigvalsh(A).max()) for A in As]
    iterative = gradient_descent_values(As, bs, steps, iters=3000)
    for A, b, want in zip(As, bs, iterative):
        assert p4_opt_value(b).fn(A.ravel()) == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_p4_rejects_non_spd():
    F = p4_opt_value(np.array([1.0, 1.0]))
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]]).ravel()
    with pytest.raises(Exception):
        F.fn(indefinite)


# ---------------------------------------------------------------------------
# noise models and generators


def test_generate_instance_defaults():
    inst = generate_instance("P1", {}, RandomStream(14))
    assert inst.params["d"] == 20
    assert inst.params["kappa"] == 2.0
    assert inst.params["sigma"] == 1.0
    assert np.linalg.norm(inst.truth_input) ** 2 == pytest.approx(2.0)
    assert inst.truth_value == pytest.approx(inst.objective.evaluate(inst.truth_input))


def test_generate_instance_rejects_unknown_params():
    with pytest.raises(ContractError):
        generate_instance("P1", {"bogus": 1}, RandomStream(0))
    with pytest.raises(ContractError):
        generate_instance("P9", {}, RandomStream(0))


def test_generate_instance_refuses_an_integer_no_float_holds():
    # raised OverflowError from math.isfinite
    with pytest.raises(ContractError,
                       match="^kappa must fit in a float, got an integer of 401 digits$"):
        generate_instance("P1", {"kappa": 10**400}, RandomStream(0))


def test_generate_instance_refuses_an_integer_past_the_str_limit():
    # raised ValueError: Python's int-to-str conversion stops at 4300 digits
    with pytest.raises(ContractError,
                       match="^kappa must fit in a float, got an integer of 5001 digits$"):
        generate_instance("P1", {"kappa": 10**5000}, RandomStream(0))


def test_generate_instance_names_an_unknown_integer_past_the_str_limit():
    # raised ValueError from formatting the value into the message
    with pytest.raises(ContractError, match=r"^P1 does not take bogus=an integer of 5001 "
                                            r"digits; valid: \['d', 'kappa', 'sigma', "
                                            r"'xstar_norm2'\]$"):
        generate_instance("P1", {"bogus": 10**5000}, RandomStream(0))


def test_generate_instance_deterministic():
    a = generate_instance("P4", {"d": 3}, RandomStream(15))
    b = generate_instance("P4", {"d": 3}, RandomStream(15))
    assert a.truth_value == b.truth_value
    assert np.array_equal(a.truth_input, b.truth_input)


def test_p1_sample_mean_correctness():
    inst = generate_instance("P1", {"d": 3}, RandomStream(16))
    obs = sample_observations(inst, 100_000, RandomStream(17))
    x_star = inst.truth_input
    se = inst.params["sigma"] / math.sqrt(len(obs))
    assert np.all(np.abs(obs.points.mean(axis=0) - x_star) < 3 * se)


def test_p3_noise_mean_and_positivity():
    inst = generate_instance("P3", {"d": 4}, RandomStream(18))
    obs = sample_observations(inst, 100_000, RandomStream(19))
    x_star = inst.truth_input
    assert np.all(obs.points > 0)
    se = x_star / math.sqrt(len(obs))  # exponential sd equals its mean
    assert np.all(np.abs(obs.points.mean(axis=0) - x_star) < 3 * se)


def test_p4_observations_spd_and_mean():
    inst = generate_instance("P4", {"d": 3, "k_shape": 1.0}, RandomStream(20))
    obs = sample_observations(inst, 10_000, RandomStream(21))
    d = 3
    for row in obs.points[:50]:
        np.linalg.cholesky(row.reshape(d, d))
    a_star = inst.truth_input
    U, lam = inst.matrices["U"], inst.matrices["lam"]
    assert np.array_equal((U * lam) @ U.T, a_star.reshape(d, d))
    # entry variance: sum_l (U_il lam_l U_jl)^2 / k
    basis = np.einsum("il,l,jl->ijl", U, lam, U)
    entry_sd = np.sqrt((basis**2).sum(axis=2) / inst.params["k_shape"])
    err = np.abs(obs.points.mean(axis=0).reshape(d, d) - a_star.reshape(d, d))
    assert np.all(err < 3 * entry_sd / math.sqrt(len(obs)) + 1e-12)


def test_p6_observations_one_hot():
    inst = generate_instance("P6", {"d": 5}, RandomStream(22))
    obs = sample_observations(inst, 200, RandomStream(23))
    assert np.all(np.isin(obs.points, (0.0, 1.0)))
    assert np.all(obs.points.sum(axis=1) == 1.0)


def test_p6_category_frequencies():
    inst = generate_instance("P6", {"d": 4, "alpha": 2.0}, RandomStream(24))
    obs = sample_observations(inst, 100_000, RandomStream(25))
    p_star = inst.truth_input
    freq = obs.points.mean(axis=0)
    se = np.sqrt(p_star * (1 - p_star) / len(obs))
    assert np.all(np.abs(freq - p_star) < 3 * se + 1e-12)


def test_p7_sampling_shapes_and_truth():
    inst = generate_instance("P7", {"d": 4, "mu2_norm": 1.5}, RandomStream(26))
    pair = sample_observations(inst, 7, RandomStream(27))
    assert isinstance(pair, tuple) and len(pair) == 2
    assert len(pair[0]) == 7 and len(pair[1]) == 7  # m defaults to n
    assert inst.truth_value == pytest.approx(1.5**2)
    inst2 = generate_instance("P7", {"d": 4, "m_samples": 12}, RandomStream(26))
    pair2 = sample_observations(inst2, 7, RandomStream(27))
    assert len(pair2[1]) == 12


def test_p5_needs_enough_columns():
    with pytest.raises(ContractError):
        generate_instance("P5", {"d": 10, "p_dim": 5}, RandomStream(0))


@pytest.mark.parametrize("d", range(1, 41))
def test_p5_default_p_dim_is_2d(d):
    # the one rule, equal to the max(d + 1, round(d / 0.5)) it replaced
    inst = generate_instance("P5", {"d": d}, RandomStream(d))
    assert inst.params["p_dim"] == 2 * d == max(d + 1, round(d / 0.5))
    assert inst.matrices["B"].shape == (2 * d, 2 * d)
    assert inst.matrices["A"].shape == (d, 2 * d)


def test_cell_limit_refuses_before_building():
    side = math.isqrt(MAX_CELLS)
    check_cells("d x d", side, side)
    with pytest.raises(ContractError, match=r"^d x d must be at most MAX_CELLS = 268435456 cells$"):
        check_cells("d x d", side, side + 1)
    for family, params in [("P1", {"d": side + 1}), ("P5", {"d": 3, "p_dim": 10**300})]:
        with pytest.raises(ContractError, match="must be at most MAX_CELLS"):
            generate_instance(family, params, RandomStream(0))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_presets_are_far_below_the_cell_limit(family):
    spec = FAMILIES[family]
    inst = generate_instance(family, {}, RandomStream(0))
    check_trial_cells(inst, 1000 * spec.preset_n(spec.params["d"]), spec.K)  # a thousandfold n


def test_p7_dimension_cap():
    with pytest.raises(ContractError):
        generate_instance("P7", {"d": 33}, RandomStream(0))
    generate_instance("P7", {"d": 32}, RandomStream(0))


# ---------------------------------------------------------------------------
# entropy covariance identity (the Miller-Madow special case)


def test_entropy_covariance_closed_form():
    rng = RandomStream(28)
    for d in range(2, 11):
        inst = generate_instance("P6", {"d": d, "alpha": 1.0}, rng.split(d))
        n = 6 * d
        obs = sample_observations(inst, n, rng.split(100 + d))
        est = covariance_debias(inst.objective, obs)
        pbar = mean_observation(obs)
        support = int(np.count_nonzero(pbar > 0))
        expected = (support - 1) / (2 * n)
        assert est.correction == pytest.approx(expected, abs=1e-12)


def test_entropy_covariance_zero_support_coordinates():
    # zero-mass coordinates contribute nothing
    F = p6_entropy(4)
    pts = np.zeros((6, 4))
    pts[:3, 0] = 1.0
    pts[3:, 1] = 1.0  # categories 2, 3 never observed
    est = covariance_debias(F, ObservationSet.from_points(pts))
    assert est.correction == pytest.approx((2 - 1) / (2 * 6), abs=1e-14)


def test_p2_shift_runs_end_to_end():
    inst = generate_instance("P2", {"d": 3}, RandomStream(29))
    obs = sample_observations(inst, 10, RandomStream(30))
    est = shift_debias(inst.objective, obs, BootstrapPlan(rounds=10), RandomStream(31))
    assert math.isfinite(est.debiased_value)


# ---------------------------------------------------------------------------
# batched evaluation


def _p4_reference(b, aflat):
    """P4's value through scipy's own ``cho_factor(lower=True)``/``cho_solve``."""
    d = b.size
    A = aflat.reshape(d, d)
    factor = scipy.linalg.cho_factor((A + A.T) / 2.0, lower=True)
    return -0.5 * float(b @ scipy.linalg.cho_solve(factor, b))


def _p4_lone(b, aflat):
    """P4's value through the package's one-matrix solve."""
    d = b.size
    A = aflat.reshape(d, d)
    return -0.5 * float(b @ cholesky_solve((A + A.T) / 2.0, b))


@pytest.mark.parametrize("d,kappa", [(1, 1.0), (2, 3.0), (3, 10.0), (6, 2.0), (5, 1e6),
                                     (9, 50.0), (12, 1e3)])
def test_p4_fn_many_matches_cholesky_solve(d, kappa):
    stream = RandomStream(40 + d)
    b = stream.split(0).normal(d)
    F = p4_opt_value(b)
    # stacks of one or two rows are where einsum summed P1/P2/P5 rows in
    # another order than a lone evaluation
    for rows in (1, 2, 3, 30, 100):
        # SPD stack with rounding-level asymmetry, as resample means have
        mats = np.stack([spd_with_condition(d, kappa, stream.split(1 + k)) for k in range(rows)])
        mats = mats * (1.0 + 1e-15 * stream.split(99).normal(mats.shape))
        X = mats.reshape(rows, d * d)
        expected = np.array([_p4_reference(b, x) for x in X])
        assert np.array_equal(F.fn_many(X), expected)
        assert np.array_equal(F.evaluate_batch(X), expected)
        assert np.array_equal([F.fn(x) for x in X], expected)
    assert F.fn_many(X[:0]).shape == (0,)


def _raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_p4_fn_many_rejects_bad_rows():
    b = np.array([1.0, -2.0, 0.5])
    F = p4_opt_value(b)
    non_spd = np.diag([1.0, -1.0, 1.0]).ravel()  # 2nd leading minor is negative
    nonfinite = np.eye(3).ravel()
    nonfinite[0] = np.inf
    for first, second in ((nonfinite, non_spd), (non_spd, nonfinite)):
        X = np.tile(np.eye(3).ravel(), (6, 1))
        X[2], X[4] = first, second
        # the stack fails as the one-matrix solve fails on its first bad row
        expected = _raised(_p4_lone, b, X[2])
        if first is nonfinite:
            assert expected == (ValueError, "array must not contain infs or NaNs")
        else:
            assert expected[0] is FactorizationError and "2-th leading minor" in expected[1]
        assert _raised(F.fn_many, X) == expected
        assert _raised(F.evaluate_batch, X) == expected
        assert _raised(F.fn_many, X[2:3]) == expected
        assert _raised(F.fn_many, X[3:]) == _raised(_p4_lone, b, X[4])


def _p3_row_check(b, c, x):
    """P3's domain, one point: the shape, x > 0 and c / x finite."""
    if x.shape != b.shape or np.any(x <= 0.0):
        return False
    with np.errstate(over="ignore", divide="ignore"):
        return bool(np.all(np.isfinite(c / x)))


def _p6_row_check(d, p):
    """P6's domain, one point: the shape, sum 1 and no negative mass, to 1e-9."""
    return p.shape == (d,) and abs(p.sum() - 1.0) <= 1e-9 and bool(np.all(p >= -1e-9))


_SPECIAL = st.sampled_from(
    [0.0, -0.0, 1e-320, -1e-10, -1e-9, -2e-9, 1e-300, 1.0, np.inf, -np.inf, np.nan])


def _batches(d):
    entry = st.one_of(st.floats(-1.0, 2.0), _SPECIAL)
    return st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(d)), elements=entry),
        st.booleans(),
    )


def _assert_batch_check(F, X, row_check):
    inside = F.domain_check(X)
    assert inside.shape == (X.shape[0],) and inside.dtype == bool
    assert inside.tolist() == [bool(F.domain_check(x)) for x in X]
    assert inside.tolist() == [row_check(x) for x in X]
    bad = [i for i, x in enumerate(X) if not row_check(x)]
    if bad:
        with pytest.raises(DomainError, match=f"row {bad[0]} outside domain"):
            F.evaluate_batch(X)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_batches(3))
def test_p3_domain_check_over_last_axis(batch):
    X, scale = batch
    b, c = np.array([1.0, 0.5, 2.0]), np.array([0.3, 1.0, 1e-3])
    F = p3_rational(b, c)
    X = np.abs(X) if scale else X
    _assert_batch_check(F, X, lambda x: _p3_row_check(b, c, x))
    assert not F.domain_check(np.ones(4)) and F.domain_check(np.ones((2, 4))).shape == (2,)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_batches(3))
def test_p6_domain_check_over_last_axis(batch):
    X, normalize = batch
    F = p6_entropy(3)
    if normalize:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            X = X / X.sum(axis=-1, keepdims=True)
    # negative mass at and just past the -1e-9 tolerance
    X = np.concatenate([X, [[1.0 + 1e-9, -1e-9, 0.0], [1.0 + 2e-9, -2e-9, 0.0]]])
    _assert_batch_check(F, X, lambda x: _p6_row_check(3, x))
    assert not F.domain_check(np.full(4, 0.25)) and F.domain_check(np.ones((2, 4))).shape == (2,)


@pytest.mark.parametrize("family", ["P1", "P2", "P3", "P4", "P5", "P6"])
def test_euclidean_presets_evaluate_whole_batches(family):
    # no Euclidean family may fall back to the per-row evaluation loop
    inst = generate_instance(family, {}, RandomStream(50))
    F = inst.objective
    assert F.fn_many is not None
    X = sample_observations(inst, 12, RandomStream(51)).points
    values = F.evaluate_batch(X)
    assert values.shape == (12,)
    assert np.allclose(values, [F.fn(x) for x in X], rtol=1e-12, atol=0.0)
    if F.domain_check is not None:
        inside = np.asarray(F.domain_check(X))
        assert inside.shape == (12,) and inside.dtype == bool


@pytest.mark.parametrize("family", ["P3", "P4"])
def test_fn_is_the_one_row_batch_call(family):
    inst = generate_instance(family, {}, RandomStream(52))
    F = inst.objective
    for x in sample_observations(inst, 50, RandomStream(53)).points:
        assert F.fn(x) == F.fn_many(x[None])[0]
        if family == "P3":  # the bits of P3's former scalar sum
            b, c = inst.matrices["b"], inst.matrices["c"]
            assert F.fn(x) == float(np.sum(b * x + c / x))


# BLAKE2b digests of each family's seed-0 instance (truth value, truth input,
# matrices by name) and of its first trial's n = 5 sample, on the lineage
# run_experiment_spec uses.  Any change to the order or the arithmetic of the
# draws moves them.
GOLDEN = {
    "P1": ("957e9b89a1b2d869effd53cd8ea13675", "68dd0e2b9177b74f78da56b63c35cefa"),
    "P2": ("399cd3ff06899543d99759e5a5ddbe2e", "68dd0e2b9177b74f78da56b63c35cefa"),
    "P3": ("79886341b8214242a5dbde31f4c06cb2", "565bd15fa99044abb8d26d31df94d605"),
    "P4": ("327ba6074738a3413a5abfa5e28f6de0", "a035f26fed7738e291b9fe3665284b10"),
    "P5": ("10bc1cc5f6336f0b73ebd48c2b7172e3", "4c3720c5e112e1d7f45edc1d5d660050"),
    "P6": ("d3fc80ec2712e5d99132425c32e1623c", "bbac3db2fbe6728fb576c45c74fec557"),
    "P7": ("9a35b0819f8aac358f111a3c9646ef19", "3497f4b76b13893a2e924db0e8faf2b1"),
}


def _digest(chunks) -> str:
    return hashlib.blake2b(b"".join(chunks), digest_size=16).hexdigest()


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_seed0_instance_and_sample_digests(family):
    master = RandomStream(0).split(0)
    inst = generate_instance(family, {}, master.split(0))
    chunks = [repr(inst.truth_value).encode()]
    if inst.truth_input is not None:
        chunks.append(inst.truth_input.tobytes())
    for name in sorted(inst.matrices):
        chunks += [name.encode(), np.ascontiguousarray(inst.matrices[name]).tobytes()]
    sample = sample_observations(inst, 5, master.split(1).split(0).split(0))
    if inst.objective.paired:
        # each point's bytes, then the bytes of its weight 1.0
        arrays = [np.hstack([s.points, np.ones((len(s), 1))]) for s in sample]
    else:
        arrays = [sample.points]
    assert (_digest(chunks), _digest(a.tobytes() for a in arrays)) == GOLDEN[family]


def one_stream_draw(inst, n, s):
    """A family's sample as each trial drew it alone, stream by stream: the
    reference for the block draw."""
    p, m, x = inst.params, inst.matrices, inst.truth_input
    d = int(p["d"])
    if inst.id in ("P1", "P2", "P5"):
        return x + p["sigma"] * s.normal((n, x.size))
    if inst.id == "P3":
        return -np.log1p(-s.generator.random((n, d))) * x
    if inst.id == "P4":
        xi = s.gamma(p["k_shape"], 1.0 / p["k_shape"], (n, d))
        return np.einsum("ij,nj,kj->nik", m["U"], xi * m["lam"], m["U"]).reshape(n, d * d)
    if inst.id == "P6":
        onehot = np.zeros((n, d))
        onehot[np.arange(n), categorical(s, x, n)] = 1.0
        return onehot
    xs = np.zeros(d) + p["sigma"] * s.normal((n, d))
    return xs, m["mu2"] + p["sigma"] * s.normal((p["m_samples"] or n, d))


BLOCK_DRAWS = [(family, {}, spec.preset_n(spec.params["d"]))
               for family, spec in sorted(FAMILIES.items())]
BLOCK_DRAWS += [("P1", {"d": 3}, 5), ("P7", {"d": 3, "m_samples": 4}, 5)]  # odd n * d


@pytest.mark.parametrize("family,params,n", BLOCK_DRAWS)
def test_block_draw_rows_are_one_stream_draws(family, params, n):
    # every trial of a block draws its own uniforms, gammas or categories;
    # the transforms over the stack give each row the bits it gets alone
    inst = generate_instance(family, params, RandomStream(41).split(0))
    root = RandomStream(41).split(1)

    def streams(count):  # fresh streams: each draw advances a stream's state
        return [root.split(t).split(0) for t in range(count)]

    want = [one_stream_draw(inst, n, s) for s in streams(40)]
    alone = [sample_observations(inst, n, s) for s in streams(40)]
    for B in (1, 2, 3, 40):
        block = inst.noise.sample(n, streams(B))
        assert len(block) == B
        for b in range(B):
            if inst.objective.paired:
                for cloud, one, ref in zip(block[b], alone[b], want[b]):
                    assert cloud.tobytes() == one.points.tobytes() == ref.tobytes()
            else:
                assert block[b].shape == want[b].shape
                assert block[b].tobytes() == alone[b].points.tobytes() == want[b].tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (5, 3), (7,), (10, 20)])
def test_normal_is_its_row_of_the_block_draw(shape):
    def streams():
        return [RandomStream(43, (t, 0)) for t in range(40)]

    block = normals(streams(), shape)
    assert block.shape == (40, *shape)
    for row, s in zip(block, streams()):
        assert np.asarray(s.normal(shape)).tobytes() == row.tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_axes_are_parameters_n_and_K(family):
    with pytest.raises(ContractError) as err:
        run_sweep(family, "bogus", [1.0], {}, R=1, seed=0)
    assert str(err.value).split("valid: ")[1].split(", ") == [*FAMILIES[family].params, "n", "K"]


def test_readme_families_table_matches_code():
    # each row lists the family's parameters with their defaults, in order,
    # and its preset n (a multiple of d where the preset scales with it) and K
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Benchmark families\n")[1].split("\n## ")[0]
    rows = [line.split("|")[1:-1] for line in table.splitlines() if re.match(r"\| P\d ", line)]
    assert [row[0].strip() for row in rows] == list(FAMILIES)
    for family, _, _, params, preset in (map(str.strip, row) for row in rows):
        spec = FAMILIES[family]
        listed = {}
        for item in params.split(", "):
            name, _, default = item.partition("=")
            listed[name.split(" (default ")[0]] = float(default) if default else None
        assert list(listed.items()) == list(spec.params.items()), family
        n, K = preset.split(", ")
        assert int(K) == spec.K
        if spec.n is None:
            ratio = int(re.fullmatch(r"(\d+) \* d", n)[1])
            assert [spec.preset_n(d) for d in (1, 7, 30)] == [ratio, 7 * ratio, 30 * ratio]
        else:
            assert int(n) == spec.n
