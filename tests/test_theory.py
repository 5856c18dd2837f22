import math

import numpy as np
import pytest

from _oracles import moments_from_samples, third_derivative_fd
from debias.core import BootstrapPlan
from debias.harness import _reduce_records, run_trials
from debias.objectives import Objective
from debias.problems import generate_instance, p1_quadratic, p2_quartic
from debias.resampling import RandomStream
from debias.theory import (
    MomentTensors,
    moments_gaussian,
    sigma_set,
)
from test_refusals import folded

# this module's single-refusal cases, each under its own id, are rows of
# test_refusals.TABLE
globals().update(folded("test_theory"))


def quad1d_objective():
    return p1_quadratic(np.array([[1.0]]))


# ---------------------------------------------------------------------------
# moments


def test_gaussian_moments_1d():
    m = moments_gaussian(0.7, 1)
    assert m.m2[0, 0] == pytest.approx(0.7**2)
    assert m.m4[0, 0, 0, 0] == pytest.approx(3 * 0.7**4)


def test_gaussian_moments_trace_contraction():
    # H = I: sigma4-style contraction equals sigma^4 d (d + 2)
    for d in (1, 2, 5):
        m = moments_gaussian(1.3, d)
        eye = np.eye(d)
        got = float(np.einsum("ab,cd,abcd->", eye, eye, m.m4))
        assert got == pytest.approx(1.3**4 * d * (d + 2), rel=1e-12)


def test_moments_from_repeated_center():
    samples = np.tile([1.5, -2.0], (50, 1))
    m = moments_from_samples(samples, np.array([1.5, -2.0]))
    assert np.all(m.m2 == 0.0)
    assert np.all(m.m4 == 0.0)


def test_moments_from_samples_gaussian():
    rng = RandomStream(0)
    samples = rng.normal((1_000_000, 2))
    m = moments_from_samples(samples, np.zeros(2))
    assert np.abs(m.m2 - np.eye(2)).max() < 0.01
    # 1-d fourth moment: 3 sigma^4; MC se of y^4 mean is sqrt(96/N)
    se = math.sqrt(96.0 / samples.shape[0])
    assert abs(m.m4[0, 0, 0, 0] - 3.0) < 3 * se


def test_m4_permutation_symmetry():
    rng = RandomStream(1)
    m = moments_from_samples(rng.normal((500, 3)), np.zeros(3))
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        assert np.allclose(m.m4, np.transpose(m.m4, perm), atol=1e-12)


# ---------------------------------------------------------------------------
# sigma quantities


def test_sigma_quadratic_1d_analytic():
    # F = x^2, mu = N(x*, sigma^2): sigma1 = 4 x*^2 s^2, sigma2 = 2 s^2,
    # sigma3 = 0, sigma4 = 12 s^4
    F = quad1d_objective()
    x_star, sigma = 1.5, 0.8
    ss = sigma_set(F, np.array([x_star]), moments_gaussian(sigma, 1), c_k=1.0)
    assert ss.sigma1 == pytest.approx(4 * x_star**2 * sigma**2, rel=1e-12)
    assert ss.sigma2 == pytest.approx(2 * sigma**2, rel=1e-12)
    assert ss.sigma3 == pytest.approx(0.0, abs=1e-12)
    assert ss.sigma4 == pytest.approx(12 * sigma**4, rel=1e-12)
    assert ss.f_star == pytest.approx(x_star**2)


def test_sigma_quadratic_origin_margin():
    ss = sigma_set(quad1d_objective(), np.zeros(1), moments_gaussian(1.0, 1), c_k=1.0)
    assert ss.sigma1 == 0.0
    assert ss.margin_shift == pytest.approx(1.0)  # sigma2^2 / 4
    assert ss.margin_scale is None  # F(0) = 0: scale margin undefined


def test_sigma_zero_moments():
    zero = MomentTensors(np.zeros((1, 1)), np.zeros((1, 1, 1, 1)))
    ss = sigma_set(quad1d_objective(), np.array([2.0]), zero, c_k=1.0)
    assert ss.sigma1 == ss.sigma2 == ss.sigma3 == ss.sigma4 == 0.0
    assert ss.margin_shift == 0.0


def test_sigma_monte_carlo_cross_check():
    # sigma1 and sigma4 equal the defining expectations E (g.y)^2 and
    # E-free contraction of M4; batched MC 4-sigma interval
    F = quad1d_objective()
    x_star, sigma = 1.2, 0.9
    g = 2 * x_star
    H = 2.0
    rng = RandomStream(2)
    batches_s1, batches_s4 = [], []
    for b in range(20):
        y = sigma * rng.split(b).normal(50_000)
        batches_s1.append(np.mean((g * y) ** 2))
        batches_s4.append(np.mean(H * H * y**4))
    ss = sigma_set(F, np.array([x_star]), moments_gaussian(sigma, 1), c_k=1.0)
    for batches, target in ((batches_s1, ss.sigma1), (batches_s4, ss.sigma4)):
        arr = np.asarray(batches)
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        assert abs(arr.mean() - target) < 4 * se


def test_sigma_set_sampled_vs_analytic():
    F = p1_quadratic(np.diag([1.0, 2.0]))
    x_star = np.array([0.5, -0.5])
    sigma = 1.1
    analytic = sigma_set(F, x_star, moments_gaussian(sigma, 2), c_k=2.0)
    samples = x_star + sigma * RandomStream(3).normal((400_000, 2))
    sampled = sigma_set(F, x_star, moments_from_samples(samples, x_star), c_k=2.0)
    assert sampled.sigma1 == pytest.approx(analytic.sigma1, rel=0.02)
    assert sampled.sigma2 == pytest.approx(analytic.sigma2, rel=0.02)
    assert sampled.sigma4 == pytest.approx(analytic.sigma4, rel=0.05)
    assert sampled.margin_shift == pytest.approx(analytic.margin_shift, abs=0.3)


def test_margin_monotone_in_ck():
    F = quad1d_objective()
    margins = [
        sigma_set(F, np.array([1.0]), moments_gaussian(1.0, 1), c_k=ck).margin_shift
        for ck in (0.25, 0.5, 1.0, 2.0, 4.0, 16.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


def test_scale_margin_positive_objective():
    ss = sigma_set(quad1d_objective(), np.array([2.0]), moments_gaussian(0.5, 1), c_k=1.0)
    assert ss.sigma4_prime is not None
    assert ss.margin_scale is not None
    # sigma4' with A' = H + 2 g g' / F = 2 + 2*16/4 = 10: 3 s^4 A'^2
    assert ss.sigma4_prime == pytest.approx(3 * 0.5**4 * 10.0**2, rel=1e-12)


def test_third_derivative_finite_difference_matches_p2():
    A = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]])
    analytic_obj = p2_quartic(A)
    stripped = Objective(
        fn=analytic_obj.fn,
        gradient=analytic_obj.gradient,
        hessian=analytic_obj.hessian,
        sign_constraint="positive",
    )
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=3)
        T_fd = third_derivative_fd(stripped, x)
        T_true = analytic_obj.third_derivative(x)
        scale = max(np.abs(T_true).max(), 1.0)
        assert np.abs(T_fd - T_true).max() / scale < 1e-4


@pytest.mark.parametrize("family", ["P1", "P2", "P3", "P5"])
def test_family_third_derivative_matches_finite_difference(family):
    # every objective sigma_set is given in the CLI (quad, quad1d, P1, P2,
    # P5), and P3, bring an analytic third derivative; check it against the
    # FD oracle, at points inside P3's positive orthant
    for seed in range(3):
        inst = generate_instance(family, {"d": 3}, RandomStream(seed))
        F = inst.objective
        z = 0.1 * RandomStream(seed + 50).normal(3)
        x = inst.truth_input * np.exp(z) if family == "P3" else inst.truth_input + z
        T_true = F.third_derivative(x)
        scale = max(np.abs(T_true).max(), 1.0)
        assert np.abs(third_derivative_fd(F, x) - T_true).max() / scale < 1e-4


# ---------------------------------------------------------------------------
# paired MSE comparison, from the harness's reduce


def paired_mse(inst, n, K, R, methods, stream):
    """The summary of R harness trials of ``inst`` on ``stream``."""
    plan = BootstrapPlan(rounds=K)
    records = run_trials(inst, n, plan, methods, stream, 0, R)
    return _reduce_records(inst, n, plan, methods, 0, records)


def test_single_trial_has_no_se():
    inst = generate_instance("P1", {"d": 2}, RandomStream(7))
    s = paired_mse(inst, n=8, K=5, R=1, methods=["shift"], stream=RandomStream(8))
    assert math.isnan(s.mse_diff_se["shift"])


def test_shift_reduces_mse_when_condition_holds():
    # scaled-down version of the MSE-reduction verification protocol
    inst = generate_instance("P1", {"d": 1, "xstar_norm2": 0.0, "sigma": 1.0}, RandomStream(9))
    s = paired_mse(inst, n=25, K=25, R=3000, methods=["shift"], stream=RandomStream(10))
    assert s.mse_diff["shift"] < 0
    assert s.mse_diff["shift"] < -3 * s.mse_diff_se["shift"]
