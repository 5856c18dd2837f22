"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from _oracles import (
    categorical,
    dual_value,
    exact_resample_expectation,
    fd_derivatives,
    gradient_descent_values,
    projected_gradient_values,
    quadratic_form,
    random_symmetric_tensor3,
)
from debias.cli import main as cli_main
from debias.core import BootstrapPlan, block_for, covariance_debias
from debias.harness import _reduce_records, run_experiment_spec, run_sweep, run_trials
from debias.linalg import spd_with_condition
from debias.observations import ObservationSet, mean_observation
from debias.problems import (
    generate_instance,
    p1_quadratic,
    p2_quartic,
    p3_rational,
    p4_opt_value,
    p5_constraint_value,
    p6_entropy,
)
from debias.resampling import RandomStream
from debias.theory import moments_gaussian, sigma_set
from debias.transport import TransportProblem, brute_force_transport, solve_transport, squared_distance_cost


class Criterion:
    def __init__(self, number, budget):
        self.number = number
        self.budget = budget
        self.t0 = time.perf_counter()

    def finish(self, passed, detail):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        print(f"[{status}] criterion {self.number}: {detail} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        assert passed, detail
        assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


def test_criterion_1_quadratic_resampling_identity():
    crit = Criterion(1, budget=1.0)
    rng = RandomStream(101)
    worst = 0.0
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            for rep in range(50):
                sub = rng.split(n * 1000 + d * 10).split(rep)
                pts = sub.normal((n, d))
                A = sub.normal((d, d))
                obs = ObservationSet.from_points(pts)
                xbar = mean_observation(obs)
                lhs = exact_resample_expectation(obs, lambda o: quadratic_form(A, o - xbar))
                rhs = math.fsum(quadratic_form(A, p - xbar) for p in pts) / (n * n)
                worst = max(worst, abs(lhs - rhs))
    crit.finish(worst < 1e-12, f"quadratic-form identity, worst |diff| = {worst:.2e}")


def test_criterion_2_third_order_resampling_identity():
    crit = Criterion(2, budget=1.0)
    rng = RandomStream(102)
    worst = 0.0
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            for rep in range(50):
                sub = rng.split(n * 1000 + d * 10).split(rep)
                pts = sub.normal((n, d))
                T = random_symmetric_tensor3(d, sub)
                obs = ObservationSet.from_points(pts)
                xbar = mean_observation(obs)

                def cubic(o):
                    y = o - xbar
                    return float(np.einsum("abc,a,b,c->", T, y, y, y))

                lhs = exact_resample_expectation(obs, cubic)
                rhs = math.fsum(
                    float(np.einsum("abc,a,b,c->", T, p - xbar, p - xbar, p - xbar))
                    for p in pts) / (n * n * n)
                worst = max(worst, abs(lhs - rhs))
    crit.finish(worst < 1e-12, f"third-order identity, worst |diff| = {worst:.2e}")


def test_criterion_3_covariance_quadratic_unbiasedness():
    crit = Criterion(3, budget=30.0)
    R, n = 20_000, 10
    inst = generate_instance("P1", {"d": 3, "sigma": 1.0}, RandomStream(103))
    truth = inst.truth_value
    rng = RandomStream(104)
    naive, debiased = [], []
    for lo in range(0, R, 1000):
        # trial t's set from its own stream rng.split(t), 1000 trials a draw;
        # each set's naive value and correction are those it gets alone
        streams = [rng.split(t) for t in range(lo, min(lo + 1000, R))]
        block = block_for(inst.objective, inst.noise.sample(n, streams))
        naive += block.naive
        debiased += [v + c for v, c in zip(block.naive, block.covariance())]
    naive_res = np.array(naive) - truth
    deb_res = np.array(debiased) - truth
    se_deb = deb_res.std(ddof=1) / math.sqrt(R)
    se_naive = naive_res.std(ddof=1) / math.sqrt(R)
    ok = abs(deb_res.mean()) < 3 * se_deb and naive_res.mean() > 5 * se_naive
    crit.finish(ok, f"debiased mean {deb_res.mean():.2e} (se {se_deb:.2e}), "
                    f"naive mean {naive_res.mean():.3f} (se {se_naive:.2e})")


def test_criterion_4_miller_madow_equivalence():
    crit = Criterion(4, budget=1.0)
    rng = RandomStream(105)
    worst = 0.0
    for d in range(2, 11):
        n = 4 * d
        # force full support: one observation per category, the rest random
        idx = np.concatenate([np.arange(d), categorical(rng.split(d), np.full(d, 1.0 / d), n - d)])
        onehot = np.zeros((n, d))
        onehot[np.arange(n), idx] = 1.0
        obs = ObservationSet.from_points(onehot)
        F = p6_entropy(d)
        est = covariance_debias(F, obs)
        pbar = mean_observation(obs)
        expected = F.evaluate_batch(pbar[None, :])[0] + (d - 1) / (2 * n)
        worst = max(worst, abs(est.debiased_value - expected))
    crit.finish(worst < 1e-12, f"H(pbar) + (d-1)/2n identity, worst |diff| = {worst:.2e}")


def test_criterion_5_transport_oracle_equivalence():
    crit = Criterion(5, budget=10.0)
    rng = np.random.default_rng(106)
    worst_primal = 0.0
    worst_gap = 0.0
    for trial in range(200):
        n = 2 + trial % 5
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        problem = TransportProblem.build(squared_distance_cost(x, y))
        plan = solve_transport(problem)
        oracle = brute_force_transport(problem)
        worst_primal = max(worst_primal, abs(plan.value - oracle))
        worst_gap = max(worst_gap, abs(plan.value - dual_value(plan, problem)))
    ok = worst_primal < 1e-9 and worst_gap <= 1e-8
    crit.finish(ok, f"200 instances, worst |simplex - brute| = {worst_primal:.2e}, "
                    f"worst duality gap = {worst_gap:.2e}")


def test_criterion_6_closed_forms_vs_iterative():
    crit = Criterion(6, budget=30.0)
    rng = RandomStream(107)
    As = [spd_with_condition(2 + i % 9, 1.0 + (i % 7), rng.split(i)) for i in range(100)]
    bs = [rng.split(1000 + i).normal(len(A)) for i, A in enumerate(As)]  # d = 2..10
    closed = [p4_opt_value(b).fn(A.ravel()) for A, b in zip(As, bs)]
    steps = [0.9 / np.linalg.eigvalsh(A).max() for A in As]
    iterative = list(gradient_descent_values(As, bs, steps, iters=4000))
    Bs = [spd_with_condition(2 + i % 9 + 1 + i % 5, 2.0, rng.split(2000 + i)) for i in range(100)]
    As = [rng.split(3000 + i).normal((2 + i % 9, len(B))) for i, B in enumerate(Bs)]
    bs = [rng.split(4000 + i).normal(len(A)) for i, A in enumerate(As)]
    closed += [p5_constraint_value(B, A).fn(b) for B, A, b in zip(Bs, As, bs)]
    steps = [0.9 / (2.0 * np.linalg.eigvalsh(B).max()) for B in Bs]
    iterative += list(projected_gradient_values(Bs, As, bs, steps, iters=8000))
    worst = max(abs(c - it) / max(abs(it), 1e-12) for c, it in zip(closed, iterative))
    crit.finish(worst < 1e-6, f"P4/P5 closed forms vs iterative, worst rel err = {worst:.2e}")


def test_criterion_7_shift_strictly_reduces_mse():
    crit = Criterion(7, budget=60.0)
    # condition (12) margin at x* = 0, sigma = 1: sigma1 = 0, margin = sigma2^2/4
    F = p1_quadratic(np.eye(1))
    margin = sigma_set(F, np.zeros(1), moments_gaussian(1.0, 1), c_k=1.0).margin_shift
    inst = generate_instance("P1", {"d": 1, "xstar_norm2": 0.0, "sigma": 1.0}, RandomStream(108))
    plan = BootstrapPlan(rounds=50)
    records = run_trials(inst, 50, plan, ["shift"], RandomStream(109), 0, 20_000)
    s = _reduce_records(inst, 50, plan, ["shift"], 109, records)
    diff = s.mse_diff["shift"]
    z = diff / s.mse_diff_se["shift"]
    ok = margin > 0 and diff < 0 and z <= -3.0
    crit.finish(ok, f"analytic margin = {margin}, paired MSE diff = {diff:.3e} (z = {z:.1f})")


def test_criterion_8_quadratic_directional():
    crit = Criterion(8, budget=60.0)
    summary = run_experiment_spec(
        "P1", {"d": 20, "kappa": 2.0, "sigma": 1.0, "xstar_norm2": 2.0},
        n=10, K=10, methods=["shift", "scale", "cov"], R=1000, seed=110)
    ok = (summary.rmse_r["shift"] < 1.0 and abs(summary.bias_r["shift"]) < 0.5
          and summary.rmse_r["cov"] < 1.0 and abs(summary.bias_r["cov"]) < 0.5
          and abs(summary.bias_r["cov"]) < 0.1)
    crit.finish(ok, "shift rmse_r={:.3f} bias_r={:+.3f}; cov rmse_r={:.3f} bias_r={:+.3f}".format(
        summary.rmse_r["shift"], summary.bias_r["shift"],
        summary.rmse_r["cov"], summary.bias_r["cov"]))


def test_criterion_9_resampling_rounds_plateau():
    crit = Criterion(9, budget=300.0)
    ks = [5, 10, 25, 50, 100, 200]
    summaries = run_sweep("P1", "K", ks, {"d": 20, "n": 100}, R=500, seed=111,
                          methods=["shift"])
    rmse = {k: s.rmse_r["shift"] for k, s in zip(ks, summaries)}
    plateau = abs(rmse[200] - rmse[50]) <= 0.05 * rmse[50]
    improving = rmse[50] <= 0.95 * rmse[5]
    crit.finish(plateau and improving,
                "rmse_r by K: " + ", ".join(f"{k}:{rmse[k]:.3f}" for k in ks))


def test_criterion_10_entropy_directional():
    crit = Criterion(10, budget=120.0)
    summary = run_experiment_spec("P6", {"d": 30, "alpha": 1.0}, n=150, K=100,
                                  methods=["shift", "scale", "cov"], R=500, seed=112)
    ok = all(summary.rmse_r[m] < 1.0 and abs(summary.bias_r[m]) < 0.5
             for m in ("shift", "scale", "cov"))
    crit.finish(ok, "; ".join(
        f"{m}: rmse_r={summary.rmse_r[m]:.3f} bias_r={summary.bias_r[m]:+.3f}"
        for m in ("shift", "scale", "cov")))


def test_criterion_11_worker_determinism(tmp_path):
    crit = Criterion(11, budget=60.0)
    outputs = []
    for i, workers in enumerate((1, 2, 4)):
        out = tmp_path / f"det{i}.csv"
        rc = cli_main(["bench", "P1", "--trials", "60", "--seed", "42", "--param", "d=5",
                       "--n", "8", "--k", "10", "--workers", str(workers),
                       "--no-header", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    crit.finish(ok, "bench CSV byte-identical across --workers 1/2/4")


def test_criterion_12_derivative_checks():
    crit = Criterion(12, budget=5.0)
    rng = np.random.default_rng(113)

    def max_rel(F, draw):
        worst_g, worst_h = 0.0, 0.0
        for _ in range(20):
            x = draw(rng)
            g_fd, H_fd = fd_derivatives(F, x)
            scale_g = max(np.abs(g_fd).max(), 1e-9)
            scale_h = max(np.abs(H_fd).max(), 1e-9)
            worst_g = max(worst_g, np.abs(np.asarray(F.gradient(x)) - g_fd).max() / scale_g)
            worst_h = max(worst_h, np.abs(np.asarray(F.hessian(x)) - H_fd).max() / scale_h)
        return worst_g, worst_h

    A4 = spd_with_condition(4, 3.0, RandomStream(114))
    B = spd_with_condition(6, 2.0, RandomStream(115))
    A = np.random.default_rng(116).normal(size=(3, 6))
    # each family's objective, its draw of a point, and its gradient and
    # Hessian tolerances
    families = [
        (p1_quadratic(A4), lambda r: r.normal(size=4), 1e-5, 1e-5),
        (p2_quartic(A4), lambda r: r.normal(size=4), 1e-5, 1e-4),
        (p3_rational(np.array([0.5, 1.0, 2.0]), np.array([1.0, 0.5, 0.25])),
         lambda r: r.uniform(0.5, 3.0, size=3), 1e-5, 1e-5),
        (p5_constraint_value(B, A), lambda r: r.normal(size=3), 1e-5, 1e-5),
    ]
    worst = [max_rel(F, draw) for F, draw, _, _ in families]
    ok = all(g < g_tol and h < h_tol
             for (g, h), (_, _, g_tol, h_tol) in zip(worst, families))
    crit.finish(ok, "max rel errs " + ", ".join(f"g={g:.1e}/h={h:.1e}" for g, h in worst))
