import dataclasses
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from _oracles import (
    covariance_reference,
    exact_expectation_debias,
    exact_resample_expectation,
    jackknife_value,
    negated,
    paired_coefficients_reference,
    paired_debiased_reference,
    paired_naive_reference,
    paired_values_reference,
    quadratic_form,
    random_symmetric_tensor3,
    sample_observations,
)
from debias import transport
from debias.core import (
    BootstrapPlan,
    DegenerateDenominatorError,
    EuclideanBlock,
    METHODS,
    NonFiniteEstimateError,
    UnsupportedMethodError,
    bootstrap_means,
    covariance_debias,
    debias,
    estimates,
    scale_debias,
    shift_debias,
    why_not,
)
from debias.objectives import DomainError, EvaluationError, Objective
from debias.observations import ContractError, ObservationSet, mean_observation
from debias.problems import (FAMILIES, generate_instance, p1_quadratic, p2_quartic,
                             p3_rational, p6_entropy, p7_wasserstein)
from debias.resampling import RandomStream
from debias.transport import IterationCapError, TransportError


def quad1d():
    return p1_quadratic(np.array([[1.0]]))


def constant_objective(c):
    return Objective(fn=lambda x: c, sign_constraint="positive" if c > 0 else "none")


# ---------------------------------------------------------------------------
# resample means


def resample_means(points, plan, rng):
    """The (K, d) resample means of one Euclidean set at which a trial's
    block evaluates F."""
    seen = []
    F = Objective(fn=lambda x: 0.0, fn_many=lambda X: seen.append(X.copy()) or np.zeros(len(X)))
    EuclideanBlock(F, np.asarray(points, dtype=float)[None]).resample_values(plan, [rng])
    return np.concatenate(seen)


def test_bootstrap_means_single_atom():
    means = resample_means([[3.25, -1.5]], BootstrapPlan(rounds=20), RandomStream(0))
    assert means.shape == (20, 2)
    for m in means:
        assert np.array_equal(m, [3.25, -1.5])


def test_bootstrap_means_two_point_distribution():
    # resample means of {0, 2} hit {0, 1, 2} w.p. {1/4, 1/2, 1/4}
    K = 4000
    vals = resample_means([[0.0], [2.0]], BootstrapPlan(rounds=K), RandomStream(1))[:, 0]
    assert set(np.unique(vals)) <= {0.0, 1.0, 2.0}
    for target, prob in ((0.0, 0.25), (1.0, 0.5), (2.0, 0.25)):
        freq = np.mean(vals == target)
        se = math.sqrt(prob * (1 - prob) / K)
        assert abs(freq - prob) < 3 * se


def test_bootstrap_means_dirac_weights():
    means = bootstrap_means(np.array([[0.0], [1.0], [2.0]]), BootstrapPlan(rounds=50),
                            RandomStream(2))
    for _, weights in means:
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        # weights are multinomial counts over n=3 divided by n
        scaled = weights * 3
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)


def test_bootstrap_means_deterministic():
    points = np.random.default_rng(3).normal(size=(6, 2))
    a = resample_means(points, BootstrapPlan(rounds=10), RandomStream(4))
    b = resample_means(points, BootstrapPlan(rounds=10), RandomStream(4))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# shift


def test_shift_single_observation():
    est = shift_debias(quad1d(), ObservationSet.from_points([[1.7]]),
                       BootstrapPlan(rounds=25), RandomStream(0))
    assert est.correction == 0.0
    assert est.debiased_value == est.naive_value == pytest.approx(1.7**2)


def test_shift_constant_objective():
    s = ObservationSet.from_points(np.random.default_rng(5).normal(size=(8, 3)))
    est = shift_debias(constant_objective(7.0), s, BootstrapPlan(rounds=30), RandomStream(1))
    assert est.correction == 0.0
    assert est.debiased_value == 7.0


def test_shift_exact_enumeration_example():
    # {0, 2}, F = x^2: E F(xtilde) = 1.5, c = F(1) - 1.5 = -0.5
    s = ObservationSet.from_points([[0.0], [2.0]])
    est = exact_expectation_debias(quad1d(), s, "shift")
    assert est.correction == pytest.approx(-0.5, abs=1e-14)
    assert est.debiased_value == pytest.approx(0.5, abs=1e-14)
    assert est.naive_value == pytest.approx(1.0, abs=1e-14)


def test_shift_bootstrap_values_length():
    s = ObservationSet.from_points([[0.0], [2.0]])
    est = shift_debias(quad1d(), s, BootstrapPlan(rounds=17), RandomStream(3))
    assert len(est.bootstrap_values) == 17


# ---------------------------------------------------------------------------
# scale


def test_scale_constant_objective():
    s = ObservationSet.from_points(np.random.default_rng(6).normal(size=(5, 2)))
    est = scale_debias(constant_objective(3.0), s, BootstrapPlan(rounds=12), RandomStream(2))
    assert est.correction == 1.0
    assert est.debiased_value == 3.0


def test_scale_single_observation():
    est = scale_debias(quad1d(), ObservationSet.from_points([[2.0]]),
                       BootstrapPlan(rounds=9), RandomStream(0))
    assert est.correction == 1.0
    assert est.debiased_value == 4.0


def test_scale_exact_enumeration_example():
    # {1, 3}, F = x^2: s = 4 * 4.5 / 28.5, debiased = s * 4
    s = ObservationSet.from_points([[1.0], [3.0]])
    est = exact_expectation_debias(quad1d(), s, "scale")
    assert est.correction == pytest.approx(18.0 / 28.5, abs=1e-14)
    assert est.debiased_value == pytest.approx(4.0 * 18.0 / 28.5, abs=1e-13)


def test_scale_rejects_unsigned_before_evaluation():
    calls = []

    def fn(x):
        calls.append(1)
        return float(x[0])

    F = Objective(fn=fn, sign_constraint="none")
    with pytest.raises(UnsupportedMethodError):
        scale_debias(F, ObservationSet.from_points([[1.0]]), BootstrapPlan(rounds=3))
    assert calls == []


def test_scale_negative_objective_matches_negated():
    # the formula is invariant under F -> -F
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 2)) + 3.0
    s = ObservationSet.from_points(pts)
    A = np.eye(2)
    F_pos = Objective(fn=lambda x: float(x @ A @ x) + 1.0, sign_constraint="positive")
    F_neg = Objective(fn=lambda x: -(float(x @ A @ x) + 1.0), sign_constraint="negative")
    est_pos = scale_debias(F_pos, s, BootstrapPlan(rounds=40), RandomStream(8))
    est_neg = scale_debias(F_neg, s, BootstrapPlan(rounds=40), RandomStream(8))
    assert est_neg.correction == pytest.approx(est_pos.correction, rel=1e-12)
    assert est_neg.debiased_value == pytest.approx(-est_pos.debiased_value, rel=1e-12)


def test_scale_degenerate_denominator():
    F = Objective(fn=lambda x: 0.0, sign_constraint="positive")
    with pytest.raises(DegenerateDenominatorError):
        scale_debias(F, ObservationSet.from_points([[1.0], [2.0]]), BootstrapPlan(rounds=5))


# ---------------------------------------------------------------------------
# covariance


def test_covariance_hand_example():
    # d=1, F=x^2 (H=2), {0, 2}: c = -(1/(2*2*1)) * (2 + 2) = -1
    s = ObservationSet.from_points([[0.0], [2.0]])
    est = covariance_debias(quad1d(), s)
    assert est.correction == pytest.approx(-1.0, abs=1e-14)
    assert est.debiased_value == pytest.approx(0.0, abs=1e-14)


def test_covariance_linear_objective():
    F = Objective(
        fn=lambda x: float(x.sum()),
        gradient=lambda x: np.ones_like(x),
        hessian=lambda x: np.zeros((x.size, x.size)),
    )
    s = ObservationSet.from_points(np.random.default_rng(9).normal(size=(7, 3)))
    est = covariance_debias(F, s)
    assert est.correction == 0.0


def test_covariance_requires_hessian():
    F = Objective(fn=lambda x: float(x[0]))
    with pytest.raises(UnsupportedMethodError):
        covariance_debias(F, ObservationSet.from_points([[1.0], [2.0]]))


def test_covariance_unbiased_needs_two():
    with pytest.raises(ContractError):
        covariance_debias(quad1d(), ObservationSet.from_points([[1.0]]))


def test_covariance_plugin_variant():
    s = ObservationSet.from_points([[0.0], [2.0]])
    unbiased = covariance_debias(quad1d(), s)
    plugin = covariance_debias(dataclasses.replace(quad1d(), cov_denominator="plugin"), s)
    assert plugin.correction == pytest.approx(unbiased.correction / 2, abs=1e-14)


@pytest.mark.parametrize("family", ["P3", "P6"])
@pytest.mark.parametrize("n", [2, 5, 40])
def test_diagonal_hessian_covariance_keeps_full_contraction_bits(family, n):
    # P3's and P6's Hessians are diagonal, and the block contracts only
    # their diagonal; each set must keep the bits of the full d x d form
    for seed in range(6):
        inst = generate_instance(family, {}, RandomStream(seed))
        F = inst.objective
        sets = [sample_observations(inst, n, RandomStream(seed * 10 + b)).points for b in range(3)]
        sets.append(np.tile(sets[0][0], (n, 1)))  # degenerate: every deviation is 0
        block = EuclideanBlock(F, np.stack(sets))
        q = n - 1 if F.cov_denominator == "unbiased" else n
        full = [-math.fsum(np.einsum("ij,jk,ik->i", c, F.hessian(m), c)) / (2.0 * n * q)
                for m, c in zip(block.means, block.deviations)]
        assert [v.hex() for v in block.covariance()] == [v.hex() for v in full]


@pytest.mark.parametrize("family, d", [(family, d) for family in ("P1", "P2", "P3", "P5", "P6")
                                       for d in (1, 2, 5, 20, 30)
                                       if (family, d) != ("P6", 1)])  # entropy needs d >= 2
@pytest.mark.parametrize("n", [2, 10, 150])
def test_block_covariance_is_per_set_reference(family, d, n):
    # the block contracts all its sets at once; each set's correction must
    # keep the bits of that set's own contraction
    inst = generate_instance(family, {"d": d}, RandomStream(d))
    F = inst.objective
    sets = np.stack([sample_observations(inst, n, RandomStream(100 + b)).points
                     for b in range(60)])
    for size in (1, 2, 3, 60):
        block = EuclideanBlock(F, sets[:size])
        want = covariance_reference(F, block.means, block.deviations)
        assert [v.hex() for v in block.covariance()] == [v.hex() for v in want]


def test_block_covariance_mixing_diagonal_and_full_hessians():
    # sets whose mean has x_0 > 0 have a diagonal H, the others a full one,
    # so the block contracts every set's full H, diagonal ones too; each set
    # keeps the bits of its own contraction, and of its block of one, which
    # contracts a diagonal H over its diagonal alone
    full = np.array([[2.0, 0.5, 0.25], [0.5, 3.0, -0.75], [0.25, -0.75, 1.5]])
    F = Objective(fn=lambda x: float(x @ full @ x),
                  hessian=lambda x: np.diag(np.diag(full)) if x[0] > 0 else full)
    rng = np.random.default_rng(12)
    sets = rng.normal(size=(9, 7, 3))
    sets[[0, 3, 4, 8], :, 0] += 5.0
    sets[[1, 2, 5, 6, 7], :, 0] -= 5.0
    block = EuclideanBlock(F, sets)
    kinds = [np.count_nonzero(F.hessian(m)) for m in block.means]
    assert kinds == [3, 9, 9, 3, 3, 9, 9, 9, 3]
    want = covariance_reference(F, block.means, block.deviations)
    assert [v.hex() for v in block.covariance()] == [v.hex() for v in want]
    for seed in range(200):  # random shapes, Hessians and scales
        rng = np.random.default_rng(seed)
        d, n, B = (int(v) for v in rng.integers((2, 2, 2), (9, 40, 10)))
        root = rng.normal(size=(d, d))
        A = root @ root.T + np.eye(d)
        F = Objective(fn=lambda x, A=A: float(x @ A @ x),
                      hessian=lambda x, A=A: np.diag(np.diag(A)) if x[0] > 0 else A)
        sets = rng.normal(size=(B, n, d)) * rng.choice([1e-3, 1.0, 1e3])
        sets[:, :, 0] += np.where(np.arange(B) % 2 == rng.integers(2), 1e4, -1e4)[:, None]
        block = EuclideanBlock(F, sets)
        assert 0 < sum(np.count_nonzero(F.hessian(m)) == d for m in block.means) < B
        alone = [EuclideanBlock(F, points[None]).covariance()[0] for points in sets]
        assert [v.hex() for v in block.covariance()] == [v.hex() for v in alone], seed


# ---------------------------------------------------------------------------
# exact expectation as oracle


def test_exact_size_guard():
    s = ObservationSet.from_points(np.random.default_rng(10).normal(size=(30, 1)))
    with pytest.raises(ContractError):
        exact_expectation_debias(quad1d(), s, "shift")


def test_exact_mode_validation():
    s = ObservationSet.from_points([[1.0]])
    with pytest.raises(ContractError):
        exact_expectation_debias(quad1d(), s, "wiggle")


def test_bootstrap_converges_to_exact():
    # |c_K - c_exact| shrinks like 1/sqrt(K); 4 standard error band
    s = ObservationSet.from_points([[0.0], [1.0], [3.0]])
    F = quad1d()
    exact = exact_expectation_debias(F, s, "shift").correction
    est = shift_debias(F, s, BootstrapPlan(rounds=40_000), RandomStream(11))
    boot = np.asarray(est.bootstrap_values)
    se = boot.std(ddof=1) / math.sqrt(boot.size)
    assert abs(est.correction - exact) < 4 * se


@pytest.mark.parametrize("family", ["P1", "P2", "P3"])
def test_bootstrap_consistency_over_seeds(family):
    # spec protocol: 200 seeds, K = 10_000, n = 5, d = 2; the mean shift
    # correction is unbiased for the exact one.  P3's set lies in its orthant
    rng = RandomStream(12)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    F = {"P1": p1_quadratic(A), "P2": p2_quartic(A),
         "P3": p3_rational(np.array([1.0, 2.0]), np.array([0.5, 1.5]))}[family]
    pts = rng.normal((5, 2))
    s = ObservationSet.from_points(np.abs(pts) + 0.5 if family == "P3" else pts)
    exact = exact_expectation_debias(F, s, "shift").correction
    draws = np.array([
        shift_debias(F, s, BootstrapPlan(rounds=10_000), rng.split(t)).correction
        for t in range(200)
    ])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 4 * se


# ---------------------------------------------------------------------------
# invariants


def test_reconstruction_exact():
    rng = RandomStream(13)
    F = p1_quadratic(np.eye(3) * 1.5)
    for t in range(10):
        s = ObservationSet.from_points(rng.normal((6, 3)) + 2.0)
        sh = shift_debias(F, s, BootstrapPlan(rounds=20), rng.split(t))
        sc = scale_debias(F, s, BootstrapPlan(rounds=20), rng.split(100 + t))
        cv = covariance_debias(F, s)
        assert sh.debiased_value == sh.naive_value + sh.correction
        assert sc.debiased_value == sc.correction * sc.naive_value
        assert cv.debiased_value == cv.naive_value + cv.correction


def test_jensen_direction_exact_shift():
    # convex F: exact shift correction is never positive
    rng = RandomStream(14)
    for t in range(30):
        d = int(rng.generator.integers(1, 4))
        n = int(rng.generator.integers(2, 5))
        A = np.eye(d)
        s = ObservationSet.from_points(rng.normal((n, d)))
        est = exact_expectation_debias(p1_quadratic(A), s, "shift")
        assert est.correction <= 1e-13


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(2, 4), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_exact_shift_is_plugin_covariance_for_quadratic(n, d, seed):
    # F = x'Ax: the exact shift correction is
    # -(1/n^2) sum_i ||x_i - xbar||^2_A, the cov correction with q = n.  The
    # oracle sums differences F(xbar) - F(xt) that cancel when the spread is
    # small against the mean, so its rounding scales with F(xbar) too
    inst = generate_instance("P1", {"d": d}, RandomStream(seed))
    s = sample_observations(inst, n, RandomStream(seed).split(1))
    F = inst.objective
    exact = exact_expectation_debias(F, s, "shift")
    cov = covariance_debias(dataclasses.replace(F, cov_denominator="plugin"), s).correction
    assert math.isclose(exact.correction, cov, rel_tol=1e-12,
                        abs_tol=1e-12 * abs(exact.naive_value))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n=st.integers(2, 11), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_jackknife_is_unbiased_covariance_for_quadratic(n, d, seed):
    # F = x'Ax: n F(xbar) - (n - 1) mean_i F(xbar_(-i)) is F(xbar) less
    # tr(A S)/n, S the unbiased sample covariance, which is the cov debiased
    # value (q = n - 1).  The leave-one-out values cancel against F(xbar), so
    # the rounding floor scales with |F(xbar)|
    inst = generate_instance("P1", {"d": d}, RandomStream(seed))
    s = sample_observations(inst, n, RandomStream(seed).split(1))
    cov = covariance_debias(inst.objective, s)
    assert math.isclose(jackknife_value(inst.objective, s), cov.debiased_value, rel_tol=0,
                        abs_tol=1e-12 * max(1.0, abs(cov.naive_value)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(d=st.integers(2, 12), data=st.data(), extra=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_entropy_covariance_is_miller_madow_on_every_support(d, data, extra, seed):
    # P6: the cov correction of a one-hot set that occupies s of its d
    # categories is Miller-Madow's (s - 1)/(2n), whatever s is
    s = data.draw(st.integers(1, d), label="support")
    n = s + extra
    rng = np.random.default_rng(seed)
    occupied = rng.permutation(d)[:s]
    categories = np.concatenate([occupied, rng.choice(occupied, n - s)])
    onehot = np.zeros((n, d))
    onehot[np.arange(n), categories] = 1.0
    est = covariance_debias(p6_entropy(d), ObservationSet.from_points(onehot))
    assert abs(est.correction - (s - 1) / (2 * n)) <= 1e-15


@pytest.mark.parametrize("family", ["P1", "P2", "P3", "P4", "P5", "P6"])
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(d=st.integers(2, 4), n=st.integers(2, 9), K=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_negated_objective_negates_estimates(family, d, n, K, seed):
    # sign symmetry: debiasing -F gives exactly the negated naive and debiased
    # values, negated shift and cov corrections and the same scale factor
    inst = generate_instance(family, {"d": d}, RandomStream(seed))
    obs = sample_observations(inst, n, RandomStream(seed).split(1))
    plan = BootstrapPlan(rounds=K)
    for method in FAMILIES[family].methods:
        try:
            est = debias(method, inst.objective, obs, plan, RandomStream(seed).split(2))
        except DegenerateDenominatorError:  # every resample of a P6 set at one vertex
            with pytest.raises(DegenerateDenominatorError):
                debias(method, negated(inst.objective), obs, plan, RandomStream(seed).split(2))
            continue
        neg = debias(method, negated(inst.objective), obs, plan, RandomStream(seed).split(2))
        assert neg.naive_value == -est.naive_value
        assert neg.debiased_value == -est.debiased_value
        assert neg.correction == (est.correction if method == "scale" else -est.correction)


def test_degenerate_set_fixed_point():
    F = quad1d()
    for val in (0.1, 1 / 3, 0.7):
        s = ObservationSet.from_points([[val]] * 5)
        plan = BootstrapPlan(rounds=30)
        assert shift_debias(F, s, plan, RandomStream(1)).correction == 0.0
        assert scale_debias(F, s, plan, RandomStream(1)).correction == 1.0
        assert covariance_debias(F, s).correction == 0.0


@pytest.mark.parametrize("family", ["P1", "P2", "P3", "P4", "P5"])
def test_degenerate_set_corrections_per_family(family):
    # Eight copies of one point: every resample mean equals the sample mean
    # bit for bit, so the corrections measure fn(mean) against fn_many there.
    # P3 and P4 compute both alike, so shift adds exactly 0 and scale is
    # exactly 1; P1, P2 and P5 sum the d^2 products of x'Ax in another order
    # in fn_many (einsum) than in fn, which leaves a few ulps.
    for seed in range(5):
        inst = generate_instance(family, {}, RandomStream(seed))
        F = inst.objective
        point = sample_observations(inst, 1, RandomStream(seed + 100)).points[0]
        s = ObservationSet.from_points(np.tile(point, (8, 1)))
        plan = BootstrapPlan(rounds=5)
        shift = shift_debias(F, s, plan, RandomStream(1))
        s_hat = scale_debias(F, s, plan, RandomStream(1)).correction
        if family in ("P3", "P4"):
            assert shift.correction == 0.0
            assert s_hat == 1.0
        else:
            assert abs(shift.correction) <= 8 * np.spacing(abs(shift.naive_value))
            assert abs(s_hat - 1.0) <= 8 * np.spacing(1.0)


def test_quadratic_resampling_identity():
    # E ||xt - xbar||^2_A == (1/n^2) sum_i ||x_i - xbar||^2_A, any matrix A
    rng = RandomStream(15)
    for _ in range(25):
        n = int(rng.generator.integers(2, 5))
        d = int(rng.generator.integers(1, 4))
        pts = rng.normal((n, d))
        A = rng.normal((d, d))
        obs = ObservationSet.from_points(pts)
        xbar = mean_observation(obs)
        lhs = exact_resample_expectation(obs, lambda o: quadratic_form(A, o - xbar))
        rhs = math.fsum(quadratic_form(A, p - xbar) for p in pts) / (n * n)
        assert abs(lhs - rhs) < 1e-12


def test_third_order_resampling_identity():
    # E T[(xt - xbar)]^3 == (1/n^3) sum_i T[(x_i - xbar)]^3
    rng = RandomStream(16)
    for _ in range(25):
        n = int(rng.generator.integers(2, 5))
        d = int(rng.generator.integers(1, 4))
        pts = rng.normal((n, d))
        T = random_symmetric_tensor3(d, rng)
        obs = ObservationSet.from_points(pts)
        xbar = mean_observation(obs)

        def cubic(o):
            y = o - xbar
            return float(np.einsum("abc,a,b,c->", T, y, y, y))

        lhs = exact_resample_expectation(obs, cubic)
        rhs = math.fsum(
            float(np.einsum("abc,a,b,c->", T, p - xbar, p - xbar, p - xbar)) for p in pts
        ) / (n * n * n)
        assert abs(lhs - rhs) < 1e-12


def test_quadratic_unbiasedness_smoke():
    # covariance debias of x'Ax has mean-zero residual; small-R version of
    # the acceptance criterion
    rng = RandomStream(17)
    A = np.diag([1.0, 2.0, 3.0])
    F = p1_quadratic(A)
    x_star = np.array([0.5, -0.2, 1.0])
    truth = F.evaluate_batch(x_star[None, :])[0]
    R, n = 4000, 10
    residuals = np.empty(R)
    for t in range(R):
        pts = x_star + rng.split(t).normal((n, 3))
        est = covariance_debias(F, ObservationSet.from_points(pts))
        residuals[t] = est.debiased_value - truth
    se = residuals.std(ddof=1) / math.sqrt(R)
    assert abs(residuals.mean()) < 3 * se


# ---------------------------------------------------------------------------
# paired resamples (P7)


def crafted_pair(far, kept=None):
    """Two point clouds with a duplicate point and a -0.0 point beside 0.0;
    with ``far``, also a point whose squared distances to the other cloud
    overflow to inf.  With ``kept``, the first cloud keeps only its last
    ``kept`` points before the far one."""
    tail = [[1e200, 0.0]] if far else []
    head = [[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [2.0, -1.0], [-0.0, 0.0]]
    xs = ObservationSet.from_points(head[-kept:] + tail if kept else head + tail)
    ys = ObservationSet.from_points([[1.0, 1.0], [0.0, 2.0], [1.0, 1.0], [3.0, 0.0]])
    return xs, ys


def hexes(values):
    return [float(v).hex() for v in values]


def outcomes(values):
    """The hex of each value an iterator yields, in order, then the message
    of the TransportError that ended it, if one did."""
    out = []
    try:
        for value in values:
            out.append(float(value).hex())
    except TransportError as exc:
        out.append(str(exc))
    return out


@pytest.mark.parametrize("kept", [None, 4])
@pytest.mark.parametrize("far", [False, True])
def test_paired_resamples_match_per_resample_reference(far, kept):
    # each cloud is resampled at its own size: 5 points against 4, or, with
    # ``kept`` = 4, 4 against 4.  With ``far`` the costs between the clouds
    # overflow, so each resample pair's costs are checked on their own: pairs
    # without the far point give the reference's bits, and the first one
    # holding it fails as it does
    sets = crafted_pair(far, kept)
    assert [len(s.points) for s in sets] == [(kept or 5) + far, 4]
    clouds = tuple(s.points for s in sets)
    plan = BootstrapPlan(rounds=40)
    coeffs = paired_coefficients_reference(clouds, plan, RandomStream(21))
    want = outcomes(paired_values_reference(clouds, coeffs))
    assert outcomes(p7_wasserstein().fn_many(clouds, coeffs)) == want
    if far:
        assert want[-1] == "costs must be finite and nonnegative" and len(want) > 1
        return
    naive = paired_naive_reference(clouds)
    values = np.array([float.fromhex(v) for v in want])
    for method, estimator in (("shift", shift_debias), ("scale", scale_debias)):
        est = estimator(p7_wasserstein(), sets, plan, RandomStream(21))
        assert est.naive_value.hex() == naive.hex()
        assert hexes(est.bootstrap_values) == want
        assert est.debiased_value.hex() == paired_debiased_reference(method, naive, values).hex()


def test_paired_objective_without_fn_many_is_refused():
    calls = []

    def fn(pair):
        calls.append(pair)
        return 1.0

    F = dataclasses.replace(p7_wasserstein(), fn=fn, fn_many=None)
    xs, ys = crafted_pair(False)
    for method in ("shift", "scale", "cov"):
        with pytest.raises(UnsupportedMethodError):
            debias(method, F, (xs, ys), BootstrapPlan(rounds=5))
    # a paired input is a tuple of two ObservationSets: a point cloud on its
    # own, its bare points, a list of the two sets, or three sets are refused
    for obs in (xs, xs.points, [xs, ys], (xs, ys, xs)):
        with pytest.raises(UnsupportedMethodError):
            shift_debias(F, obs, BootstrapPlan(rounds=5))
        with pytest.raises(UnsupportedMethodError, match="pairs of point clouds"):
            shift_debias(p7_wasserstein(), obs, BootstrapPlan(rounds=5))
    # and a pair is no input of a Euclidean objective
    G = dataclasses.replace(p1_quadratic(np.eye(2)), fn=fn)
    for method in ("shift", "scale", "cov"):
        with pytest.raises(UnsupportedMethodError):
            debias(method, G, (xs, ys), BootstrapPlan(rounds=5))
    assert calls == []


@pytest.mark.parametrize("failure", ["cap", "nan"])
def test_paired_errors_name_the_resample(monkeypatch, failure):
    # resample 5 fails, as the simplex's iteration cap or as a NaN value
    simplex, solve = transport._simplex, transport.solve_transport
    calls = []

    def in_resample_5():  # solve 0 is the naive value, solve 1 + k resample k
        return len(calls) == 1 + 5 + 1

    def capped(cost, supply, demand, tol):
        flow, u, v, status, pivots = simplex(cost, supply, demand, tol)
        return flow, u, v, (1 if in_resample_5() else status), 1234

    def counted(problem):
        calls.append(problem)
        plan = solve(problem)
        if failure == "nan" and in_resample_5():
            plan.value = float("nan")
        return plan

    monkeypatch.setattr(transport, "solve_transport", counted)
    if failure == "cap":
        monkeypatch.setattr(transport, "_simplex", capped)
    with pytest.raises((TransportError, EvaluationError)) as info:
        shift_debias(p7_wasserstein(), crafted_pair(False), BootstrapPlan(rounds=10),
                     RandomStream(4))
    assert str(info.value).startswith("bootstrap resample 5: ")
    assert type(info.value) is (IterationCapError if failure == "cap" else EvaluationError)


def answer_first_call(objective, value):
    """The objective with its first ``fn_many`` call, the naive value at the
    means, answered by ``value``."""
    calls = []

    def fn_many(clouds, coeffs):
        calls.append(coeffs)
        return [value] if len(calls) == 1 else objective.fn_many(clouds, coeffs)

    return dataclasses.replace(objective, fn_many=fn_many)


def test_paired_cost_overflow_names_the_resample():
    # a point whose squared distances overflow: given a naive value, the
    # bootstrap fails at the first resample that holds it
    xs = ObservationSet.from_points([[0.0]] * 5 + [[1e200]])
    ys = ObservationSet.from_points([[1.0], [2.0]])
    with pytest.raises(TransportError) as info:
        shift_debias(answer_first_call(p7_wasserstein(), 1.0), (xs, ys),
                     BootstrapPlan(rounds=20), RandomStream(2))
    assert str(info.value).endswith(": costs must be finite and nonnegative")
    assert str(info.value).startswith("bootstrap resample 1: ")  # resample 0 lacks it


# ---------------------------------------------------------------------------
# error contracts


def test_domain_violation_identifies_resample():
    F = Objective(
        fn=lambda x: float(x[0] ** 2),
        domain_check=lambda x: x[..., 0] < 1.9,
        name="guarded",
    )
    s = ObservationSet.from_points([[0.0], [2.0]])
    # the sample mean (1.0) passes; the all-twos resample does not
    with pytest.raises(DomainError, match="resample"):
        shift_debias(F, s, BootstrapPlan(rounds=200), RandomStream(18))


def test_nonfinite_value_aborts():
    F = Objective(fn=lambda x: float("inf") if x[0] > 1.9 else 1.0)
    s = ObservationSet.from_points([[0.0], [2.0]])
    with pytest.raises(EvaluationError, match="resample"):
        shift_debias(F, s, BootstrapPlan(rounds=200), RandomStream(19))


def test_plan_validation():
    with pytest.raises(ContractError):
        BootstrapPlan(rounds=0)
    # a resample has the input's own n points: the plan sets only K
    assert [f.name for f in dataclasses.fields(BootstrapPlan)] == ["rounds"]


# ---------------------------------------------------------------------------
# applicability and input kinds

UNKNOWN = "unknown method 'nonsense'; valid: shift, scale, cov"
# every reason that is not None, by objective; each is the one the
# applicability rule gave when it also took the input kind as a flag
WHY_NOT = {
    "P4": {"cov": "covariance needs a hessian oracle"},
    "P7": {"cov": "covariance needs Euclidean observations"},
    "unsigned": {"scale": "scale needs a sign-definite objective",
                 "cov": "covariance needs a hessian oracle"},
    "paired without fn_many": {"shift": "shift on point clouds needs a paired fn_many",
                               "scale": "scale on point clouds needs a paired fn_many",
                               "cov": "covariance needs Euclidean observations"},
    "paired unsigned": {"scale": "scale needs a sign-definite objective",
                        "cov": "covariance needs Euclidean observations"},
}


def why_not_objectives():
    objectives = {family: generate_instance(family, {"d": 3}, RandomStream(1)).objective
                  for family in FAMILIES}
    objectives["unsigned"] = Objective(fn=lambda x: 0.0)
    objectives["paired without fn_many"] = dataclasses.replace(p7_wasserstein(), fn_many=None)
    objectives["paired unsigned"] = dataclasses.replace(p7_wasserstein(), sign_constraint="none")
    return objectives


@pytest.mark.parametrize("name", sorted(why_not_objectives()))
@pytest.mark.parametrize("method", [*METHODS, "nonsense"])
def test_why_not_reads_the_objective_alone(name, method):
    F = why_not_objectives()[name]
    want = UNKNOWN if method == "nonsense" else WHY_NOT.get(name, {}).get(method)
    assert why_not(method, F) == want


def counting(objective):
    """The objective with every call of fn and fn_many recorded in ``calls``."""
    calls = []

    def record(f):
        return lambda *args: calls.append(args) or f(*args)

    return dataclasses.replace(objective, fn=record(objective.fn),
                               fn_many=record(objective.fn_many)), calls


@pytest.mark.parametrize("family, given, kind", [
    ("P1", "array", "ndarray"),
    ("P1", "list", "list of 4: list"),
    ("P1", "pair", "tuple of 2: ObservationSet"),
    ("P7", "set", "ObservationSet"),
    ("P7", "list of sets", "list of 2: ObservationSet"),
    ("P7", "three sets", "tuple of 3: ObservationSet"),
])
@pytest.mark.parametrize("method", METHODS)
def test_debias_names_an_input_of_the_wrong_kind(family, given, kind, method):
    # an ndarray given to P1 was refused with "pairs of point clouds need a
    # paired objective"; each wrong kind is now named, before F is evaluated
    xs, ys = crafted_pair(False)
    obs = {"array": xs.points[:4], "list": xs.points[:4].tolist(), "pair": (xs, ys),
           "set": xs, "list of sets": [xs, ys], "three sets": (xs, ys, xs)}[given]
    F, calls = counting(p1_quadratic(np.eye(2)) if family == "P1" else p7_wasserstein())
    with pytest.raises(UnsupportedMethodError) as info:
        debias(method, F, obs, BootstrapPlan(rounds=5))
    if family == "P1":
        expected = ("a Euclidean objective's input is an ObservationSet (pairs of point "
                    f"clouds need a paired objective); got {kind}")
    elif method == "cov":  # the method's own rule refuses it first
        expected = "covariance needs Euclidean observations"
    else:
        expected = ("a paired objective's inputs are pairs of point clouds, tuples of two "
                    f"ObservationSets; got {kind}")
    assert str(info.value) == expected
    assert calls == []


@pytest.mark.parametrize("method", ["shift", "scale"])
@pytest.mark.parametrize("family", ["P1", "P7"])
def test_bootstrap_without_plan_raises_contract_error(family, method):
    # raised AttributeError: 'NoneType' object has no attribute 'generator'
    xs, ys = crafted_pair(False)
    F, calls = counting(p1_quadratic(np.eye(2)) if family == "P1" else p7_wasserstein())
    with pytest.raises(ContractError, match=f"^{method} resamples, so it needs a BootstrapPlan$"):
        debias(method, F, xs if family == "P1" else (xs, ys))
    assert calls == []
    covariance_debias(p1_quadratic(np.eye(2)), xs)  # cov draws nothing and needs no plan


NEAR_1E154 = [[1.1e154], [1.2e154], [0.9e154], [1.3e154]]  # F = x^2 near float64's top


@pytest.mark.parametrize("method, points, shown", [
    # the correction's fsum raised OverflowError: intermediate overflow in fsum
    ("shift", NEAR_1E154, "nan"),
    # the squared values overflow to inf, so the correction was inf / inf and
    # debias returned a debiased value of nan
    ("scale", NEAR_1E154, "nan"),
    # the forms overflow in the covariance contraction
    ("cov", [[-1e200], [1e200]], "-inf"),
])
def test_non_finite_estimate_is_refused(method, points, shown):
    obs = ObservationSet.from_points(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEstimateError) as info:
            debias(method, quad1d(), obs, BootstrapPlan(rounds=100), RandomStream(0))
    assert str(info.value) == f"method {method} produced {shown}"
    assert isinstance(info.value, EvaluationError) and info.value.index == 0


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_estimate_names_its_input_in_a_block(method):
    # of three sets in a block, the second and third overflow: the error names the second
    sets = np.array([[[1.0], [2.0], [0.5], [3.0]], NEAR_1E154, NEAR_1E154])
    if method == "cov":
        sets[1:] = [[-1e200], [1e200], [-1e200], [1e200]]
    block = EuclideanBlock(quad1d(), sets)
    with pytest.raises(NonFiniteEstimateError) as info:
        estimates(method, block, BootstrapPlan(rounds=100),
                  [RandomStream(0).split(b) for b in range(3)])
    assert info.value.index == 1
