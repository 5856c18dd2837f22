import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings

from _oracles import dual_value
from _reference_simplex import _transport_simplex_impl as reference_simplex
from debias import transport
from debias.observations import ContractError
from debias.transport import (
    IterationCapError,
    TransportError,
    TransportProblem,
    brute_force_transport,
    solve_transport,
    squared_distance_cost,
    transport_value,
)


def random_uniform_problem(rng, n):
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=(n, 2))
    return TransportProblem.build(squared_distance_cost(x, y))


def check_plan(problem, plan):
    m, n = problem.cost.shape
    assert np.allclose(plan.coupling.sum(axis=1), problem.supply, atol=1e-9)
    assert np.allclose(plan.coupling.sum(axis=0), problem.demand, atol=1e-9)
    assert np.all(plan.coupling >= -1e-12)
    assert plan.value == pytest.approx(float(np.sum(plan.coupling * problem.cost)), abs=1e-9)
    assert np.count_nonzero(plan.coupling > 1e-12) <= m + n - 1
    # dual feasibility and complementary slackness
    slack = problem.cost - plan.dual_row[:, None] - plan.dual_col[None, :]
    assert slack.min() >= -1e-8
    assert np.all(slack[plan.coupling > 1e-12] <= 1e-8)


def test_zero_cost():
    p = TransportProblem.build(np.zeros((3, 4)))
    plan = solve_transport(p)
    assert plan.value == 0.0
    check_plan(p, plan)


def test_one_by_one():
    p = TransportProblem.build([[2.25]])
    plan = solve_transport(p)
    assert plan.coupling.tolist() == [[1.0]]
    assert plan.value == pytest.approx(2.25)


def test_two_point_line_instance():
    # p uniform on {0, 1}, q uniform on {1, 2}, squared cost: value 1
    cost = squared_distance_cost(np.array([[0.0], [1.0]]), np.array([[1.0], [2.0]]))
    value = solve_transport(TransportProblem.build(cost)).value
    assert value == pytest.approx(1.0, abs=1e-12)


def test_oracle_equivalence_and_duality():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = 2 + trial % 5  # n in 2..6
        problem = random_uniform_problem(rng, n)
        plan = solve_transport(problem)
        oracle = brute_force_transport(problem)
        assert abs(plan.value - oracle) < 1e-9
        gap = plan.value - dual_value(plan, problem)
        assert abs(gap) <= 1e-8
        check_plan(problem, plan)


def highs_value(problem):
    """The optimal value of the transport LP by scipy's HiGHS, an independent solver."""
    m, n = problem.cost.shape
    A_eq, b_eq = [], []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n:(i + 1) * n] = 1.0
        A_eq.append(row)
        b_eq.append(problem.supply[i])
    for j in range(n):
        col = np.zeros(m * n)
        col[j::n] = 1.0
        A_eq.append(col)
        b_eq.append(problem.demand[j])
    res = scipy.optimize.linprog(problem.cost.ravel(), A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                                 bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_weighted_instances_against_linprog():
    # rational bootstrap weights: check against an independent LP solver
    rng = np.random.default_rng(1)
    for _ in range(30):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cost = rng.random((m, n))
        supply = rng.multinomial(12, np.full(m, 1 / m)) / 12.0
        demand = rng.multinomial(12, np.full(n, 1 / n)) / 12.0
        if np.any(supply == 0) and np.all(demand > 0):
            pass  # keep some degenerate marginals in the mix
        problem = TransportProblem.build(cost, supply, demand)
        plan = solve_transport(problem)
        assert plan.value == pytest.approx(highs_value(problem), abs=1e-9)
        check_plan(problem, plan)


def test_cost_submatrices_equal_their_own_costs():
    # P7 takes each resample's costs from the matrix between the whole sets
    rng = np.random.default_rng(9)
    for d in range(1, 33):
        x, y = rng.normal(size=(12, d)), rng.normal(size=(9, d)) * 10.0 ** rng.uniform(-3, 3)
        cost = squared_distance_cost(x, y)
        for _ in range(20):
            r = np.sort(rng.choice(12, int(rng.integers(1, 13)), replace=False))
            c = np.sort(rng.choice(9, int(rng.integers(1, 10)), replace=False))
            assert cost[r][:, c].tobytes() == squared_distance_cost(x[r], y[c]).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 8),
       d=st.integers(1, 4))
def test_metric_sanity(seed, m, n, d):
    # W2^2 of a cloud to itself is exactly 0; swapping the clouds transposes
    # the problem, which the simplex pivots through in another order, so the
    # value is symmetric to rounding, not bit for bit
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(m, d)), rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2)
    assert transport_value(x, x) == 0.0
    assert transport_value(x, y) == pytest.approx(transport_value(y, x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 5, 10, 30, 50])
def test_one_d_value_is_sorted_matching(n):
    # in 1-d the optimal coupling of two equal-size uniform clouds matches
    # them in sorted order (brute_force_transport stops at n = 7)
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(1.0, 2.0, size=n)
    want = np.mean((np.sort(x) - np.sort(y)) ** 2)
    assert transport_value(x[:, None], y[:, None]) == pytest.approx(want, rel=1e-12)


def test_unbalanced_rejected():
    with pytest.raises(TransportError):
        TransportProblem.build(np.ones((2, 2)), np.array([0.6, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(TransportError):
        TransportProblem.build(np.ones((2, 2)), np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("supply, demand", [
    ([0.5, 0.5, 0.0], [0.5, 0.5]),
    ([0.5, 0.5], [1.0]),
    ([[0.5, 0.5]], [0.5, 0.5]),
])
def test_marginal_lengths_must_match_cost(supply, demand):
    with pytest.raises(TransportError, match="^marginal lengths must match the cost matrix$"):
        TransportProblem.build(np.ones((2, 2)), np.array(supply), np.array(demand))


@pytest.mark.parametrize("supply, demand", [
    ([np.nan, 1.0], [0.5, 0.5]),  # solved to 1.0
    ([0.5, 0.5], [0.5, np.nan]),
])
def test_non_finite_marginals_rejected(supply, demand):
    with pytest.raises(TransportError, match="marginal weights must be finite"):
        TransportProblem.build(np.ones((2, 2)), np.array(supply), np.array(demand))


def test_zero_weight_rows_pruned():
    cost = np.array([[5.0, 1.0], [1.0, 5.0], [9.0, 9.0]])
    supply = np.array([0.5, 0.5, 0.0])
    demand = np.array([0.5, 0.5])
    plan = solve_transport(TransportProblem.build(cost, supply, demand))
    assert plan.value == pytest.approx(1.0)
    assert np.all(plan.coupling[2] == 0.0)
    # backfilled duals stay feasible
    slack = cost - plan.dual_row[:, None] - plan.dual_col[None, :]
    assert slack.min() >= -1e-8


def test_pruned_duals_are_tightest_potentials():
    # each pruned node's dual is the per-node minimum over the kept nodes, exactly
    rng = np.random.default_rng(12)
    for _ in range(80):
        m, n = rng.integers(1, 8, 2)
        cost = rng.uniform(0.0, 5.0, (m, n)).round(rng.integers(0, 3))
        a = rng.integers(0, 3, m).astype(float)
        b = rng.integers(0, 3, n).astype(float)
        a[rng.integers(m)] += 1.0
        b[rng.integers(n)] += 1.0
        plan = solve_transport(TransportProblem.build(cost, a / a.sum(), b / b.sum()))
        rows, cols = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
        for i in np.flatnonzero(a == 0):
            assert plan.dual_row[i] == np.min(cost[i, cols] - plan.dual_col[cols])
        for j in np.flatnonzero(b == 0):
            assert plan.dual_col[j] == np.min(cost[rows, j] - plan.dual_row[rows])


def test_brute_force_contracts():
    p = TransportProblem.build(np.zeros((8, 8)))
    with pytest.raises(ContractError):
        brute_force_transport(p)
    q = TransportProblem.build(np.ones((2, 2)), np.array([0.7, 0.3]), np.array([0.5, 0.5]))
    with pytest.raises(ContractError):
        brute_force_transport(q)


def random_simplex_instance(rng, k):
    """Instance k of the oracle set: shapes with m != n and m or n equal to 1,
    uniform, non-uniform and k/n resample weights, rounded costs with ties."""
    if k % 10 == 0:
        m, n = 1, int(rng.integers(1, 9))
    elif k % 10 == 1:
        m, n = int(rng.integers(1, 9)), 1
    else:
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
    kind = k % 3
    if kind == 0:
        supply, demand = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    elif kind == 1:
        supply, demand = rng.random(m) + 0.05, rng.random(n) + 0.05
        supply, demand = supply / supply.sum(), demand / demand.sum()
    else:
        # bootstrap weights k_i / size with the zero counts pruned
        size = int(rng.integers(5, 30))
        supply = rng.multinomial(size, np.full(m, 1.0 / m)) / size
        demand = rng.multinomial(size, np.full(n, 1.0 / n)) / size
        supply, demand = supply[supply > 0], demand[demand > 0]
        m, n = supply.size, demand.size
    scale = 10.0 ** rng.uniform(-3, 3)
    if k % 4 == 0:
        cost = np.round(rng.random((m, n)), 1) * scale  # many ties
    else:
        cost = squared_distance_cost(rng.normal(size=(m, 3)), rng.normal(size=(n, 3))) * scale
    return cost, supply, demand


def assert_same_as_reference(cost, supply, demand):
    """solve_transport against the frozen copy of the old kernel at its
    tolerance of 1e-11: flows, duals and pivots."""
    want = reference_simplex(cost, supply.copy(), demand.copy(), 1e-11)
    assert want[3] == 0
    plan = solve_transport(TransportProblem(cost, supply, demand))
    for g, w in zip((plan.coupling, plan.dual_row, plan.dual_col), want[:3]):
        assert np.array_equal(g, w)
    assert plan.iterations == want[4]
    return plan.iterations


def test_simplex_bit_identical_to_reference():
    rng = np.random.default_rng(3)
    pivots = [assert_same_as_reference(*random_simplex_instance(rng, k)) for k in range(240)]
    assert min(pivots) == 0 and sum(p > 0 for p in pivots) > 150
    # at costs of 1e5 and more, rounding in (C - u) - v is far above 1e-11
    # and the old kernel could cycle to its cap; the solver reaches the
    # optimum HiGHS finds, with a zero duality gap
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cost = np.round(rng.random((m, n)), 1) * 10.0 ** rng.uniform(5, 7)
        supply, demand = rng.random(m) + 0.1, rng.random(n) + 0.1
        problem = TransportProblem.build(cost, supply / supply.sum(), demand / demand.sum())
        plan = solve_transport(problem)
        scale = cost.max()
        assert abs(plan.value - highs_value(problem)) <= 1e-12 * scale
        assert abs(plan.value - dual_value(plan, problem)) <= 1e-12 * scale
        check_plan(problem, plan)


def test_large_costs_do_not_cycle():
    # 6x6 point clouds at coordinate scale 1e3: costs of about 1e6, where the
    # old absolute tolerance let basic cells enter and the kernel cycle
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.normal(size=(2, 6, 3)) * 1e3
        problem = TransportProblem.build(squared_distance_cost(x, y))
        plan = solve_transport(problem)
        scale = problem.cost.max()
        assert abs(plan.value - brute_force_transport(problem)) <= 1e-12 * scale
        assert abs(plan.value - dual_value(plan, problem)) <= 1e-12 * scale
        # skipping basic cells alone keeps the kernel out of the cycle here,
        # even at the old tolerance
        assert transport._simplex(problem.cost, problem.supply, problem.demand, 1e-11)[3] == 0


def test_plan_reports_pivots():
    # the north-west corner start puts all mass on the diagonal, cost 1
    problem = TransportProblem.build([[1.0, 0.0], [0.0, 1.0]])
    plan = solve_transport(problem)
    assert plan.value == 0.0
    want = reference_simplex(problem.cost, problem.supply.copy(), problem.demand.copy(), 1e-11)
    assert plan.iterations == want[4] >= 1


def test_iteration_cap_error_names_pivots(monkeypatch):
    def capped(cost, supply, demand, tol):
        m, n = cost.shape
        return np.zeros((m, n)), np.zeros(m), np.zeros(n), 1, 1234

    monkeypatch.setattr(transport, "_simplex", capped)
    with pytest.raises(IterationCapError, match="after 1234 pivots"):
        solve_transport(TransportProblem.build(np.ones((2, 2))))


def test_larger_instance_runs():
    rng = np.random.default_rng(4)
    m = n = 60
    cost = squared_distance_cost(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
    problem = TransportProblem.build(cost)
    plan = solve_transport(problem)
    check_plan(problem, plan)
    assert plan.iterations == 9585
