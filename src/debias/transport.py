"""Exact discrete optimal transport at desk scale.

``solve_transport`` runs a transportation simplex on a balanced problem
with arbitrary nonnegative marginal weights; resampled empirical
distributions carry rational weights k_i/n, so the solver is not
restricted to uniform marginals.  ``brute_force_transport`` enumerates
permutation couplings as an independent oracle for small uniform problems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .observations import ContractError


class TransportError(ValueError):
    """Invalid transport problem or solver failure."""


class IterationCapError(TransportError):
    """The simplex hit its iteration cap: a numeric failure, not a bad problem."""


@dataclass(frozen=True)
class TransportProblem:
    """Balanced transport instance: cost (m, n), supply (m,), demand (n,)."""

    cost: np.ndarray
    supply: np.ndarray
    demand: np.ndarray

    @staticmethod
    def build(cost, supply=None, demand=None) -> "TransportProblem":
        cost = np.atleast_2d(np.asarray(cost, dtype=float))
        m, n = cost.shape
        supply = np.full(m, 1.0 / m) if supply is None else np.asarray(supply, dtype=float)
        demand = np.full(n, 1.0 / n) if demand is None else np.asarray(demand, dtype=float)
        if supply.shape != (m,) or demand.shape != (n,):
            raise TransportError("marginal lengths must match the cost matrix")
        if not (np.all(np.isfinite(supply)) and np.all(np.isfinite(demand))):
            raise TransportError("marginal weights must be finite")
        if np.any(supply < 0) or np.any(demand < 0):
            raise TransportError("marginal weights must be nonnegative")
        if abs(supply.sum() - 1.0) > 1e-10 or abs(demand.sum() - 1.0) > 1e-10:
            raise TransportError("supply and demand must each sum to 1 within 1e-10")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise TransportError("costs must be finite and nonnegative")
        return TransportProblem(cost, supply, demand)


@dataclass
class TransportPlan:
    """Optimal coupling, its objective value, the dual potentials, and the
    number of simplex pivots it took."""

    coupling: np.ndarray
    value: float
    dual_row: np.ndarray
    dual_col: np.ndarray
    iterations: int


def squared_distance_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean costs between rows of x (m, d) and y (n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def solve_transport(problem: TransportProblem) -> TransportPlan:
    """Optimal transport plan by the transportation simplex.

    Zero-weight rows and columns are pruned before solving; their dual
    potentials are backfilled so feasibility ``u_i + v_j <= cost_ij`` holds
    everywhere.  When nothing is pruned the simplex's flows are the
    coupling.  Reduced costs count as negative below ``-1e-11`` times the
    largest cost (at least 1), so rounding in large costs does not make the
    solver cycle.
    """
    cost, supply, demand = problem.cost, problem.supply, problem.demand
    m, n = cost.shape
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    if rows.size == 0 or cols.size == 0:
        raise TransportError("a balanced problem cannot have empty marginals")
    pruned = rows.size < m or cols.size < n
    sub_cost = cost[np.ix_(rows, cols)] if pruned else cost
    tol = 1e-11 * max(1.0, float(sub_cost.max()))
    flow, u, v, status, iterations = _simplex(sub_cost, supply[rows], demand[cols], tol)
    if status != 0:
        raise IterationCapError(
            f"transportation simplex hit its iteration cap after {iterations} pivots")

    if pruned:
        coupling = np.zeros((m, n))
        coupling[np.ix_(rows, cols)] = flow
        dual_row = np.empty(m)
        dual_col = np.empty(n)
        dual_row[rows] = u
        dual_col[cols] = v
        # pruned nodes get the tightest feasible potential
        pruned_rows = np.flatnonzero(~(supply > 0))
        pruned_cols = np.flatnonzero(~(demand > 0))
        dual_row[pruned_rows] = np.min(cost[np.ix_(pruned_rows, cols)] - v, axis=1)
        dual_col[pruned_cols] = np.min(cost[np.ix_(rows, pruned_cols)] - u[:, None], axis=0)
    else:
        coupling, dual_row, dual_col = flow, u, v
    value = float(np.sum(coupling * cost))
    return TransportPlan(coupling, value, dual_row, dual_col, iterations)


def _simplex(cost, supply, demand, tol):
    """Transportation simplex on a balanced problem with positive weights.

    North-west-corner start, tree duals, Bland's rule for both the entering
    cell (first non-basic cell whose reduced cost is below ``-tol``, in
    row-major order) and the leaving cell (lowest ``row * n + col`` among
    the minimum-ratio candidates), which prevents cycling under degenerate
    (zero-flow) pivots.  A basic cell's reduced cost is zero up to
    rounding, so it is never taken to enter.

    The basis tree, flows and costs live in Python lists: a float op on them
    is the same IEEE double op as on numpy scalars.  Nodes are rows
    ``0..m-1`` and columns ``m..m+n-1``; each dual is computed along its
    unique tree path from row 0 (``u[0] = 0``), so it does not depend on the
    order the tree is walked in, and a pivot only changes the duals of the
    subtree the leaving cell cuts off, which is all that is walked again.

    Returns (flow, u, v, status, iterations); status 0 means optimal,
    1 means the iteration cap was hit.
    """
    m, n = cost.shape
    nb = m + n - 1
    nodes = m + n
    C = cost.tolist()
    a = supply.tolist()
    b = demand.tolist()
    flow = [[0.0] * n for _ in range(m)]
    basic = [[False] * n for _ in range(m)]
    brow = [0] * nb
    bcol = [0] * nb
    adj = [set() for _ in range(nodes)]  # node -> basic cells touching it

    i = 0
    j = 0
    for k in range(nb):
        brow[k] = i
        bcol[k] = j
        adj[i].add(k)
        adj[m + j].add(k)
        basic[i][j] = True
        q = a[i] if a[i] < b[j] else b[j]
        flow[i][j] = q
        a[i] -= q
        b[j] -= q
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif a[i] <= 0.0:
            i += 1
        else:
            j += 1

    dual = [0.0] * nodes  # u then v
    up_node = [-1] * nodes
    up_cell = [0] * nodes
    depth = [0] * nodes
    order = [0]
    max_iter = 1000 + 20 * nodes * nb
    for it in range(max_iter):
        # duals, parents and depths of the basis tree rooted at row 0: all of
        # it at the start, afterwards the subtree the last pivot re-hung
        if it:
            dual[child] = C[ei][ej] - dual[parent]
        for node in order:
            for t in adj[node]:
                r = brow[t]
                other = m + bcol[t] if node == r else r
                if other != up_node[node]:
                    dual[other] = C[r][bcol[t]] - dual[node]
                    up_node[other] = node
                    up_cell[other] = t
                    depth[other] = depth[node] + 1
                    order.append(other)

        # entering cell: the first non-basic cell whose reduced cost
        # (C - u) - v is below -tol, in row-major order
        ei = -1
        v = dual[m:]
        for r in range(m):
            ur = dual[r]
            Cr = C[r]
            for c in range(n):
                if Cr[c] - ur - v[c] < -tol and not basic[r][c]:
                    ei, ej = r, c
                    break
            if ei >= 0:
                break
        if ei < 0:
            return np.array(flow), np.array(dual[:m]), np.array(dual[m:]), 0, it

        # tree path from row ei to column ej, edges running outward from ei;
        # minus cells sit at even offsets
        x, y = ei, m + ej
        head, tail = [], []
        while depth[x] > depth[y]:
            head.append(up_cell[x])
            x = up_node[x]
        while depth[y] > depth[x]:
            tail.append(up_cell[y])
            y = up_node[y]
        while x != y:
            head.append(up_cell[x])
            x = up_node[x]
            tail.append(up_cell[y])
            y = up_node[y]
        path = head + tail[::-1]

        theta = -1.0
        leave_pos = -1
        leave_key = -1
        for p in range(0, len(path), 2):
            t = path[p]
            f = flow[brow[t]][bcol[t]]
            key = brow[t] * n + bcol[t]
            if theta < 0.0 or f < theta or (f == theta and key < leave_key):
                theta = f
                leave_pos = p
                leave_key = key
        for p, t in enumerate(path):
            if p % 2 == 0:
                flow[brow[t]][bcol[t]] -= theta
            else:
                flow[brow[t]][bcol[t]] += theta
        flow[ei][ej] += theta
        leaving = path[leave_pos]
        flow[brow[leaving]][bcol[leaving]] = 0.0
        basic[brow[leaving]][bcol[leaving]] = False
        basic[ei][ej] = True
        adj[brow[leaving]].discard(leaving)
        adj[m + bcol[leaving]].discard(leaving)
        brow[leaving] = ei
        bcol[leaving] = ej
        adj[ei].add(leaving)
        adj[m + ej].add(leaving)
        # the subtree cut off by the leaving cell now hangs from the entering one
        child, parent = (ei, m + ej) if leave_pos < len(head) else (m + ej, ei)
        up_node[child] = parent
        up_cell[child] = leaving
        depth[child] = depth[parent] + 1
        order = [child]

    return np.array(flow), np.array(dual[:m]), np.array(dual[m:]), 1, max_iter


def transport_value(x, y, wx=None, wy=None) -> float:
    """Squared 2-Wasserstein distance between two weighted point clouds."""
    problem = TransportProblem.build(squared_distance_cost(x, y), wx, wy)
    return solve_transport(problem).value


def brute_force_transport(problem: TransportProblem) -> float:
    """Oracle for uniform square problems: minimum over all permutation couplings.

    Valid because the uniform n-by-n transportation polytope has permutation
    matrices (scaled by 1/n) as its vertices.
    """
    m, n = problem.cost.shape
    if m != n or n > 7:
        raise ContractError(f"brute force needs n = m <= 7, got {m}x{n}")
    if np.any(np.abs(problem.supply - 1.0 / n) > 1e-12) or np.any(np.abs(problem.demand - 1.0 / n) > 1e-12):
        raise ContractError("brute force needs uniform marginals")
    return min(sum(float(problem.cost[i, perm[i]]) for i in range(n)) / n
               for perm in itertools.permutations(range(n)))
