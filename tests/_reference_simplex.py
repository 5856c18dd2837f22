"""Frozen copy of the transportation simplex as it stood before the list-based
rewrite in ``debias.transport``, kept verbatim as a bit-for-bit oracle.

Only ``tests/test_transport.py`` imports it; do not edit the function body.
"""

import numpy as np


def _transport_simplex_impl(cost, supply, demand, tol):
    """Transportation simplex on a balanced problem with positive weights.

    North-west-corner start, tree duals, Bland's rule for both the entering
    cell (first negative reduced cost in row-major order) and the leaving
    cell (lowest cell index among the minimum-ratio candidates), which
    prevents cycling under degenerate (zero-flow) pivots.

    Returns (flow, u, v, status, iterations); status 0 means optimal,
    1 means the iteration cap was hit.
    """
    m, n = cost.shape
    nb = m + n - 1
    nodes = m + n

    flow = np.zeros((m, n))
    brow = np.empty(nb, np.int64)
    bcol = np.empty(nb, np.int64)
    a = supply.copy()
    b = demand.copy()

    i = 0
    j = 0
    for k in range(nb):
        brow[k] = i
        bcol[k] = j
        q = a[i] if a[i] < b[j] else b[j]
        flow[i, j] = q
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

    u = np.zeros(m)
    v = np.zeros(n)
    deg = np.zeros(nodes, np.int64)
    adj_start = np.zeros(nodes + 1, np.int64)
    adj_cell = np.empty(2 * nb, np.int64)
    cursor = np.empty(nodes, np.int64)
    queue = np.empty(nodes, np.int64)
    seen = np.zeros(nodes, np.uint8)
    parent_node = np.empty(nodes, np.int64)
    parent_cell = np.empty(nodes, np.int64)
    path_cells = np.empty(nodes, np.int64)

    max_iter = 1000 + 20 * nodes * nb
    for it in range(max_iter):
        # adjacency of the basis tree: rows are nodes 0..m-1, columns m..m+n-1
        for t in range(nodes):
            deg[t] = 0
        for t in range(nb):
            deg[brow[t]] += 1
            deg[m + bcol[t]] += 1
        adj_start[0] = 0
        for t in range(nodes):
            adj_start[t + 1] = adj_start[t] + deg[t]
            cursor[t] = adj_start[t]
        for t in range(nb):
            adj_cell[cursor[brow[t]]] = t
            cursor[brow[t]] += 1
            adj_cell[cursor[m + bcol[t]]] = t
            cursor[m + bcol[t]] += 1

        # duals from the tree, rooted at row 0 with u[0] = 0
        for t in range(nodes):
            seen[t] = 0
        u[0] = 0.0
        seen[0] = 1
        queue[0] = 0
        head = 0
        tail = 1
        while head < tail:
            node = queue[head]
            head += 1
            for e in range(adj_start[node], adj_start[node + 1]):
                t = adj_cell[e]
                r = brow[t]
                c = m + bcol[t]
                other = c if node == r else r
                if seen[other] == 0:
                    if other >= m:
                        v[other - m] = cost[r, other - m] - u[r]
                    else:
                        u[other] = cost[other, bcol[t]] - v[bcol[t]]
                    seen[other] = 1
                    queue[tail] = other
                    tail += 1

        # entering cell: Bland (first negative reduced cost, row-major)
        ei = -1
        ej = -1
        for r in range(m):
            for c in range(n):
                if cost[r, c] - u[r] - v[c] < -tol:
                    ei = r
                    ej = c
                    break
            if ei >= 0:
                break
        if ei < 0:
            return flow, u, v, 0, it

        # unique tree path from row node ei to column node m+ej
        for t in range(nodes):
            seen[t] = 0
        seen[ei] = 1
        parent_node[ei] = -1
        queue[0] = ei
        head = 0
        tail = 1
        target = m + ej
        while head < tail:
            node = queue[head]
            head += 1
            if node == target:
                break
            for e in range(adj_start[node], adj_start[node + 1]):
                t = adj_cell[e]
                other = m + bcol[t] if node == brow[t] else brow[t]
                if seen[other] == 0:
                    seen[other] = 1
                    parent_node[other] = node
                    parent_cell[other] = t
                    queue[tail] = other
                    tail += 1

        plen = 0
        node = target
        while node != ei:
            path_cells[plen] = parent_cell[node]
            plen += 1
            node = parent_node[node]
        # reverse so edges run outward from ei; minus cells sit at even offsets
        for t in range(plen // 2):
            tmp = path_cells[t]
            path_cells[t] = path_cells[plen - 1 - t]
            path_cells[plen - 1 - t] = tmp

        theta = -1.0
        leave_pos = -1
        leave_key = -1
        for t in range(0, plen, 2):
            cell = path_cells[t]
            f = flow[brow[cell], bcol[cell]]
            key = brow[cell] * n + bcol[cell]
            if theta < 0.0 or f < theta or (f == theta and key < leave_key):
                theta = f
                leave_pos = t
                leave_key = key
        for t in range(plen):
            cell = path_cells[t]
            if t % 2 == 0:
                flow[brow[cell], bcol[cell]] -= theta
            else:
                flow[brow[cell], bcol[cell]] += theta
        flow[ei, ej] += theta
        leaving = path_cells[leave_pos]
        flow[brow[leaving], bcol[leaving]] = 0.0
        brow[leaving] = ei
        bcol[leaving] = ej

    return flow, u, v, 1, max_iter

