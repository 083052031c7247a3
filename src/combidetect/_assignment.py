"""Exact maximum perfect-matching weight of a dense square weight matrix.

Shortest-augmenting-path assignment with dual potentials, O(m^3).
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")


def assignment_value(w: np.ndarray) -> float:
    """max sum_i w[i, sigma(i)] over permutations sigma, summed in row order."""
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    if w.shape != (m, m):
        raise ValueError("weight matrix must be square")
    cost = -w

    # 1-based arrays with a virtual column 0, vectorized over columns.
    u = np.zeros(m + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, m + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, _INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            upd = (~used[1:]) & (cur < minv[1:])
            if upd.any():
                minv[1:][upd] = cur[upd]
                way[1:][upd] = j0
            masked = np.where(used[1:], _INF, minv[1:])
            jm = int(np.argmin(masked))
            delta = masked[jm]
            j1 = jm + 1
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][~used[1:]] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    sigma = np.empty(m, dtype=np.int64)
    for j in range(1, m + 1):
        sigma[p[j] - 1] = j - 1
    return float(w[np.arange(m), sigma].sum())
