"""Minimum-cost assignment and permutation-invariant leader alignment.

The velocity update of the swarm optimizer compares a particle's reflectors
with those of a leader placement. Comparing by list index produces huge,
meaningless difference vectors, so the leader is first reordered by a
minimum-cost assignment that matches each particle reflector with a close
leader reflector, per type group when two reflector types are in use.

The assignment is the shortest augmenting path method of Jonker and
Volgenant (1987) in Crouse's rectangular form (2016): columns are scanned
from last to first, and among columns at equal distance an unassigned one
is taken.
"""

from __future__ import annotations

import numpy as np

from .placement import Placement


def hungarian(cost) -> np.ndarray:
    """Minimum-cost injective row-to-column assignment (rows n <= columns m).

    Returns the assigned column per row. Each row in turn is added by a
    shortest augmenting path over reduced costs, scanning the unvisited
    columns from m-1 down to 0 and taking an unassigned column among equal
    distances. scipy's ``linear_sum_assignment`` runs the same method in the
    same order of float operations, so the two agree on every column.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2D matrix")
    n, m = cost.shape
    if n > m:
        raise ValueError("cost matrix needs at least as many columns as rows")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows = cost.tolist()
    u, v = [0.0] * n, [0.0] * m
    col4row, row4col, path = [-1] * n, [-1] * m, [-1] * m
    for cur in range(n):
        dist = [np.inf] * m
        remaining = list(range(m - 1, -1, -1))
        visited_rows, visited_cols = [], []
        i, min_val = cur, 0.0
        while True:
            row, ui = rows[i], u[i]
            lowest, index = np.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                d = dist[j]
                if d < lowest or (d == lowest and row4col[j] == -1):
                    lowest, index = d, it
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            visited_cols.append(j)
            if row4col[j] == -1:
                break
            i = row4col[j]
            visited_rows.append(i)
        u[cur] += min_val
        for i in visited_rows:
            u[i] += min_val - dist[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - dist[j]
        # augment along the path back to the new row
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.intp)


def align_leader(particle: Placement, leader: Placement, type_constrained: bool) -> np.ndarray:
    """Leader coordinates reordered to match the particle's reflector order.

    Matching minimizes summed squared 2D distance, per type group when
    type_constrained (two-type fingerprinting), globally otherwise. Surplus
    leader reflectors are dropped; particle reflectors without a leader
    counterpart receive their own coordinates (zero attraction).
    """
    if particle.m == 0 or leader.m == 0:
        raise ValueError("placements must be non-empty")
    aligned = particle.xy.copy()
    if type_constrained:
        groups = [
            (np.flatnonzero(particle.types == t), np.flatnonzero(leader.types == t))
            for t in (0, 1)  # the reflector types; not np.unique, which loads numpy.ma
        ]
    else:
        groups = [(np.arange(particle.m), np.arange(leader.m))]

    for p_idx, l_idx in groups:
        if len(p_idx) == 0 or len(l_idx) == 0:
            continue
        diff = particle.xy[p_idx][:, None, :] - leader.xy[l_idx][None, :, :]
        cost = np.einsum("ijk,ijk->ij", diff, diff)
        if len(p_idx) <= len(l_idx):
            cols = hungarian(cost)
            aligned[p_idx] = leader.xy[l_idx[cols]]
        else:
            # fewer leader reflectors: match them to particle slots, leave
            # the unmatched particle reflectors anchored to themselves
            cols = hungarian(cost.T)
            aligned[p_idx[cols]] = leader.xy[l_idx]
    return aligned
