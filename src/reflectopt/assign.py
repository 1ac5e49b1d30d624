"""Minimum-cost assignment and permutation-invariant leader alignment.

The velocity update of the swarm optimizer compares a particle's reflectors
with those of a leader placement. Comparing by list index produces huge,
meaningless difference vectors, so the leader is first reordered by a
minimum-cost assignment (Hungarian method) that matches each particle
reflector with a close leader reflector, per type group when two reflector
types are in use.
"""

from __future__ import annotations

import numpy as np

from .placement import Placement


def hungarian(cost) -> np.ndarray:
    """Minimum-cost injective row-to-column assignment (rows n <= columns m).

    Returns the assigned column per row, as found by scipy's
    ``linear_sum_assignment``, which is deterministic for a given matrix.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2D matrix")
    n, m = cost.shape
    if n > m:
        raise ValueError("cost matrix needs at least as many columns as rows")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    from scipy.optimize import linear_sum_assignment  # start-up cost that evaluate never pays

    return linear_sum_assignment(cost)[1]


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
            for t in np.unique(particle.types)
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
