"""Physically inspired constraint repair for reflector placements.

Reflectors closer than the minimum spacing repel each other like magnets of
the same polarity; under-covered grid regions attract reflectors like
centers of gravitation. Together with projection onto the wall-margin
contour these steps turn infeasible placements feasible within a few
iterations, and they double as the particle initializer.

Coverage attraction is selective: each violating region recruits exactly
its missing number of reflectors, preferring redundant ones whose departure
leaves no element under-covered, and a stalled search relocates the most
redundant reflector straight onto the biggest hole. Pulling every reflector
toward its nearest hole instead drags reflectors away from regions that are
already covered, so on tight configurations the holes only move around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geom import Grid, RoomModel, build_grid, in_margin, project_into_margin
from .objectives import EvalConfig
from .placement import Placement, check_constraints, placement_masks, type_assignment

# Relative overshoot past d_min when separating a violating pair, so the
# pair does not land exactly on the constraint boundary and oscillate.
_PUSH_DELTA = 0.05
# Repair iterations without fewer violations before a rescue jump.
_STALL_LIMIT = 12
_GAMMA = 0.2  # coverage attraction step, as a fraction of the distance to the hole
_STEP_CAP = 1.0  # longest coverage attraction step (m)


@dataclass(frozen=True)
class RepairConfig:
    k_min: int = EvalConfig.k_min
    d_min: float = EvalConfig.d_min
    max_iter: int = 200
    restarts: int = 10  # random_feasible re-initializations


def magnet_step(pl: Placement, d_min: float, rng: np.random.Generator | None = None) -> Placement:
    """Push every pair closer than d_min apart, both ends symmetrically.

    Displacements of all violating pairs are accumulated first and applied
    simultaneously, so the result does not depend on pair order. Coincident
    reflectors separate along a random direction (seeded rng required then).
    """
    xy = pl.xy
    m = pl.m
    if m < 2:
        return pl
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    moves = np.zeros_like(xy)
    target = d_min * (1.0 + _PUSH_DELTA)
    moved = False
    for i in range(m):
        for j in range(i + 1, m):
            d = dist[i, j]
            if d >= d_min:
                continue
            moved = True
            if d < 1e-12:
                if rng is None:
                    raise ValueError("coincident reflectors need an rng to separate")
                angle = rng.uniform(0.0, 2.0 * np.pi)
                direction = np.array([np.cos(angle), np.sin(angle)])
            else:
                direction = (xy[i] - xy[j]) / d
            push = 0.5 * (target - d)
            moves[i] += push * direction
            moves[j] -= push * direction
    if not moved:
        return pl
    return pl.with_xy(xy + moves)


def _coverage_regions(grid: Grid, masks: np.ndarray, k_min: int):
    """4-connected under-covered regions: (counts, [(member elements, attractor)]).

    The attractor is the region element closest to the region centroid; it
    always lies inside the room, unlike the raw centroid of a concave region.
    """
    counts = masks.sum(axis=0)
    violated = counts < k_min
    if not violated.any():
        return counts, []
    raster = grid.rasterize(violated.astype(np.int8), fill=0)
    labels, n_regions = ndimage.label(raster)  # default structure = 4-connectivity
    element_labels = labels[grid.ij[:, 1], grid.ij[:, 0]]
    regions = []
    for region in range(1, n_regions + 1):
        members = np.flatnonzero(element_labels == region)
        centroid = grid.xy[members].mean(axis=0)
        att = members[np.argmin(np.linalg.norm(grid.xy[members] - centroid, axis=1))]
        regions.append((members, int(att)))
    return counts, regions


def _coverage_slack(pl: Placement, masks: np.ndarray, counts: np.ndarray, k_min: int) -> np.ndarray:
    """Per reflector: spare coverage of its worst-covered element (inf if none)."""
    slack = np.full(pl.m, np.inf)
    for i in range(pl.m):
        cov = masks[i]
        if cov.any():
            slack[i] = counts[cov].min() - k_min
    return slack


def deficit_gravitation_step(
    pl: Placement,
    grid: Grid,
    masks: np.ndarray,
    k_min: int,
) -> Placement:
    """Selective gravitation: each hole recruits its missing reflectors.

    Every under-covered region pulls exactly (k_min - covered) reflectors
    toward its attractor element, preferring redundant reflectors (slack
    >= 1 on every element they serve), nearest first. Each reflector obeys
    the gravitation law (_GAMMA times distance, capped at _STEP_CAP) and
    serves at most one region per step.
    """
    counts, regions = _coverage_regions(grid, masks, k_min)
    if not regions:
        return pl
    slack = _coverage_slack(pl, masks, counts, k_min)
    xy = pl.xy.copy()
    claimed = np.zeros(pl.m, dtype=bool)
    for _, att in regions:
        c_pt = grid.xy[att]
        covering = masks[:, att]
        deficit = int(k_min - covering.sum())
        cand = np.flatnonzero(~covering & ~claimed)
        if cand.size == 0:
            continue
        d = np.linalg.norm(pl.xy[cand] - c_pt, axis=1)
        redundant = slack[cand] >= 1
        order = np.lexsort((d, ~redundant))  # redundant first, then nearest
        for i in cand[order][:deficit]:
            di = np.linalg.norm(pl.xy[i] - c_pt)
            if di < 1e-12:
                continue
            step = min(_GAMMA * di, _STEP_CAP)
            xy[i] += step * (c_pt - pl.xy[i]) / di
            claimed[i] = True
    return pl.with_xy(xy)


def _rescue_jump(pl: Placement, grid: Grid, masks: np.ndarray, k_min: int) -> Placement:
    """Relocate the most redundant reflector onto the biggest hole."""
    counts, regions = _coverage_regions(grid, masks, k_min)
    if not regions:
        return pl
    slack = _coverage_slack(pl, masks, counts, k_min)
    members, att = max(regions, key=lambda r: len(r[0]))
    cand = np.flatnonzero(~masks[:, att])
    if cand.size == 0:
        return pl
    mover = int(cand[np.argmax(slack[cand])])
    xy = pl.xy.copy()
    xy[mover] = grid.xy[att]
    return pl.with_xy(xy)


def repair(
    pl: Placement,
    room: RoomModel,
    grid: Grid,
    config: RepairConfig = RepairConfig(),
    rng: np.random.Generator | None = None,
    m_max: int | None = None,
) -> tuple[Placement, bool, int]:
    """Iterate coverage attraction, magnet and margin projection until feasible.

    Returns (placement, feasible, iterations). An already feasible placement
    is returned unchanged with 0 iterations; otherwise the loop runs until
    the constraints hold or config.max_iter is exhausted. The mask matrix is
    kept across iterations; only the rows of reflectors that moved are
    recomputed.
    """
    m_max = pl.m if m_max is None else m_max
    current = pl
    masks = placement_masks(current, grid, room, strict=False)
    masks_xy = current.xy
    best_violations = np.inf
    stall = 0
    for iteration in range(config.max_iter + 1):
        masks, masks_xy = _refresh_masks(masks, masks_xy, current, grid, room)
        report = check_constraints(
            current, room, grid, masks, m_max=m_max, k_min=config.k_min, d_min=config.d_min
        )
        if report.feasible or iteration == config.max_iter:
            return current, report.feasible, iteration
        n_violations = (
            len(report.coverage_violations)
            + len(report.spacing_violations)
            + len(report.margin_violations)
        )
        if n_violations < best_violations:
            best_violations = n_violations
            stall = 0
        else:
            stall += 1
        if not report.coverage_ok:
            if stall >= _STALL_LIMIT:
                current = _rescue_jump(current, grid, masks, config.k_min)
                stall = 0
            else:
                current = deficit_gravitation_step(current, grid, masks, config.k_min)
        if not report.spacing_ok:
            current = magnet_step(current, config.d_min, rng)
        current = current.with_xy(project_into_margin(current.xy, room))


def _refresh_masks(masks: np.ndarray, masks_xy: np.ndarray, pl: Placement, grid: Grid,
                   room: RoomModel) -> tuple[np.ndarray, np.ndarray]:
    """Recompute the mask rows of reflectors whose (x, y) differs from masks_xy."""
    moved = np.flatnonzero(np.any(pl.xy != masks_xy, axis=1))
    if moved.size:
        sub = Placement(xy=pl.xy[moved], types=pl.types[moved], z=pl.z)
        masks[moved] = placement_masks(sub, grid, room, strict=False)
    return masks, pl.xy


def sample_in_margin(room: RoomModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points over the wall-margin interior of the room (rejection)."""
    xmin, ymin, xmax, ymax = room.boundary.bounds
    out = np.empty((n, 2))
    filled = 0
    for _ in range(10_000):
        batch = max(4 * (n - filled), 16)
        cand = rng.uniform([xmin, ymin], [xmax, ymax], size=(batch, 2))
        cand = cand[in_margin(cand, room)]
        take = min(len(cand), n - filled)
        out[filled : filled + take] = cand[:take]
        filled += take
        if filled == n:
            return out
    raise ValueError("margin region too small to sample reflector positions")


def random_feasible(
    room: RoomModel,
    m: int,
    n_types: int,
    rng: np.random.Generator,
    grid: Grid | None = None,
    config: RepairConfig = RepairConfig(),
) -> Placement:
    """Random placement repaired into feasibility, with restarts.

    Raises RuntimeError when no feasible placement is found after
    config.restarts attempts, and at once, before any draw, when m lies below
    the coverage floor k_min * |S|: S holds grid elements pairwise more than
    two cone radii apart (``Grid.separated_elements``), no reflector sees two
    of them, and each must see k_min reflectors. The floor is at least k_min.
    """
    if grid is None:
        grid = build_grid(room)
    spread = grid.separated_elements(room.cone_radius)
    floor = config.k_min * len(spread)
    if m < floor:
        who = (f"{len(spread)} grid elements lie pairwise more than 2 cone radii apart and each"
               if len(spread) > 1 else "every grid element")
        raise RuntimeError(f"no feasible placement with {m} reflectors: need at least {floor} "
                           f"reflectors: {who} must see k_min={config.k_min} of them")
    types = type_assignment(m, n_types)
    for _ in range(config.restarts):
        xy = sample_in_margin(room, m, rng)
        pl = Placement(xy=xy, types=types, z=room.z_l)
        repaired, feasible, _ = repair(pl, room, grid, config, rng)
        if feasible:
            return repaired
    raise RuntimeError(f"no feasible placement with {m} reflectors after {config.restarts} restarts")
