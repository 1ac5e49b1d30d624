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

import numpy as np

from .geom import Grid, RoomModel, in_margin, project_into_margin
from .objectives import EvalConfig
from .placement import Placement, close_pairs, coverage_floor, placement_masks, type_assignment

# Relative overshoot past d_min when separating a violating pair, so the
# pair does not land exactly on the constraint boundary and oscillate.
_PUSH_DELTA = 0.05
# Repair iterations without fewer violations before a rescue jump.
_STALL_LIMIT = 12
_GAMMA = 0.2  # coverage attraction step, as a fraction of the distance to the hole
_STEP_CAP = 1.0  # longest coverage attraction step (m)
_MAX_ITER = 200  # repair iterations before giving up
_RESTARTS = 10  # random_feasible re-initializations


def magnet_step(pl: Placement, d_min: float, rng: np.random.Generator | None = None) -> Placement:
    """Push every pair closer than d_min apart, both ends symmetrically.

    Displacements of all violating pairs are accumulated first and applied
    simultaneously, so the result does not depend on pair order. Coincident
    reflectors separate along a random direction (seeded rng required then).
    """
    i, j, d = close_pairs(pl.xy, d_min)
    if not d.size:
        return pl
    direction = (pl.xy[i] - pl.xy[j]) / np.maximum(d, 1e-12)[:, None]
    coincident = np.flatnonzero(d < 1e-12)
    if coincident.size:
        if rng is None:
            raise ValueError("coincident reflectors need an rng to separate")
        angle = rng.uniform(0.0, 2.0 * np.pi, size=coincident.size)
        direction[coincident] = np.column_stack([np.cos(angle), np.sin(angle)])
    push = (0.5 * (d_min * (1.0 + _PUSH_DELTA) - d))[:, None] * direction
    moves = np.zeros_like(pl.xy)
    # pair by pair, i's push and then j's: the order of a serial sum, bit for bit
    np.add.at(moves, np.column_stack([i, j]).ravel(), np.hstack([push, -push]).reshape(-1, 2))
    return pl.with_xy(pl.xy + moves)


def _coverage_holes(grid: Grid, masks: np.ndarray, counts: np.ndarray, k_min: int):
    """Under-covered regions and per-reflector slack: ([(member elements, attractor)], slack).

    ``counts`` is ``masks.sum(axis=0)``, the reflectors each element sees.
    ``Grid.components`` labels the 4-connected regions; they come in order of
    their lowest element. The attractor is the region element closest to the
    region centroid; it always lies inside the room, unlike the raw centroid
    of a concave region. A reflector's slack is the spare coverage of its
    worst-covered element (inf if it covers none).
    """
    slack = np.where(masks, counts, np.inf).min(axis=1) - k_min
    violated = counts < k_min
    if not violated.any():
        return [], slack
    roots = grid.components(violated)
    # the stable sort keeps each region's elements ascending; roots of -1 come first
    members = np.argsort(roots, kind="stable")[np.count_nonzero(~violated):]
    regions = []
    for region in np.split(members, np.flatnonzero(np.diff(roots[members])) + 1):
        centroid = grid.xy[region].mean(axis=0)
        att = region[np.argmin(np.linalg.norm(grid.xy[region] - centroid, axis=1))]
        regions.append((region, int(att)))
    return regions, slack


def deficit_gravitation_step(
    pl: Placement,
    grid: Grid,
    masks: np.ndarray,
    counts: np.ndarray,
    k_min: int,
) -> Placement:
    """Selective gravitation: each hole recruits its missing reflectors.

    Every under-covered region pulls exactly (k_min - covered) reflectors
    toward its attractor element, preferring redundant reflectors (slack
    >= 1 on every element they serve), nearest first. Each reflector obeys
    the gravitation law (_GAMMA times distance, capped at _STEP_CAP) and
    serves at most one region per step. ``counts`` is ``masks.sum(axis=0)``.
    """
    regions, slack = _coverage_holes(grid, masks, counts, k_min)
    if not regions:
        return pl
    xy = pl.xy.copy()
    claimed = np.zeros(pl.m, dtype=bool)
    for _, att in regions:
        c_pt = grid.xy[att]
        deficit = int(k_min - counts[att])
        cand = np.flatnonzero(~masks[:, att] & ~claimed)
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


def _rescue_jump(pl: Placement, grid: Grid, masks: np.ndarray, counts: np.ndarray,
                 k_min: int) -> Placement:
    """Relocate the most redundant reflector onto the biggest hole."""
    regions, slack = _coverage_holes(grid, masks, counts, k_min)
    if not regions:
        return pl
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
    config: EvalConfig = EvalConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[Placement, bool, int]:
    """Iterate coverage attraction, magnet and margin projection until feasible.

    Returns (placement, feasible, iterations). A feasible placement, or one
    whose count lies outside (0, config.m_max], which no step changes, comes
    back unchanged after 0 iterations; otherwise the loop runs until the
    constraints hold or _MAX_ITER is exhausted. The wall margin is checked on
    the input only: ``project_into_margin`` returns points that ``in_margin``
    accepts. ``_repair`` also returns the masks of the placement.
    """
    return _repair(pl, room, config, rng)[:3]


def _repair(
    pl: Placement,
    room: RoomModel,
    config: EvalConfig,
    rng: np.random.Generator | None,
) -> tuple[Placement, bool, int, np.ndarray | None]:
    """``repair``, plus the (M, n_elements) ``strict=False`` ``room.grid`` masks of its result.

    The masks are None only when the count lies outside (0, config.m_max].
    The mask matrix and its per-element counts are kept across iterations:
    only the rows of reflectors that moved are recomputed, and the counts
    take off their old rows and add their new ones.
    """
    if not 0 < pl.m <= config.m_max:
        return pl, False, 0, None
    grid = room.grid
    margin_violations = np.count_nonzero(~in_margin(pl.xy, room))
    current = pl
    masks = placement_masks(current, grid, room, strict=False)
    counts = masks.sum(axis=0)
    masks_xy = current.xy
    best_violations = np.inf
    stall = 0
    for iteration in range(_MAX_ITER + 1):
        moved = np.flatnonzero(np.any(current.xy != masks_xy, axis=1))
        if moved.size:
            sub = Placement(xy=current.xy[moved], types=current.types[moved], z=current.z)
            rows = placement_masks(sub, grid, room, strict=False)
            counts += rows.sum(axis=0) - masks[moved].sum(axis=0)
            masks[moved] = rows
        masks_xy = current.xy
        coverage_violations = np.count_nonzero(counts < config.k_min)
        spacing_violations = len(close_pairs(current.xy, config.d_min)[0])
        n_violations = coverage_violations + spacing_violations + margin_violations
        if n_violations == 0 or iteration == _MAX_ITER:
            return current, n_violations == 0, iteration, masks
        if n_violations < best_violations:
            best_violations = n_violations
            stall = 0
        else:
            stall += 1
        if coverage_violations:
            if stall >= _STALL_LIMIT:
                current = _rescue_jump(current, grid, masks, counts, config.k_min)
                stall = 0
            else:
                current = deficit_gravitation_step(current, grid, masks, counts, config.k_min)
        if spacing_violations:
            current = magnet_step(current, config.d_min, rng)
        current = current.with_xy(project_into_margin(current.xy, room))
        margin_violations = 0


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
    raise _margin_error(room)


def _margin_error(room: RoomModel) -> ValueError:
    return ValueError(f"wall_margin = {room.wall_margin:g} leaves too small a region "
                      "to sample reflector positions")


def random_feasible(
    room: RoomModel,
    m: int,
    n_types: int,
    rng: np.random.Generator,
    config: EvalConfig = EvalConfig(),
) -> Placement:
    """Random placement repaired into feasibility, with restarts.

    Raises RuntimeError when no feasible placement is found after _RESTARTS
    attempts, and at once, before any draw, when m lies above config.m_max
    or below ``coverage_floor``. Raises ValueError before any draw when no
    room point keeps wall_margin from the walls: the margin region has no
    corner (``RoomModel.margin_corners``).
    """
    if m > config.m_max:
        raise RuntimeError(f"no feasible placement with {m} reflectors: m_max={config.m_max}")
    floor = coverage_floor(room, config.k_min)
    if m < floor:
        n_spread = floor // config.k_min
        who = (f"{n_spread} grid elements lie pairwise more than 2 cone radii apart and each"
               if n_spread > 1 else "every grid element")
        raise RuntimeError(f"no feasible placement with {m} reflectors: need at least {floor} "
                           f"reflectors: {who} must see k_min={config.k_min} of them")
    if not len(room.margin_corners):
        raise _margin_error(room)
    types = type_assignment(m, n_types)
    for _ in range(_RESTARTS):
        xy = sample_in_margin(room, m, rng)
        pl = Placement(xy=xy, types=types, z=room.z_l)
        repaired, feasible, _ = repair(pl, room, config, rng)
        if feasible:
            return repaired
    raise RuntimeError(f"no feasible placement with {m} reflectors after {_RESTARTS} restarts")
