"""Placement quality objectives: fingerprint ambiguity and summed GDOP.

f1 counts grid elements whose rounded-distance fingerprint is not unique in
the room; f2 sums the geometric dilution of precision of range-based
multilateration over all grid elements. Both are minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geom import Grid, RoomModel
from .placement import Placement, check_constraints, visible_reflectors

# Condition-number ceiling beyond which the information matrix counts as
# singular and the GDOP penalty applies.
_COND_LIMIT = 1e12
_GDOP_PENALTY_TRACE = 1e6

UNIQUE, LOCAL, GLOBAL = 0, 1, 2


class Fingerprint(NamedTuple):
    """Canonical fingerprint: N (distance_bin, type) pairs sorted ascending."""

    entries: tuple[tuple[int, int], ...]


class CoverageError(ValueError):
    """A grid element sees fewer reflectors than the fingerprint needs."""


@dataclass(frozen=True)
class EvalConfig:
    """Shared knobs of the objective evaluation."""

    n: int = 4  # fingerprint size (nearest-N reflectors)
    k_min: int = 4  # minimum visible reflectors per grid element
    d_min: float = 0.5  # minimum pairwise reflector distance (m)
    m_max: int = 32  # maximum reflector count

    def __post_init__(self):
        if self.k_min < 4:
            raise ValueError("k_min must be at least 4: the GDOP needs 4 visible reflectors")
        if self.n > self.k_min:
            raise ValueError("fingerprint size n must not exceed k_min")


def distance_bins(distances: np.ndarray, r_res: float) -> np.ndarray:
    """Round distances to integer resolution bins, half away from zero."""
    return np.floor(np.asarray(distances) / r_res + 0.5).astype(np.int64)


def fingerprint(p_r, pl: Placement, masks: np.ndarray, grid: Grid, n: int, r_res: float) -> Fingerprint:
    """Fingerprint of one grid element: nearest n visible reflectors.

    Selection uses true distances (index tie-break); stored entries carry the
    rounded distance bin and the reflector type, sorted canonically.
    """
    vis = visible_reflectors(p_r, pl, masks, grid)
    if len(vis) < n:
        raise CoverageError(f"only {len(vis)} reflectors visible, fingerprint needs {n}")
    chosen = vis[:n]
    entries = sorted(
        (int(distance_bins(np.array([d]), r_res)[0]), r.type) for r, d in chosen
    )
    return Fingerprint(entries=tuple(entries))


def fingerprint_table(
    pl: Placement, masks: np.ndarray, grid: Grid, n: int, r_res: float
) -> np.ndarray:
    """(n_elements, n) canonical fingerprint codes, one row per grid element.

    Each code packs (bin, type) as 2*bin + type so that row-wise sorted codes
    compare lexicographically like sorted (bin, type) entry lists. Raises
    CoverageError if any element sees fewer than n reflectors.
    """
    order, dsel = nearest_visible(pl, masks, grid, n)
    if not np.all(np.isfinite(dsel)):
        short = int(np.isinf(dsel).any(axis=1).sum())
        raise CoverageError(f"{short} grid elements see fewer than {n} reflectors")
    bins = distance_bins(dsel, r_res)
    types = pl.types[order]
    codes = 2 * bins + types
    codes.sort(axis=1)
    return codes


def nearest_visible(
    pl: Placement, masks: np.ndarray, grid: Grid, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n nearest visible reflectors of every grid element.

    Returns (indices, distances), both (n_elements, n), nearest first by
    true 3D distance with ties going to the lower reflector index. Columns
    past an element's count of visible reflectors hold distance inf; when
    the placement has fewer than n reflectors, the missing columns also
    hold index 0.
    """
    diff = grid.centers[:, None, :] - pl.positions3d[None, :, :]
    d = np.where(masks.T, np.sqrt(np.einsum("nmk,nmk->nm", diff, diff)), np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :n]
    dsel = np.take_along_axis(d, order, axis=1)
    short = n - order.shape[1]
    if short > 0:
        order = np.pad(order, ((0, 0), (0, short)))
        dsel = np.pad(dsel, ((0, 0), (0, short)), constant_values=np.inf)
    return order, dsel


@dataclass(frozen=True)
class AmbiguityMap:
    """Per-element ambiguity classification and fingerprint group ids."""

    classes: np.ndarray  # UNIQUE / LOCAL / GLOBAL per grid element
    group_ids: np.ndarray  # elements sharing a fingerprint share an id

    @property
    def n_unique(self) -> int:
        return int((self.classes == UNIQUE).sum())

    @property
    def n_local(self) -> int:
        return int((self.classes == LOCAL).sum())

    @property
    def n_global(self) -> int:
        return int((self.classes == GLOBAL).sum())


def ambiguity(
    pl: Placement,
    room: RoomModel,
    grid: Grid,
    masks: np.ndarray,
    n: int,
    r_res: float,
    with_map: bool = True,
) -> tuple[int, AmbiguityMap | None]:
    """Count ambiguous grid elements and classify them local/global.

    Two elements are ambiguous when their fingerprints are identical. An
    ambiguous fingerprint group forming a single 4-connected grid region is
    local; one spanning several unconnected regions is global.
    """
    codes = fingerprint_table(pl, masks, grid, n, r_res)
    _, inv, counts = np.unique(codes, axis=0, return_inverse=True, return_counts=True)
    inv = inv.ravel()
    ambiguous = counts[inv] >= 2
    f1 = int(ambiguous.sum())
    if not with_map:
        return f1, None

    comp = _same_value_components(grid, inv)
    # number of distinct connected regions per fingerprint group
    pairs = np.unique(np.column_stack([inv, comp]), axis=0)
    regions_per_group = np.bincount(pairs[:, 0], minlength=len(counts))
    classes = np.full(len(grid), UNIQUE, dtype=np.int8)
    group_global = regions_per_group > 1
    classes[ambiguous & group_global[inv]] = GLOBAL
    classes[ambiguous & ~group_global[inv]] = LOCAL
    return f1, AmbiguityMap(classes=classes, group_ids=inv.astype(np.int64))


def _same_value_components(grid: Grid, values: np.ndarray) -> np.ndarray:
    """4-connected components of grid elements holding equal values."""
    raster = grid.rasterize(values.astype(np.int64) + 1, fill=0)  # 0 = no element
    idx = grid.cell_index
    same_h = (raster[:, :-1] == raster[:, 1:]) & (raster[:, :-1] > 0)
    same_v = (raster[:-1, :] == raster[1:, :]) & (raster[:-1, :] > 0)
    row = np.concatenate([idx[:, :-1][same_h], idx[:-1, :][same_v]])
    col = np.concatenate([idx[:, 1:][same_h], idx[1:, :][same_v]])
    n = len(grid)
    adj = coo_matrix((np.ones(len(row), dtype=np.int8), (row, col)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return labels


def gdop(p_r, visible: list, sigma_r: float) -> float:
    """GDOP of one position from its visible reflectors (Fisher-information form).

    ``visible`` holds (reflector, distance) pairs as returned by
    visible_reflectors. Needs at least 4 entries; near-singular geometry
    yields the fixed penalty value.
    """
    if len(visible) < 4:
        raise ValueError("GDOP needs at least 4 visible reflectors")
    p = np.asarray(p_r, dtype=float).reshape(3)
    h = np.stack([(p - r.position) / d for r, d in visible])
    j = h.T @ h
    vals = np.linalg.eigvalsh(j)
    return _gdop_from_eigvals(vals[None, :], sigma_r)[0]


def _gdop_from_eigvals(vals: np.ndarray, sigma_r: float) -> np.ndarray:
    vmin = vals[:, 0]
    vmax = vals[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        trace_inv = (1.0 / vals).sum(axis=1)
        cond = vmax / vmin
    bad = (vmin <= 0) | ~np.isfinite(trace_inv) | (cond > _COND_LIMIT)
    return np.where(bad, _GDOP_PENALTY_TRACE, trace_inv) * sigma_r**2


def gdop_values(pl: Placement, masks: np.ndarray, grid: Grid, sigma_r: float) -> np.ndarray:
    """Per-element GDOP over the whole grid (vectorized)."""
    counts = masks.sum(axis=0)
    if counts.min() < 4:
        raise ValueError("GDOP needs at least 4 visible reflectors at every element")
    diff = grid.centers[:, None, :] - pl.positions3d[None, :, :]
    d = np.sqrt(np.einsum("nmk,nmk->nm", diff, diff))
    u = diff / d[:, :, None]
    u = u * masks.T[:, :, None]
    j = np.einsum("nmi,nmj->nij", u, u)
    vals = np.linalg.eigvalsh(j)
    return _gdop_from_eigvals(vals, sigma_r)


def gdop_objective(
    pl: Placement,
    room: RoomModel,
    grid: Grid,
    masks: np.ndarray,
    sigma_r: float,
) -> tuple[float, np.ndarray]:
    """Sum of the per-element GDOP plus the per-element values."""
    values = gdop_values(pl, masks, grid, sigma_r)
    return float(values.sum()), values


def penalty_pair(grid: Grid, sigma_r: float) -> tuple[int, float]:
    """Objective pair that any feasible placement dominates."""
    return len(grid) * 10, _GDOP_PENALTY_TRACE * sigma_r**2 * len(grid)


def evaluate(
    pl: Placement,
    room: RoomModel,
    grid: Grid,
    masks: np.ndarray,
    config: EvalConfig,
) -> tuple[int, float]:
    """Joint objective evaluation: (f1, f2), or the penalty pair if infeasible.

    The range error of the GDOP is the room's range resolution r_res.
    """
    report = check_constraints(
        pl, room, grid, masks, m_max=config.m_max, k_min=config.k_min, d_min=config.d_min
    )
    if not report.feasible:
        return penalty_pair(grid, room.r_res)
    f1, _ = ambiguity(pl, room, grid, masks, config.n, room.r_res, with_map=False)
    f2, _ = gdop_objective(pl, room, grid, masks, room.r_res)
    return f1, f2
